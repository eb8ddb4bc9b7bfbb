"""Driver-side CSR adjacency built from the weighted edge frame.

The sequential kernels (Louvain, G-/A-TxAllo sweeps, METIS-like
refinement) are deterministic serial algorithms per the paper's §IV-A, so
they run on collected numpy arrays. The graph builders produce the
weighted edge list; this module gives it a compact, deterministic
in-memory shape:

- ``nodes``: sorted unique account ids; a node's *index* into every other
  array is its position here (deterministic — the paper suggests ordering
  nodes by account hash; we order by account id, equally deterministic).
- CSR over non-self edges (both directions), ``self_w`` for self-loops.
- ``ev``, the source node of each CSR slot, so that ``(ev, indices,
  weights)`` are flat directed edge arrays (each undirected edge appears
  twice) for vectorized per-community aggregation with ``np.bincount``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class Adjacency:
    """Compact undirected weighted graph with self-loops.

    ``strength[v]`` is ``s_v = Σ_{u≠v} w_{v,u}`` (self-loops excluded);
    the paper's ``w_{v,V/v}``. Total graph weight (each undirected edge
    once + self-loops once) equals the number of transactions.
    """

    nodes: np.ndarray  # int64, sorted account ids
    indptr: np.ndarray  # int64, len n+1
    indices: np.ndarray  # int32/int64 neighbor node-indices
    weights: np.ndarray  # float64 edge weights, aligned with indices
    self_w: np.ndarray  # float64, per-node self-loop weight
    ev: np.ndarray = field(repr=False)  # source node index of each CSR slot

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def strength(self) -> np.ndarray:
        """s_v: total incident weight excluding self-loops."""
        return np.bincount(self.ev, weights=self.weights, minlength=self.n)

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights + self-loop weights (= |T|)."""
        return float(self.weights.sum() / 2.0 + self.self_w.sum())

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor indices, weights) of node index ``v``, self excluded."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def index_of(self, accounts: np.ndarray) -> np.ndarray:
        """Map account ids to node indices (must all be present)."""
        return index_of(self.nodes, accounts)


def index_of(nodes: np.ndarray, accounts: np.ndarray) -> np.ndarray:
    """Positions of ``accounts`` in the sorted id array ``nodes``; ``KeyError`` if absent."""
    idx = np.searchsorted(nodes, accounts)
    missing = (idx >= len(nodes)) | (nodes[np.minimum(idx, len(nodes) - 1)] != accounts)
    if missing.any():
        raise KeyError(f"accounts not in graph: {np.asarray(accounts)[missing][:5]}...")
    return idx


def csr(n: int, ev: np.ndarray, eu: np.ndarray, ew: np.ndarray):
    """CSR ``(indptr, indices, weights)`` of ``n`` nodes from directed edge
    arrays; each node's neighbours come in ascending index order.

    A stable sort of the one key ``ev·n + eu`` gives the permutation of
    ``np.lexsort((eu, ev))``."""
    order = np.argsort(ev.astype(np.int64) * n + eu, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ev, minlength=n), out=indptr[1:])
    return indptr, eu[order], ew[order]


def label_weights(v: int, indptr: list, indices: list, weights: list, labels: list) -> dict:
    """Edge weight from node ``v`` into each label its neighbours carry.

    Takes the CSR as Python lists (no numpy call per node) and adds the
    weights in CSR slot order, so each sum equals ``np.bincount`` over the
    same slots bit for bit. The one neighbour-label scan of the Louvain,
    METIS-like and TxAllo local moves.
    """
    acc: dict = {}
    for i in range(indptr[v], indptr[v + 1]):
        lab = labels[indices[i]]
        acc[lab] = acc.get(lab, 0.0) + weights[i]
    return acc


def contract(cmap: np.ndarray, nc: int, ev: np.ndarray, eu: np.ndarray, ew: np.ndarray):
    """Directed edges under the coarse-node map ``cmap`` (``nc`` coarse
    nodes): ``(ev, eu, ew, loop_w)`` with parallel edges summed, sorted by
    ``(ev, eu)``, and the weight of the edges that became self-loops summed
    per coarse node in ``loop_w`` (each undirected edge counted twice)."""
    cev, ceu = cmap[ev], cmap[eu]
    loop = cev == ceu
    loop_w = np.bincount(cev[loop], weights=ew[loop], minlength=nc)
    keep = ~loop
    key = cev[keep].astype(np.int64) * nc + ceu[keep]
    uk, inv = np.unique(key, return_inverse=True)
    return uk // nc, uk % nc, np.bincount(inv, weights=ew[keep]), loop_w


def adjacency_from_pandas(edges: pd.DataFrame) -> Adjacency:
    """Build an :class:`Adjacency` from an aggregated ``(src,dst,weight)``
    edge frame (canonical ``src <= dst``, unique pairs)."""
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    w = edges["weight"].to_numpy(np.float64)

    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(nodes)
    si, di = inv[: len(src)], inv[len(src) :]

    loop = si == di
    self_w = np.zeros(n)
    np.add.at(self_w, si[loop], w[loop])

    nsi, ndi, nw = si[~loop], di[~loop], w[~loop]
    indptr, indices, weights = csr(
        n, np.concatenate([nsi, ndi]), np.concatenate([ndi, nsi]), np.concatenate([nw, nw])
    )
    ev = np.repeat(np.arange(n), np.diff(indptr))
    return Adjacency(
        nodes=nodes, indptr=indptr, indices=indices, weights=weights, self_w=self_w, ev=ev
    )

