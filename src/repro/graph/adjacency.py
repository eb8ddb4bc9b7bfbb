"""The graph format of every kernel and coarsening level, built and checked here.

The sequential kernels (Louvain, G-/A-TxAllo sweeps, METIS-like matching
and refinement; paper §IV-A) run in C (``repro/kernels.c``) on numpy
arrays. A :class:`CSR` holds ``(indptr, indices, weights)`` over non-self
edges in both directions, each node's neighbours ascending; it is checked
once, when built, and read-only after, so no kernel call re-checks it.
:class:`Adjacency`, the transaction graph, adds ``nodes`` (the sorted
unique account ids; a node's index is its position there, a deterministic
order) and ``self_w`` (self-loop weights); coarse levels are plain CSRs.
:func:`_fold` is the one CSR builder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only C-contiguous 1-D view of ``dtype``."""
    if np.ndim(a) != 1:
        raise ValueError(f"graph arrays must be 1-D, not of shape {np.shape(a)}")
    a = np.ascontiguousarray(a, dtype=dtype).view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CSR:
    """Compressed sparse rows of ``n`` nodes, checked on construction.

    ``indptr`` is int64 of length n+1, from 0 and not decreasing;
    ``indices`` (int32 neighbour indices in ``[0, n)``) and ``weights``
    (float64) have ``indptr[-1]`` entries. The arrays are read-only, so
    the check cannot go stale.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        indptr = _frozen(self.indptr, np.int64)
        n = len(indptr) - 1
        if n < 0 or indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("malformed CSR: indptr must start at 0 and not decrease")
        if n > np.iinfo(np.int32).max:
            raise ValueError(f"{n} nodes do not fit int32 neighbour indices")
        if len(self.indices) != indptr[-1] or len(self.weights) != indptr[-1]:
            raise ValueError(f"CSR indices and weights must have indptr[-1] = {indptr[-1]} entries")
        if len(self.indices) and not 0 <= np.min(self.indices) <= np.max(self.indices) < n:
            raise ValueError("CSR neighbour index out of range")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", _frozen(self.indices, np.int32))
        object.__setattr__(self, "weights", _frozen(self.weights, np.float64))

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def ev(self) -> np.ndarray:
        """The source node index of each CSR slot, built anew on each
        access: a caller that needs it twice keeps it."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @property
    def strength(self) -> np.ndarray:
        """s_v: total incident weight excluding self-loops."""
        s = np.bincount(self.ev, weights=self.weights, minlength=self.n)
        return s.astype(float, copy=False)  # bincount of an empty input is int64


@dataclass(frozen=True, eq=False)
class Adjacency(CSR):
    """Compact undirected weighted graph with self-loops.

    ``strength[v]`` is ``s_v = Σ_{u≠v} w_{v,u}`` (self-loops excluded);
    the paper's ``w_{v,V/v}``. Total graph weight (each undirected edge
    once + self-loops once) equals the number of transactions.
    """

    nodes: np.ndarray  # int64, sorted account ids
    self_w: np.ndarray  # float64, per-node self-loop weight

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.nodes) != self.n or len(self.self_w) != self.n:
            raise ValueError(f"nodes and self_w must have one entry per node ({self.n})")
        object.__setattr__(self, "nodes", _frozen(self.nodes, np.int64))
        object.__setattr__(self, "self_w", _frozen(self.self_w, np.float64))

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights + self-loop weights (= |T|)."""
        return float(self.weights.sum() / 2.0 + self.self_w.sum())

    def index_of(self, accounts: np.ndarray) -> np.ndarray:
        """Map account ids to node indices (must all be present)."""
        return index_of(self.nodes, accounts)


def index_of(nodes: np.ndarray, accounts: np.ndarray) -> np.ndarray:
    """Positions of ``accounts`` in the unique id array ``nodes``, by one
    hash lookup each; ``KeyError`` if absent."""
    idx = pd.Index(nodes).get_indexer(accounts)
    missing = idx < 0
    if missing.any():
        raise KeyError(f"accounts not in graph: {np.asarray(accounts)[missing][:5]}...")
    return idx


def _fold(n: int, ev: np.ndarray, eu: np.ndarray, ew: np.ndarray) -> tuple[CSR, np.ndarray]:
    """The :class:`CSR` of ``n`` nodes from directed edge arrays, and
    ``loop_w``, the weight of the loops ``ev == eu`` summed per node.

    Parallel edges are summed in input order; the sorted keys
    ``ev·n + eu`` give each node's neighbours in ascending order, and
    ``indptr[v]`` is the number of keys below ``v·n``."""
    loop = ev == eu
    # np.bincount of an empty input is int64, whatever its weights.
    loop_w = np.bincount(ev[loop], weights=ew[loop], minlength=n).astype(float, copy=False)
    keep = ~loop
    uk, inv = np.unique(ev[keep].astype(np.int64) * n + eu[keep], return_inverse=True)
    indptr = np.searchsorted(uk, np.arange(n + 1, dtype=np.int64) * n)
    return CSR(indptr, uk % n, np.bincount(inv, weights=ew[keep])), loop_w


def contract(g: CSR, cmap: np.ndarray, nc: int) -> tuple[CSR, np.ndarray]:
    """``g`` under the coarse-node map ``cmap`` (``nc`` coarse nodes):
    the coarse :class:`CSR`, with parallel edges summed, and the weight
    of the edges that became self-loops summed per coarse node in
    ``loop_w`` (each undirected edge counted twice)."""
    return _fold(nc, cmap[g.ev], cmap[g.indices], g.weights)


def adjacency_from_pandas(edges: pd.DataFrame) -> Adjacency:
    """Build an :class:`Adjacency` from an aggregated ``(src,dst,weight)``
    edge frame (canonical ``src <= dst``, unique pairs)."""
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    w = edges["weight"].to_numpy(np.float64)

    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    si, di = inv[: len(src)], inv[len(src) :]
    # Both directions: each self-loop row appears twice, so halving is exact.
    ev, eu = np.concatenate([si, di]), np.concatenate([di, si])
    g, loop_w = _fold(len(nodes), ev, eu, np.concatenate([w, w]))
    return Adjacency(g.indptr, g.indices, g.weights, nodes=nodes, self_w=loop_w / 2.0)
