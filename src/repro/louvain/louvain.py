"""Deterministic weighted Louvain (Blondel et al. 2008) on CSR arrays.

G-TxAllo's initialization phase (Algorithm 1, line 1) runs Louvain on the
transaction graph. The paper requires determinism (§IV-A): every miner
must derive the identical community structure with no coordination. This
implementation is deterministic given the node order — nodes are swept in
ascending node-index order (node ids are sorted account ids) and ties are
broken toward the smallest community label.

Standard modularity conventions: node degree ``k_v = s_v + 2·w_{v,v}``
(self-loops count twice), ``2m = Σ k_v``; local move gain for community C
(with v removed) is ``w_{v,C} - k_v·Σ_tot(C)/2m`` (modularity gain × m).
Levels coarsen communities into supernodes until a sweep makes no moves.
"""
from __future__ import annotations

import numpy as np

from repro import kernels
from repro.graph.adjacency import CSR, Adjacency, contract

MAX_LEVELS = 20  # coarsening levels
MAX_SWEEPS = 20  # local-move sweeps per level


def _sweep_until_stable(g: CSR, deg: np.ndarray, m2: float) -> np.ndarray:
    """Run at most ``MAX_SWEEPS`` local-move sweeps on one level
    (``louvain_sweep`` in ``kernels.c``); returns each node's label, the
    index of the node whose community it joined."""
    n, *csr_ptrs = kernels.csr_args(g)
    labels = np.empty(n, dtype=np.int64)
    ptr = kernels.ptr
    if kernels.lib.louvain_sweep(n, *csr_ptrs, ptr(deg, n), m2, MAX_SWEEPS, ptr(labels, n)):
        raise MemoryError("louvain_sweep: out of memory")
    return labels


def louvain(adj: Adjacency) -> np.ndarray:
    """Community labels (compact, 0-based) for every node of ``adj``.

    Deterministic; the number of communities is data-driven (typically
    ≫ k for long-tailed transaction graphs, per the paper §V-B). Each
    level numbers its communities in ascending order of their labels; a
    node's final label is the community, at the last level, of the
    supernode that holds it.
    """
    g, self_w = adj, adj.self_w
    result = np.arange(adj.n, dtype=np.int64)

    for _ in range(MAX_LEVELS):
        nn = g.n
        deg = g.strength + 2.0 * self_w
        m2 = float(deg.sum())
        if m2 <= 0:
            break
        labels = _sweep_until_stable(g, deg, m2)
        # Communities become supernodes; intra edges fold into self-loops.
        uniq, node_map = np.unique(labels, return_inverse=True)
        g, loop_w = contract(g, node_map, len(uniq))
        self_w = np.bincount(node_map, weights=self_w, minlength=len(uniq)) + loop_w / 2.0
        result = node_map[result]
        if g.n == nn:  # no node moved: a move never refills an emptied community
            break
    return result
