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

from repro.graph.adjacency import Adjacency, csr


def modularity(adj: Adjacency, labels: np.ndarray) -> float:
    """Newman modularity Q of a labeling, for tests and sanity checks."""
    labels = np.asarray(labels)
    deg = adj.strength + 2.0 * adj.self_w
    m2 = deg.sum()
    if m2 == 0:
        return 0.0
    intra2 = adj.ew[labels[adj.ev] == labels[adj.eu]].sum()  # 2x intra (no self)
    intra = intra2 / 2.0 + adj.self_w.sum()
    n_comm = int(labels.max()) + 1
    comm_deg = np.bincount(labels, weights=deg, minlength=n_comm)
    return float(2.0 * intra / m2 - np.sum((comm_deg / m2) ** 2))


def _sweep_until_stable(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    deg: np.ndarray,
    m2: float,
    max_sweeps: int,
) -> tuple[np.ndarray, bool]:
    """Run local-move sweeps on one level; returns (labels, any_move)."""
    n = len(indptr) - 1
    labels = np.arange(n, dtype=np.int64)
    comm_deg = deg.copy()
    any_move = False
    for _ in range(max_sweeps):
        moved = 0
        for v in range(n):
            lo, hi = indptr[v], indptr[v + 1]
            nbr = indices[lo:hi]
            w = weights[lo:hi]
            c_old = labels[v]
            comm_deg[c_old] -= deg[v]
            if nbr.size:
                labs = labels[nbr]
                uniq, inv = np.unique(labs, return_inverse=True)
                wsum = np.bincount(inv, weights=w)
                gains = wsum - deg[v] * comm_deg[uniq] / m2
                j = int(np.argmax(gains))  # first max -> smallest label wins ties
                best, best_gain = int(uniq[j]), float(gains[j])
            else:
                best, best_gain = c_old, -np.inf
            own_pos = np.searchsorted(uniq, c_old) if nbr.size else 0
            if nbr.size and own_pos < len(uniq) and uniq[own_pos] == c_old:
                own_gain = float(gains[own_pos])
            else:
                own_gain = -deg[v] * comm_deg[c_old] / m2
            if best_gain > own_gain + 1e-12 and best != c_old:
                labels[v] = best
                comm_deg[best] += deg[v]
                moved += 1
            else:
                comm_deg[c_old] += deg[v]
        if moved:
            any_move = True
        else:
            break
    return labels, any_move


def _coarsen(
    labels: np.ndarray,
    ev: np.ndarray,
    eu: np.ndarray,
    ew: np.ndarray,
    self_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate communities into supernodes; returns compacted
    (node_map, ev, eu, ew, self_w) of the coarse graph."""
    uniq, node_map = np.unique(labels, return_inverse=True)
    nc = len(uniq)
    cev, ceu = node_map[ev], node_map[eu]
    loop = cev == ceu
    coarse_self = np.bincount(node_map, weights=self_w, minlength=nc)
    coarse_self += np.bincount(cev[loop], weights=ew[loop], minlength=nc) / 2.0
    keep = ~loop
    cev, ceu, kw = cev[keep], ceu[keep], ew[keep]
    key = cev.astype(np.int64) * nc + ceu
    uk, inv = np.unique(key, return_inverse=True)
    agg_w = np.bincount(inv, weights=kw)
    return node_map, (uk // nc), (uk % nc), agg_w, coarse_self


def louvain(adj: Adjacency, *, max_levels: int = 20, max_sweeps: int = 20) -> np.ndarray:
    """Community labels (compact, 0-based) for every node of ``adj``.

    Deterministic; the number of communities is data-driven (typically
    ≫ k for long-tailed transaction graphs, per the paper §V-B).
    """
    n = adj.n
    ev, eu, ew = adj.ev.copy(), adj.eu.copy(), adj.ew.copy()
    self_w = adj.self_w.copy()
    result = np.arange(n, dtype=np.int64)

    for _ in range(max_levels):
        nn = len(self_w)
        deg = np.bincount(ev, weights=ew, minlength=nn) + 2.0 * self_w
        m2 = float(deg.sum())
        if m2 <= 0:
            break
        indptr, indices, weights = csr(nn, ev, eu, ew)
        labels, any_move = _sweep_until_stable(
            indptr, indices, weights, deg, m2, max_sweeps
        )
        node_map, ev, eu, ew, self_w = _coarsen(labels, ev, eu, ew, self_w)
        result = _compose(result, labels, node_map)
        if not any_move or len(self_w) == nn:
            break
    # Compact final labels to 0..n_comm-1 preserving order of first use.
    _, compact = np.unique(result, return_inverse=True)
    return compact


def _compose(result: np.ndarray, labels: np.ndarray, node_map: np.ndarray) -> np.ndarray:
    """original node -> current coarse node, through this level's moves."""
    return node_map[labels[result]]
