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

from repro.graph.adjacency import Adjacency, contract, csr, label_weights

MAX_LEVELS = 20  # coarsening levels
MAX_SWEEPS = 20  # local-move sweeps per level


def modularity(adj: Adjacency, labels: np.ndarray) -> float:
    """Newman modularity Q of a labeling, for tests and sanity checks."""
    labels = np.asarray(labels)
    deg = adj.strength + 2.0 * adj.self_w
    m2 = deg.sum()
    if m2 == 0:
        return 0.0
    intra2 = adj.weights[labels[adj.ev] == labels[adj.indices]].sum()  # 2x intra (no self)
    intra = intra2 / 2.0 + adj.self_w.sum()
    n_comm = int(labels.max()) + 1
    comm_deg = np.bincount(labels, weights=deg, minlength=n_comm)
    return float(2.0 * intra / m2 - np.sum((comm_deg / m2) ** 2))


def _sweep_until_stable(
    indptr: list, indices: list, weights: list, deg: list, m2: float
) -> tuple[np.ndarray, bool]:
    """Run local-move sweeps on one level; returns (labels, any_move)."""
    n = len(indptr) - 1
    labels = list(range(n))
    comm_deg = list(deg)
    any_move = False
    for _ in range(MAX_SWEEPS):
        moved = 0
        for v in range(n):
            acc = label_weights(v, indptr, indices, weights, labels)
            dv = deg[v]
            c_old = labels[v]
            comm_deg[c_old] -= dv
            own_gain = acc.get(c_old, 0.0) - dv * comm_deg[c_old] / m2
            best, best_gain = c_old, -np.inf
            for c in sorted(acc):  # strict > keeps the smallest label on ties
                gain = acc[c] - dv * comm_deg[c] / m2
                if gain > best_gain:
                    best, best_gain = c, gain
            if best_gain > own_gain + 1e-12 and best != c_old:
                labels[v] = best
                comm_deg[best] += dv
                moved += 1
            else:
                comm_deg[c_old] += dv
        if moved:
            any_move = True
        else:
            break
    return np.array(labels, dtype=np.int64), any_move


def louvain(adj: Adjacency) -> np.ndarray:
    """Community labels (compact, 0-based) for every node of ``adj``.

    Deterministic; the number of communities is data-driven (typically
    ≫ k for long-tailed transaction graphs, per the paper §V-B).
    """
    ev, eu, ew = adj.ev, adj.indices, adj.weights
    self_w = adj.self_w
    result = np.arange(adj.n, dtype=np.int64)

    for _ in range(MAX_LEVELS):
        nn = len(self_w)
        deg = np.bincount(ev, weights=ew, minlength=nn) + 2.0 * self_w
        m2 = float(deg.sum())
        if m2 <= 0:
            break
        indptr, indices, weights = csr(nn, ev, eu, ew)
        labels, any_move = _sweep_until_stable(
            indptr.tolist(), indices.tolist(), weights.tolist(), deg.tolist(), m2
        )
        # Communities become supernodes; intra edges fold into self-loops.
        uniq, node_map = np.unique(labels, return_inverse=True)
        ev, eu, ew, loop_w = contract(node_map, len(uniq), ev, eu, ew)
        self_w = np.bincount(node_map, weights=self_w, minlength=len(uniq)) + loop_w / 2.0
        result = node_map[labels[result]]
        if not any_move or len(self_w) == nn:
            break
    # Compact final labels to 0..n_comm-1 preserving order of first use.
    _, compact = np.unique(result, return_inverse=True)
    return compact
