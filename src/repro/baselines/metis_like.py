"""METIS-style multilevel k-way graph partitioner (baseline stand-in).

The graph-based baselines (Fynn et al., BrokerChain) all use METIS as the
backbone allocator (paper §II-C). METIS is a native C library that cannot
be installed offline, so this module implements the same three-phase
multilevel scheme from scratch:

1. **Coarsening** — heavy-edge matching: visit nodes in ascending order,
   match each unmatched node with its heaviest unmatched neighbor;
   contract matched pairs and aggregate edges until the coarse graph is
   small (≤ max(8k, 64) nodes) or shrinkage stalls.
2. **Initial partition** — greedy k-way growth on the coarsest graph:
   nodes in descending vertex-weight order go to the part with the
   highest edge affinity among parts under the balance cap, falling back
   to the lightest part.
3. **Uncoarsening + refinement** — project labels level by level and run
   boundary FM-style passes: move a node to the neighboring part with the
   best edge-cut gain when the move keeps the part under the cap.

Crucially (and per the paper's critique, §II-C), balance is on **vertex
weight** — an account's weighted degree, i.e. how many transactions touch
it — not on the blockchain workload σ, which depends on how many
transactions *become* cross-shard. This is why METIS's hub shard
overloads in Fig. 4b while its weights are balanced.
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency, csr


def _heavy_edge_matching(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vw: np.ndarray,
    max_vw: float,
) -> np.ndarray:
    """Deterministic heavy-edge matching; returns coarse-node id per node.

    A match is rejected when the combined vertex weight would exceed
    ``max_vw`` — the standard METIS guard that keeps supernodes small
    enough for the initial partition to balance (without it, hub-centric
    transaction graphs collapse into one giant unsplittable supernode).
    """
    match = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if match[v] >= 0:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        nbr, w = indices[lo:hi], weights[lo:hi]
        ok = (match[nbr] < 0) & (nbr != v) & (vw[nbr] + vw[v] <= max_vw)
        nbr, w = nbr[ok], w[ok]
        if nbr.size:
            u = int(nbr[np.argmax(w)])  # first max -> smallest index tie-break
            match[v] = v
            match[u] = v
        else:
            match[v] = v
    _, compact = np.unique(match, return_inverse=True)
    return compact


def _contract(
    cmap: np.ndarray,
    ev: np.ndarray,
    eu: np.ndarray,
    ew: np.ndarray,
    vw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate the graph under a coarse-node map; drops self-edges
    (irrelevant to edge-cut) and sums vertex weights."""
    nc = int(cmap.max()) + 1
    cvw = np.bincount(cmap, weights=vw, minlength=nc)
    cev, ceu = cmap[ev], cmap[eu]
    keep = cev != ceu
    cev, ceu, kw = cev[keep], ceu[keep], ew[keep]
    key = cev.astype(np.int64) * nc + ceu
    uk, inv = np.unique(key, return_inverse=True)
    agg = np.bincount(inv, weights=kw)
    return (uk // nc), (uk % nc), agg, cvw


def _greedy_partition(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vw: np.ndarray,
    k: int,
    cap: float,
) -> np.ndarray:
    """Initial k-way assignment on the coarsest graph.

    Greedy graph growing (METIS's GGGP): parts are grown one at a time
    from the heaviest unassigned seed, repeatedly absorbing the frontier
    node with the strongest connection to the part, until the part
    reaches its weight target. The last part takes the remainder.
    Deterministic (stable tie-breaks toward the smaller node index).
    """
    labels = np.full(n, -1, dtype=np.int64)
    target = vw.sum() / k
    for part in range(k):
        free = np.nonzero(labels < 0)[0]
        if free.size == 0:
            break
        if part == k - 1:
            labels[free] = part
            break
        seed = int(free[np.argmax(vw[free])])
        labels[seed] = part
        part_w = float(vw[seed])
        # Frontier gains: connection weight from each unassigned node
        # into the growing part.
        gain = np.zeros(n)
        blocked = labels >= 0
        lo, hi = indptr[seed], indptr[seed + 1]
        np.add.at(gain, indices[lo:hi], weights[lo:hi])
        while part_w < target:
            cand = np.nonzero(~blocked & (gain > 0))[0]
            if cand.size == 0:
                # Disconnected remainder: seed again from the heaviest.
                rest = np.nonzero(labels < 0)[0]
                if rest.size == 0:
                    break
                v = int(rest[np.argmax(vw[rest])])
            else:
                v = int(cand[np.argmax(gain[cand])])
            if part_w + vw[v] > cap:
                # Would blow the balance cap — stop growing this part.
                break
            labels[v] = part
            blocked[v] = True
            part_w += float(vw[v])
            lo, hi = indptr[v], indptr[v + 1]
            np.add.at(gain, indices[lo:hi], weights[lo:hi])
    return labels


def _refine(
    labels: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vw: np.ndarray,
    k: int,
    cap: float,
    passes: int,
) -> np.ndarray:
    """Boundary FM-style refinement: positive-gain moves under the cap."""
    n = len(labels)
    part_w = np.bincount(labels, weights=vw, minlength=k)
    for _ in range(passes):
        moved = 0
        for v in range(n):
            lo, hi = indptr[v], indptr[v + 1]
            nbr, w = indices[lo:hi], weights[lo:hi]
            if not nbr.size:
                continue
            p = labels[v]
            labs = labels[nbr]
            if (labs == p).all():
                continue
            uniq, inv = np.unique(labs, return_inverse=True)
            wsum = np.bincount(inv, weights=w)
            own = float(wsum[uniq == p].sum())
            gains = wsum - own
            fits = part_w[uniq] + vw[v] <= cap
            cand = (uniq != p) & fits & (gains > 1e-12)
            if not cand.any():
                continue
            j = int(np.argmax(np.where(cand, gains, -np.inf)))
            q = int(uniq[j])
            part_w[p] -= vw[v]
            part_w[q] += vw[v]
            labels[v] = q
            moved += 1
        if not moved:
            break
    return labels


def metis_like(
    adj: Adjacency,
    k: int,
    *,
    imbalance: float = 0.05,
    coarsen_to: int | None = None,
    refine_passes: int = 4,
) -> np.ndarray:
    """Partition ``adj`` into ``k`` parts balancing weighted degree.

    Returns labels in ``[0, k)`` per node index. Deterministic.
    """
    vw = adj.strength + adj.self_w  # tx-participation weight of the account
    vw = np.maximum(vw, 1e-12)  # isolated nodes still occupy a slot
    cap = (1.0 + imbalance) * vw.sum() / k
    target = coarsen_to or max(8 * k, 64)

    ev, eu, ew = adj.ev, adj.eu, adj.ew
    n = adj.n
    # Each entry: (cmap to next level, this level's graph + vertex weights).
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    cur_vw = vw
    max_vw = vw.sum() / (4.0 * k)  # supernodes stay well under the part cap
    while n > target:
        indptr, indices, weights = csr(n, ev, eu, ew)
        cmap = _heavy_edge_matching(n, indptr, indices, weights, cur_vw, max_vw)
        nc = int(cmap.max()) + 1
        if nc >= n:  # no contraction possible
            break
        levels.append((cmap, ev, eu, ew, cur_vw))
        ev, eu, ew, cur_vw = _contract(cmap, ev, eu, ew, cur_vw)
        n = nc

    indptr, indices, weights = csr(n, ev, eu, ew)
    labels = _greedy_partition(n, indptr, indices, weights, cur_vw, k, cap)
    labels = _refine(labels, indptr, indices, weights, cur_vw, k, cap, refine_passes)

    # Project back through the levels, refining at each.
    for cmap, ev_i, eu_i, ew_i, vw_i in reversed(levels):
        labels = labels[cmap]
        indptr, indices, weights = csr(len(labels), ev_i, eu_i, ew_i)
        labels = _refine(labels, indptr, indices, weights, vw_i, k, cap, refine_passes)
    return labels
