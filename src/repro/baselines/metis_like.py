"""METIS-style multilevel k-way graph partitioner (baseline stand-in).

The graph-based baselines (Fynn et al., BrokerChain) all use METIS as the
backbone allocator (paper §II-C). METIS is a native C library that cannot
be installed offline, so this module implements the same three-phase
multilevel scheme from scratch. As in the library, matching and
refinement are compiled C (``repro/kernels.c``).

1. **Coarsening** — heavy-edge matching: visit nodes in ascending order,
   match each unmatched node with its heaviest unmatched neighbor;
   contract matched pairs and aggregate edges until the coarse graph is
   small (≤ max(8k, 64) nodes) or a level contracts nothing. There is no
   shrinkage-rate stop: on hub-centric graphs the ``max_vw`` guard lets
   a level match only a few nodes, so at k = 20 coarsening contracts 129
   levels at SF 0.1 and 399 at SF 0.5 (130 and 400 matching rounds, the
   last of which contracts nothing; ROADMAP item 1).
2. **Initial partition** — greedy graph growing on the coarsest graph:
   parts grow one at a time from the heaviest unassigned node, absorbing
   the frontier node most strongly connected to the part until it reaches
   its weight target or the balance cap; the last part takes the rest.
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

from repro import kernels
from repro.graph.adjacency import CSR, Adjacency, contract

IMBALANCE = 0.05  # part weight cap: (1 + IMBALANCE) x the even share
REFINE_PASSES = 4  # refinement passes per level


def _heavy_edge_matching(g: CSR, vw: np.ndarray, max_vw: float) -> np.ndarray:
    """Deterministic heavy-edge matching (``heavy_edge_matching`` in
    ``kernels.c``); returns coarse-node id per node.

    A match is rejected when the combined vertex weight would exceed
    ``max_vw`` — the standard METIS guard that keeps supernodes small
    enough for the initial partition to balance (without it, hub-centric
    transaction graphs collapse into one giant unsplittable supernode).
    """
    n, *csr_ptrs = kernels.csr_args(g)
    cmap = np.empty(n, dtype=np.int64)
    ptr = kernels.ptr
    kernels.lib.heavy_edge_matching(n, *csr_ptrs, ptr(vw, n), max_vw, ptr(cmap, n))
    return cmap


def _greedy_partition(g: CSR, vw: np.ndarray, k: int, cap: float) -> np.ndarray:
    """Initial k-way assignment on the coarsest graph.

    Greedy graph growing (METIS's GGGP): parts are grown one at a time
    from the heaviest unassigned seed, repeatedly absorbing the frontier
    node with the strongest connection to the part, until the part
    reaches its weight target. The last part takes the remainder.
    Deterministic (stable tie-breaks toward the smaller node index).
    """
    n, indptr, indices, weights = g.n, g.indptr, g.indices, g.weights
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


def _refine(labels: np.ndarray, g: CSR, vw: np.ndarray, k: int, cap: float) -> np.ndarray:
    """Boundary FM-style refinement (``refine`` in ``kernels.c``):
    positive-gain moves under the cap."""
    n, *csr_ptrs = kernels.csr_args(g)
    labels = np.array(labels, dtype=np.int64)
    part_w = np.bincount(labels, weights=vw, minlength=k)  # ValueError if a label < 0
    ptr = kernels.ptr
    if kernels.lib.refine(
        n, *csr_ptrs, ptr(vw, n), k, cap, REFINE_PASSES, ptr(labels, n), ptr(part_w, k)
    ):
        raise MemoryError("refine: out of memory")
    return labels


def metis_like(adj: Adjacency, k: int) -> np.ndarray:
    """Partition ``adj`` into ``k`` parts balancing weighted degree.

    Returns labels in ``[0, k)`` per node index. Deterministic.
    """
    vw = adj.strength + adj.self_w  # tx-participation weight of the account
    vw = np.maximum(vw, 1e-12)  # isolated nodes still occupy a slot
    cap = (1.0 + IMBALANCE) * vw.sum() / k
    target = max(8 * k, 64)

    g = adj
    # Each entry: (cmap to next level, this level's CSR and vertex weights).
    levels: list[tuple[np.ndarray, CSR, np.ndarray]] = []
    max_vw = vw.sum() / (4.0 * k)  # supernodes stay well under the part cap
    while g.n > target:
        cmap = _heavy_edge_matching(g, vw, max_vw)
        nc = int(cmap.max()) + 1
        if nc >= g.n:  # no contraction possible
            break
        levels.append((cmap, g, vw))
        g, _ = contract(g, cmap, nc)
        vw = np.bincount(cmap, weights=vw, minlength=nc)

    labels = _greedy_partition(g, vw, k, cap)
    labels = _refine(labels, g, vw, k, cap)

    # Project back through the levels, refining at each.
    for cmap, g, vw in reversed(levels):
        labels = _refine(labels[cmap], g, vw, k, cap)
    return labels
