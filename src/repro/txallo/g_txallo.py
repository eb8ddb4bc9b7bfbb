"""G-TxAllo — Algorithm 1 of the paper, run through Algorithm 2's engine.

1. **Initialization** (line 1): Louvain produces ``l`` communities
   (data-driven, usually ``l > k``). The ``k`` largest by workload σ
   become shards ``0..k-1``; every node of the remaining small
   communities starts unassigned (``-1``).
2. **Absorb and optimize** (lines 2-19): the same procedure as
   A-TxAllo with V̂ = V, so :func:`~repro.txallo.a_txallo.a_txallo`
   runs it over every node: the unassigned nodes are absorbed into the
   shard with the largest *join* gain (Eq. 6; the emptied small
   communities are irrelevant to Λ, so the leave side is skipped), then
   local-move sweeps over all nodes move each node to the candidate
   community (Eq. 9) with the largest positive total gain (Eq. 8) until
   the per-sweep ΔΛ drops below ε = 1e-5·|T|.

Deterministic: fixed sweep order, first-max tie-breaking toward the
smallest shard label.
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.louvain import louvain
from repro.metrics.graphlevel import community_state
from repro.txallo.a_txallo import a_txallo


def _rank_communities(init: np.ndarray, sigma_init: np.ndarray, k: int) -> np.ndarray:
    """Map Louvain labels to shard labels: the k largest-σ communities get
    labels 0..k-1 (by descending σ, ties by original label); the rest -1."""
    order = np.argsort(-sigma_init, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    shard_of_comm = np.where(rank < k, rank, -1)
    return shard_of_comm[init]


def g_txallo(adj: Adjacency, *, k: int, eta: float, lam: float) -> np.ndarray:
    """Run Algorithm 1; returns shard labels in ``[0, k)`` per node index."""
    init = louvain(adj)
    n_comm = int(init.max()) + 1 if len(init) else 0
    sigma_init, _ = community_state(adj, init, n_comm, eta=eta)
    ranked = _rank_communities(init, sigma_init, k)
    return a_txallo(adj, ranked, np.arange(adj.n), k=k, eta=eta, lam=lam)
