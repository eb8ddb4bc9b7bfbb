"""A-TxAllo — Algorithm 2 of the paper, and the one absorb-and-sweep
engine that G-TxAllo (Algorithm 1) runs too.

Adaptive update: instead of re-optimizing every node, only the nodes V̂
appearing in the newly committed blocks are processed against the previous
allocation. Brand-new accounts are first absorbed by max join gain (Eq. 6, in
ascending node order); then local-move sweeps run over V̂ in ascending node
order (Eq. 8) until the per-sweep accumulated gain ΔΛ drops below ε = 1e-5·|T|
(|T| = the graph's total weight) or ``MAX_SWEEPS`` sweeps have run. G-TxAllo's
absorb and optimization phases (Alg. 1 lines 2-19) are this procedure with
V̂ = V and the Louvain-ranked mapping as the previous one.

Both phases run through :meth:`~repro.txallo.state.TxAlloState.sweep`,
one compiled pass per call (``txallo_sweep`` in ``repro/kernels.c``) on
the adjacency's arrays, read in place, and the per-shard (σ, Λ̂) and
clipped Λ that a move updates for its source and target shard only
(Lemma 1).

Cost per call: the sweeps touch V̂ and its neighbourhoods only, but the
:class:`~repro.txallo.state.TxAlloState` set-up is still O(N+E) — a
from-scratch (σ, Λ̂) in ``community_state`` and the strengths s_v (the
CSR was checked once, when the graph was built) — so a step's time grows
with the history, unlike §V-C's O(|V̂|·k).
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.txallo.state import TxAlloState

MAX_SWEEPS = 100  # cap on the local-move sweeps
LABEL_DTYPE = np.int16  # shard labels and -1 for k <= 32768: a quarter of int64's memory


def map_prev_labels(
    adj: Adjacency, prev_accounts: np.ndarray, prev_labels: np.ndarray
) -> np.ndarray:
    """Align a previous (account -> shard) mapping onto ``adj.nodes``.

    Returns :data:`LABEL_DTYPE` labels in the new graph's node order, ``-1``
    for accounts that did not exist at the previous update. Graphs only
    grow, so every previous account is in ``adj``; ``KeyError`` if one is not.
    """
    out = np.full(adj.n, -1, dtype=LABEL_DTYPE)
    out[adj.index_of(prev_accounts)] = prev_labels
    return out


def a_txallo(
    adj: Adjacency,
    prev_labels: np.ndarray,
    hot_nodes: np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float,
) -> np.ndarray:
    """Run Algorithm 2; returns :data:`LABEL_DTYPE` shard labels in ``[0, k)`` per node.

    ``prev_labels`` is aligned with ``adj.nodes`` (``-1`` = new account,
    see :func:`map_prev_labels`); ``hot_nodes`` are the node indices V̂
    that appear in the newly committed blocks, of any integer dtype.
    Every ``-1`` node must be in ``hot_nodes`` (a node cannot be new
    without a new transaction).
    """
    if k > np.iinfo(LABEL_DTYPE).max + 1:
        raise ValueError(f"k={k} shards do not fit {np.dtype(LABEL_DTYPE).name} labels")
    prev_labels = np.asarray(prev_labels)
    hot = np.unique(np.asarray(hot_nodes, dtype=np.int64))
    if len(hot) and not 0 <= hot[0] <= hot[-1] < adj.n:
        raise ValueError(f"V-hat node indices must lie in [0, {adj.n})")

    unassigned = np.nonzero(prev_labels < 0)[0]
    if not np.isin(unassigned, hot).all():
        raise ValueError("unassigned nodes outside V-hat: stale previous mapping")

    state = TxAlloState(adj, prev_labels, k, eta=eta, lam=lam)
    # Absorb the new nodes (Alg. 1 lines 2-9 / Alg. 2 lines 1-8), then
    # sweep V̂ (lines 10-19 / 9-18), both in ascending order.
    state.sweep(hot[prev_labels[hot] < 0], join_only=True)
    eps = 1e-5 * adj.total_weight  # the paper's ε = 1e-5·|T|
    sweeps, delta = 0, np.inf
    while delta >= eps and sweeps < MAX_SWEEPS:
        delta = state.sweep(hot)
        sweeps += 1
    return state.labels.astype(LABEL_DTYPE)
