"""A-TxAllo — Algorithm 2 of the paper, and the one absorb-and-sweep
engine that G-TxAllo (Algorithm 1) runs too.

Adaptive update: instead of re-optimizing every node, only the nodes V̂
appearing in the newly committed blocks are processed against the
previous allocation. Brand-new accounts are first absorbed by max join
gain (Eq. 6, in ascending node order); then local-move sweeps run over V̂
in ascending node order (Eq. 8) until the per-sweep accumulated gain
ΔΛ drops below ε = 1e-5·|T| (|T| = the graph's total weight) or
``MAX_SWEEPS`` sweeps have run. G-TxAllo's absorb and optimization
phases (Alg. 1 lines 2-19) are this procedure with V̂ = V and the
Louvain-ranked mapping as the previous one.

Cost per call: the sweeps touch V̂ and its neighbourhoods only, but the
:class:`~repro.txallo.state.TxAlloState` set-up is O(N+E) — a
from-scratch (σ, Λ̂) and list copies of the whole CSR — so a step's time
grows with the history, unlike §V-C's O(|V̂|·k).
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.txallo.state import TxAlloState

MAX_SWEEPS = 100  # cap on the local-move sweeps


def map_prev_labels(
    adj: Adjacency, prev_accounts: np.ndarray, prev_labels: np.ndarray
) -> np.ndarray:
    """Align a previous (account -> shard) mapping onto ``adj.nodes``.

    Returns a label array for the new graph's node indexing with ``-1``
    for accounts that did not exist at the previous update.
    """
    out = np.full(adj.n, -1, dtype=np.int64)
    if len(prev_accounts) == 0:
        return out
    idx = np.searchsorted(prev_accounts, adj.nodes)
    idx_c = np.minimum(idx, len(prev_accounts) - 1)
    hit = prev_accounts[idx_c] == adj.nodes
    out[hit] = prev_labels[idx_c[hit]]
    return out


def _assign_by_join(state: TxAlloState, nodes: np.ndarray) -> None:
    """Absorb unassigned nodes by max join gain (Alg. 1 lines 2-9 /
    Alg. 2 lines 1-8). ℂ_v = connected shards, or all k when none."""
    for v in nodes:
        r = state.best_move(int(v), join_only=True)
        if r is None:
            continue
        q, _gain, w_vq, w_vp = r
        state.move(int(v), q, w_vq, w_vp)


def _optimize(state: TxAlloState, nodes: np.ndarray, eps: float) -> int:
    """Local-move sweeps (Alg. 1 lines 10-19 / Alg. 2 lines 9-18);
    returns the sweeps executed."""
    sweeps = 0
    delta = np.inf
    while delta >= eps and sweeps < MAX_SWEEPS:
        delta = 0.0
        for v in nodes:
            r = state.best_move(int(v))
            if r is None:
                continue
            q, gain, w_vq, w_vp = r
            if gain > 0.0:
                state.move(int(v), q, w_vq, w_vp)
                delta += gain
        sweeps += 1
    return sweeps


def a_txallo(
    adj: Adjacency,
    prev_labels: np.ndarray,
    hot_nodes: np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float,
) -> np.ndarray:
    """Run Algorithm 2; returns shard labels in ``[0, k)`` per node index.

    ``prev_labels`` is aligned with ``adj.nodes`` (``-1`` = new account,
    see :func:`map_prev_labels`); ``hot_nodes`` are the node indices V̂
    that appear in the newly committed blocks. Every ``-1`` node must be
    in ``hot_nodes`` (a node cannot be new without a new transaction).
    """
    prev_labels = np.asarray(prev_labels, dtype=np.int64)
    hot = np.unique(np.asarray(hot_nodes, dtype=np.int64))

    unassigned = np.nonzero(prev_labels < 0)[0]
    if not np.isin(unassigned, hot).all():
        raise ValueError("unassigned nodes outside V-hat: stale previous mapping")

    state = TxAlloState(adj, prev_labels, k, eta=eta, lam=lam)
    new_nodes = hot[prev_labels[hot] < 0]  # ascending order => deterministic
    _assign_by_join(state, new_nodes)
    _optimize(state, hot, 1e-5 * adj.total_weight)  # the paper's ε = 1e-5·|T|
    return state.labels
