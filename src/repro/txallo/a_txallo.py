"""A-TxAllo — Algorithm 2 of the paper.

Adaptive update: instead of re-optimizing every node, only the nodes V̂
appearing in the newly committed blocks are processed against the
previous allocation. Brand-new accounts are first absorbed by max join
gain (Eq. 6); then local-move sweeps run over V̂ only (Eq. 8) until the
accumulated gain drops below ε. Complexity is O(|V̂|·k) — constant in
blockchain size for a fixed update gap τ₁ (§V-C).
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.txallo.g_txallo import _assign_by_join, _optimize
from repro.txallo.state import TxAlloState

MAX_SWEEPS = 100  # cap on the local-move sweeps over V-hat


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


def a_txallo(
    adj: Adjacency,
    prev_labels: np.ndarray,
    hot_nodes: np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float,
    eps: float | None = None,
) -> np.ndarray:
    """Run Algorithm 2; returns shard labels in ``[0, k)`` per node index.

    ``prev_labels`` is aligned with ``adj.nodes`` (``-1`` = new account,
    see :func:`map_prev_labels`); ``hot_nodes`` are the node indices V̂
    that appear in the newly committed blocks. Every ``-1`` node must be
    in ``hot_nodes`` (a node cannot be new without a new transaction).
    """
    prev_labels = np.asarray(prev_labels, dtype=np.int64)
    hot = np.unique(np.asarray(hot_nodes, dtype=np.int64))
    if eps is None:
        eps = 1e-5 * adj.total_weight

    unassigned = np.nonzero(prev_labels < 0)[0]
    if not np.isin(unassigned, hot).all():
        raise ValueError("unassigned nodes outside V-hat: stale previous mapping")

    state = TxAlloState(adj, prev_labels, k, eta=eta, lam=lam)
    new_nodes = hot[prev_labels[hot] < 0]  # ascending order => deterministic
    _assign_by_join(state, new_nodes)
    _optimize(state, hot, eps, MAX_SWEEPS)
    return state.labels
