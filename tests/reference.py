"""References the tests compare the program against; ``repro`` calls none.

The gain math reads a :class:`~repro.txallo.state.TxAlloState`'s public
fields in numpy. ``TxAlloState.sweep`` evaluates the same expressions in
the same order in C (``txallo_sweep`` in ``repro/kernels.c``), so its
decisions are bit-identical; ties go to the smallest shard label in both.
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.metrics.blockchain import AllocationMetrics, rollup
from repro.metrics.formulas import clip_throughput, rho
from repro.metrics.graphlevel import community_state
from repro.spark import collect_stats


def throughput(state) -> float:
    """Current Λ = Σ_q Λ_q with the capacity clip (Eqs. 2-3)."""
    return float(clip_throughput(state.sigma, state.lam_hat, state.lam).sum())


def neighbor_communities(state, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate communities ℂ_v (Eq. 9) and their weights w_{v,q}.

    Returns the sorted community labels that v connects to (excluding
    v's own community and unassigned neighbors) and the corresponding
    weight. ``w_own`` is :func:`own_weight`.
    """
    lo, hi = state.adj.indptr[v], state.adj.indptr[v + 1]
    nbr, w = state.adj.indices[lo:hi], state.adj.weights[lo:hi]
    labs = state.labels[nbr]
    ok = labs >= 0
    labs, w = labs[ok], w[ok]
    uniq, inv = np.unique(labs, return_inverse=True)
    wsum = np.bincount(inv, weights=w)
    own = state.labels[v]
    keep = uniq != own
    return uniq[keep], wsum[keep]


def own_weight(state, v: int) -> float:
    """w_{v, V_p \\ v}: weight from v to other members of its community."""
    lo, hi = state.adj.indptr[v], state.adj.indptr[v + 1]
    nbr, w = state.adj.indices[lo:hi], state.adj.weights[lo:hi]
    return float(w[state.labels[nbr] == state.labels[v]].sum())


def _clip(state, sigma, lam_hat):
    return clip_throughput(sigma, lam_hat, state.lam)


def join_gain(state, v: int, targets: np.ndarray, w_vq: np.ndarray) -> np.ndarray:
    """Δ_join Λ_q for joining each target community (Eq. 6), vectorized."""
    s_v = state.adj.strength[v]
    w_vv = state.adj.self_w[v]
    sig_q = state.sigma[targets]
    lh_q = state.lam_hat[targets]
    sig_q2 = sig_q + w_vv + state.eta * (s_v - w_vq) + (1.0 - state.eta) * w_vq
    lh_q2 = lh_q + w_vv + s_v / 2.0
    return _clip(state, sig_q2, lh_q2) - _clip(state, sig_q, lh_q)


def leave_gain(state, v: int) -> float:
    """Δ_leave Λ_p for v leaving its current community (§V-B)."""
    p = state.labels[v]
    if p < 0:
        return 0.0
    s_v = state.adj.strength[v]
    w_vv = state.adj.self_w[v]
    w_vp = own_weight(state, v)
    sig_p, lh_p = state.sigma[p], state.lam_hat[p]
    sig_p2 = sig_p - w_vv - state.eta * (s_v - w_vp) - (1.0 - state.eta) * w_vp
    lh_p2 = lh_p - w_vv - s_v / 2.0
    return float(_clip(state, sig_p2, lh_p2) - _clip(state, sig_p, lh_p))


def move_gain(state, v: int, targets: np.ndarray, w_vq: np.ndarray) -> np.ndarray:
    """Δ_(v,p,q) Λ = Δ_leave Λ_p + Δ_join Λ_q (Eq. 8), per target."""
    return leave_gain(state, v) + join_gain(state, v, targets, w_vq)


def graph_gamma(adj: Adjacency, labels: np.ndarray) -> float:
    """Inter-community weight ratio (graph-level γ, §III-C).

    Note this is the *edge-weight* ratio; the transaction-level γ reported
    in the evaluation counts whole transactions and is computed by
    :mod:`repro.metrics.blockchain`. The two coincide when every
    transaction has exactly two accounts.
    """
    labels = np.asarray(labels)
    cross = labels[adj.ev] != labels[adj.indices]
    cut_w = adj.weights[cross].sum() / 2.0
    total = adj.total_weight
    return float(cut_w / total) if total else 0.0


def graph_metrics(
    adj: Adjacency, labels: np.ndarray, k: int, *, eta: float, lam: float
) -> dict[str, float]:
    """Rollup of graph-level σ/Λ̂ into Λ, ρ, γ."""
    sigma, lam_hat = community_state(adj, labels, k, eta=eta)
    lam_i = clip_throughput(sigma, lam_hat, lam)
    return {
        "throughput": float(lam_i.sum()),
        "norm_throughput": float(lam_i.sum() / lam),
        "rho": rho(sigma),
        "gamma": graph_gamma(adj, labels),
    }


def modularity(adj: Adjacency, labels: np.ndarray) -> float:
    """Newman modularity Q of a labeling."""
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


def evaluate(
    tx_df, alloc_df, *, k: int, eta: float, lam: float | None = None
) -> AllocationMetrics:
    """Evaluate the one allocation of ``alloc_df`` on a stream (Spark path).

    ``lam`` defaults to the paper's setting λ = |T|/k (§VI-B1), under
    which a perfectly balanced all-intra allocation has Λ/λ = k.
    """
    (stats,) = collect_stats(tx_df, alloc_df).values()
    return rollup(*stats, k=k, eta=eta, lam=lam)
