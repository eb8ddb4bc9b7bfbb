"""References the tests compare the program against; ``repro`` calls none.

:func:`shard_scheduler` is the Python loop that ``shard_scheduler`` in
``repro/kernels.c`` runs; the kernel's shards and counts equal it exactly.
The gain math reads a :class:`~repro.txallo.state.TxAlloState`'s public
fields in numpy. ``TxAlloState.sweep`` evaluates the same expressions in
the same order in C (``txallo_sweep`` in ``repro/kernels.c``), so its
decisions are bit-identical; ties go to the smallest shard label in both.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.shard_scheduler import BUFFER_RATIO
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
    tx_df, accounts, labels, *, k: int, eta: float, lam: float | None = None
) -> AllocationMetrics:
    """Evaluate one allocation on a stream (Spark path): ``labels[i]`` is
    the shard of account ``accounts[i]``.

    ``lam`` defaults to the paper's setting λ = |T|/k (§VI-B1), under
    which a perfectly balanced all-intra allocation has Λ/λ = k.
    """
    (stats,) = collect_stats(tx_df, accounts, [labels]).values()
    return rollup(*stats, k=k, eta=eta, lam=lam)


def index_of(nodes: np.ndarray, accounts: np.ndarray) -> np.ndarray:
    """Positions of ``accounts`` in the sorted id array ``nodes`` by binary
    search, as :func:`repro.graph.adjacency.index_of` finds them by hash;
    ``KeyError`` if absent."""
    idx = np.searchsorted(nodes, accounts)
    missing = (idx >= len(nodes)) | (nodes[np.minimum(idx, len(nodes) - 1)] != accounts)
    if missing.any():
        raise KeyError(f"accounts not in graph: {np.asarray(accounts)[missing][:5]}...")
    return idx


def shard_scheduler(
    tx_pdf: pd.DataFrame, k: int, *, eta: float, lam: float
) -> tuple[dict[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The Shard Scheduler's per-transaction loop in Python: the final
    ``{account: shard}`` map and the streaming ``(shard, mu, count)``
    table, as :func:`repro.baselines.shard_scheduler` computes them."""
    cap = BUFFER_RATIO * lam
    tx_ids = tx_pdf["tx_id"].to_numpy()
    order = np.argsort(tx_ids, kind="stable")
    lists = tx_pdf["accounts"].to_numpy()[order]
    base = max(map(len, lists), default=0) + 1  # μ <= |A_Tx|

    shard_of: dict[int, int] = {}
    load = [0.0] * k
    count = [0] * (k * base)  # transactions per (shard, μ) at s·base + μ

    def best_shard(counts: dict[int, int]) -> int:
        """The under-cap shard with the highest affinity (ties by lower
        load, then lower id), falling back to the least-loaded shard."""
        best_aff = None
        best_aff_key = None
        least = 0
        least_load = load[0]
        for s in range(k):
            ls = load[s]
            if ls < least_load:
                least, least_load = s, ls
            aff = counts.get(s, 0)
            if aff > 0 and ls < cap:
                key = (-aff, ls, s)
                if best_aff is None or key < best_aff_key:
                    best_aff, best_aff_key = s, key
        return least if best_aff is None else best_aff

    for tx_id, acc in zip(tx_ids[order], lists):
        accounts = sorted(set(acc))
        if not accounts:
            raise ValueError(f"transaction {tx_id} has no accounts")
        counts: dict[int, int] = {}
        for a in accounts:
            s = shard_of.get(a)
            if s is not None:
                counts[s] = counts.get(s, 0) + 1

        # The objective is evaluated for every transaction (its target
        # shard drives both placement of new accounts and migration).
        target = best_shard(counts)
        migrated = False
        for a in accounts:
            s = shard_of.get(a)
            if s is None:
                shard_of[a] = target
            elif s != target and load[s] >= cap and not migrated:
                # One state migration per transaction: the first account
                # stuck in a full shard moves with the transaction.
                shard_of[a] = target
                migrated = True

        shards = {shard_of[a] for a in accounts}
        mu = len(shards)
        w = 1.0 if mu == 1 else eta
        for s in shards:
            load[s] += w
            count[s * base + mu] += 1
    count = np.array(count, dtype=np.int64)
    key = np.flatnonzero(count)
    return shard_of, (key // base, key % base, count[key])
