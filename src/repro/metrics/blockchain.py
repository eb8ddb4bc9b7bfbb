"""Transaction-level metrics of an allocation (§III-A/B), from its integer
counts of transactions per (shard, μ), μ(Tx) being the number of shards a
transaction involves: :func:`shard_stats` folds them per shard (intra and
cross counts, ``Λ̂_i = Σ_{Tx∈T_i} 1/μ(Tx)``) and :func:`rollup` adds the
workload ``σ_i = |T_i^I| + η|T_i^C|`` and the scalar metrics of
:mod:`repro.metrics.formulas`. The one evaluator (``span_counts``, on
the driver or per Spark batch) and the Shard Scheduler both end here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.metrics import formulas

Stats = tuple[int, int, pd.DataFrame]  # (n_txs, n_cross, per-shard frame) of shard_stats


@dataclass(frozen=True)
class AllocationMetrics:
    """Scalar metrics + the per-shard workload vector for one allocation."""

    k: int
    eta: float
    lam: float
    n_txs: int
    gamma: float  # cross-shard transaction ratio
    rho: float  # workload stddev (Eq. 1)
    throughput: float  # Λ (Eq. 2+3)
    norm_throughput: float  # Λ/λ (paper Fig. 5 y-axis)
    avg_latency: float  # ζ (Eq. 4, mean over shards)
    worst_latency: float  # max_i ⌈σ_i/λ⌉ (Fig. 7)
    sigmas: np.ndarray  # per-shard workload σ_i, length k

    @property
    def norm_sigmas(self) -> np.ndarray:
        """σ_i/λ — Fig. 4's y-axis."""
        return self.sigmas / self.lam


def shard_stats(shard: np.ndarray, mu: np.ndarray, count: np.ndarray) -> Stats:
    """The η-independent evaluation state ``(n_txs, n_cross, frame)`` of
    one allocation, from its integer counts ``c_{s,μ}`` of transactions per
    shard and span (unique ``(shard, mu)`` pairs, any order).

    A transaction with span μ is counted in exactly μ rows, so with
    ``C_μ = Σ_s c_{s,μ}``: ``n_txs = Σ_μ C_μ/μ`` and ``n_cross = n_txs −
    C_1``, in integers. ``frame`` has one row per shard present:
    ``(shard, n_intra, n_cross, lam_hat)`` with ``n_intra = c_{s,1}``,
    ``n_cross = Σ_{μ>1} c_{s,μ}`` and, §III-B's redundant-counting rule,
    ``Λ̂_s = Σ_μ c_{s,μ}/μ`` added in ascending μ: the one fold of the
    evaluator and the Shard Scheduler, so their Λ̂ agree bit for bit.
    """
    c_mu = np.zeros(int(mu.max(initial=1)) + 1, dtype=np.int64)
    np.add.at(c_mu, mu, count)
    txs_mu, rest = np.divmod(c_mu[1:], np.arange(1, len(c_mu)))
    if rest.any():
        raise ValueError("a transaction of span mu must be counted in exactly mu shards")
    n_txs = int(txs_mu.sum())

    order = np.lexsort((mu, shard))
    shard, mu, count = shard[order], mu[order], count[order]
    first = np.ones(len(shard), dtype=bool)
    first[1:] = shard[1:] != shard[:-1]
    row = np.cumsum(first) - 1
    n = int(first.sum())
    intra = mu == 1
    n_intra = np.bincount(row[intra], weights=count[intra], minlength=n)
    n_cross = np.bincount(row[~intra], weights=count[~intra], minlength=n)
    frame = pd.DataFrame(
        {
            "shard": shard[first],
            "n_intra": n_intra.astype(np.int64),
            "n_cross": n_cross.astype(np.int64),
            "lam_hat": np.bincount(row, weights=count / mu, minlength=n),
        }
    )
    return n_txs, n_txs - int(txs_mu[0]), frame


def rollup(
    n_txs: int,
    n_cross: int,
    stats: pd.DataFrame,
    *,
    k: int,
    eta: float,
    lam: float | None = None,
) -> AllocationMetrics:
    """Finish an evaluation for one η from the η-independent state that
    :func:`shard_stats` produces (through :func:`repro.spark.collect_stats`,
    the pandas evaluator or the Shard Scheduler).

    ``lam`` defaults to the paper's setting λ = |T|/k (§VI-B1).
    """
    if lam is None:
        lam = n_txs / k
    sigmas = np.zeros(k, dtype=np.float64)
    lam_hats = np.zeros(k, dtype=np.float64)
    shard_idx = stats["shard"].to_numpy(np.int64)
    sigmas[shard_idx] = (
        stats["n_intra"].to_numpy(np.float64) + eta * stats["n_cross"].to_numpy(np.float64)
    )
    lam_hats[shard_idx] = stats["lam_hat"].to_numpy(np.float64)

    lam_i = formulas.clip_throughput(sigmas, lam_hats, lam)
    throughput = float(lam_i.sum())
    return AllocationMetrics(
        k=k,
        eta=eta,
        lam=lam,
        n_txs=n_txs,
        gamma=n_cross / n_txs if n_txs else 0.0,
        rho=formulas.rho(sigmas),
        throughput=throughput,
        norm_throughput=throughput / lam if lam else 0.0,
        avg_latency=float(np.mean(formulas.latency_zeta(sigmas, lam))),
        worst_latency=formulas.worst_latency(sigmas, lam),
        sigmas=sigmas,
    )

