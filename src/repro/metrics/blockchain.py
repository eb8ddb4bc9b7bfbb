"""Transaction-level metrics of an allocation, as Spark dataflow (§III-A/B).

Given the transaction stream and an account→shard allocation, computes for
every transaction the set of involved shards (``μ(Tx)``) and aggregates per
shard: intra/cross transaction counts, workload ``σ_i = |T_i^I| + η|T_i^C|``,
capacity-free throughput ``Λ̂_i = Σ_{Tx∈T_i} 1/μ(Tx)``, folded on the driver
from integer per-(shard, μ) counts. The scalar rollups
(γ, ρ, Λ, ζ, worst-case latency) come from :mod:`repro.metrics.formulas`.

All heavy steps are Catalyst DataFrame ops (explode → join → two-level
aggregation); only the per-(shard, μ) counts (at most k² rows) are
collected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.metrics import formulas


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


def tx_mu(tx_df: DataFrame, alloc_df: DataFrame) -> DataFrame:
    """Per-transaction shard span: ``(tx_id, shards array<int>, mu)``.

    ``alloc_df`` maps ``account -> shard`` and must cover every account in
    ``tx_df`` (inner join; coverage is asserted by callers/tests via
    uniqueness+completeness of the allocation).
    """
    exploded = tx_df.select("tx_id", F.explode("accounts").alias("account"))
    joined = exploded.join(alloc_df, on="account", how="inner")
    return joined.groupBy("tx_id").agg(
        F.array_sort(F.collect_set("shard")).alias("shards"),
        F.size(F.collect_set("shard")).alias("mu"),
    )


def shard_mu_counts(mu_df: DataFrame) -> DataFrame:
    """Transactions per shard and span: ``(shard, mu, count)`` of a
    :func:`tx_mu` frame. A transaction with span μ counts once in each of
    its μ shards (explode of the shard set)."""
    per_shard = mu_df.select("mu", F.explode("shards").alias("shard"))
    return per_shard.groupBy("shard", "mu").count()


def shard_stats(shard: np.ndarray, mu: np.ndarray, count: np.ndarray) -> pd.DataFrame:
    """Per-shard ``(shard, n_intra, n_cross, lam_hat)`` from the integer
    counts ``c_{s,μ}`` of transactions per shard and span (unique
    ``(shard, mu)`` pairs, any order); one row per shard present.

    ``n_intra = c_{s,1}``, ``n_cross = Σ_{μ>1} c_{s,μ}`` and, §III-B's
    redundant-counting rule, ``Λ̂_s = Σ_μ c_{s,μ}/μ`` added in ascending μ:
    the one fold of both evaluators, so their Λ̂ agree bit for bit.
    """
    order = np.lexsort((mu, shard))
    shard, mu, count = shard[order], mu[order], count[order]
    first = np.ones(len(shard), dtype=bool)
    first[1:] = shard[1:] != shard[:-1]
    row = np.cumsum(first) - 1
    n = int(first.sum())
    intra = mu == 1
    n_intra = np.bincount(row[intra], weights=count[intra], minlength=n)
    n_cross = np.bincount(row[~intra], weights=count[~intra], minlength=n)
    return pd.DataFrame(
        {
            "shard": shard[first],
            "n_intra": n_intra.astype(np.int64),
            "n_cross": n_cross.astype(np.int64),
            "lam_hat": np.bincount(row, weights=count / mu, minlength=n),
        }
    )


def collect_stats(tx_df: DataFrame, alloc_df: DataFrame) -> tuple[int, int, pd.DataFrame]:
    """One Spark pass producing the η-independent evaluation state:
    ``(n_txs, n_cross_total, per-shard stats frame)``.

    Spark counts transactions per ``(shard, mu)`` (at most k² rows); the
    driver folds them with :func:`shard_stats`. η only scales the
    cross-transaction workload in the rollup, so a parameter sweep over η
    reuses this result (see sim.runner)."""
    n_txs = tx_df.count()
    mu_df = tx_mu(tx_df, alloc_df).cache()
    try:
        n_cross = mu_df.filter(F.col("mu") > 1).count()
        counts = shard_mu_counts(mu_df).toPandas()
    finally:
        mu_df.unpersist()
    stats = shard_stats(*(counts[c].to_numpy(np.int64) for c in ("shard", "mu", "count")))
    return n_txs, n_cross, stats


def rollup(
    n_txs: int,
    n_cross_total: int,
    stats: pd.DataFrame,
    *,
    k: int,
    eta: float,
    lam: float | None = None,
) -> AllocationMetrics:
    """Finish an evaluation for one η from the η-independent state that
    :func:`collect_stats` (or the pandas evaluator) produces.

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
        gamma=n_cross_total / n_txs if n_txs else 0.0,
        rho=formulas.rho(sigmas),
        throughput=throughput,
        norm_throughput=throughput / lam if lam else 0.0,
        avg_latency=float(np.mean(formulas.latency_zeta(sigmas, lam))),
        worst_latency=formulas.worst_latency(sigmas, lam),
        sigmas=sigmas,
    )


def evaluate(
    tx_df: DataFrame, alloc_df: DataFrame, *, k: int, eta: float, lam: float | None = None
) -> AllocationMetrics:
    """Evaluate an allocation on a transaction stream (Spark path).

    ``lam`` defaults to the paper's setting λ = |T|/k (§VI-B1), under
    which a perfectly balanced all-intra allocation has Λ/λ = k.
    """
    n_txs, n_cross, stats = collect_stats(tx_df, alloc_df)
    return rollup(n_txs, n_cross, stats, k=k, eta=eta, lam=lam)
