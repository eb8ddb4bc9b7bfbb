"""Transaction-level metrics of an allocation, as Spark dataflow (§III-A/B).

Given the transaction stream and an account→shard allocation, computes for
every transaction the set of involved shards (``μ(Tx)``) and aggregates per
shard: intra/cross transaction counts, workload ``σ_i = |T_i^I| + η|T_i^C|``,
capacity-free throughput ``Λ̂_i = Σ_{Tx∈T_i} 1/μ(Tx)``. The scalar rollups
(γ, ρ, Λ, ζ, worst-case latency) come from :mod:`repro.metrics.formulas`.

All heavy steps are Catalyst DataFrame ops (explode → join → two-level
aggregation); only the per-shard vector (length k) is collected.
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


def shard_stats(mu_df: DataFrame) -> DataFrame:
    """Per-shard aggregates ``(shard, n_intra, n_cross, lam_hat)`` of a
    :func:`tx_mu` frame.

    A transaction with span μ contributes one row per involved shard
    (explode of the shard set), counting 1 intra or 1 cross transaction
    and ``1/μ`` of throughput (§III-B's redundant-counting rule).
    """
    per_shard = mu_df.select("tx_id", "mu", F.explode("shards").alias("shard"))
    return per_shard.groupBy("shard").agg(
        F.sum(F.when(F.col("mu") == 1, 1).otherwise(0)).alias("n_intra"),
        F.sum(F.when(F.col("mu") > 1, 1).otherwise(0)).alias("n_cross"),
        F.sum(1.0 / F.col("mu")).alias("lam_hat"),
    )


def collect_stats(tx_df: DataFrame, alloc_df: DataFrame) -> tuple[int, int, pd.DataFrame]:
    """One Spark pass producing the η-independent evaluation state:
    ``(n_txs, n_cross_total, per-shard stats frame)``.

    η only scales the cross-transaction workload in the rollup, so a
    parameter sweep over η reuses this result (see sim.runner)."""
    n_txs = tx_df.count()
    mu_df = tx_mu(tx_df, alloc_df).cache()
    try:
        n_cross = mu_df.filter(F.col("mu") > 1).count()
        stats = shard_stats(mu_df).toPandas()
    finally:
        mu_df.unpersist()
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
