"""Transaction-level metrics of an allocation, as Spark dataflow (§III-A/B).

Given the transaction stream and an account→shard allocation, computes for
every transaction the set of involved shards (``μ(Tx)``) and aggregates per
shard: intra/cross transaction counts, workload ``σ_i = |T_i^I| + η|T_i^C|``,
capacity-free throughput ``Λ̂_i = Σ_{Tx∈T_i} 1/μ(Tx)``, folded on the driver
from integer per-(shard, μ) counts. The scalar rollups
(γ, ρ, Λ, ζ, worst-case latency) come from :mod:`repro.metrics.formulas`.

All heavy steps are Catalyst DataFrame ops (explode → join → two-level
aggregation) over every allocation of a sweep at once; only the
per-(alloc, shard, μ) counts (at most k·max μ rows per allocation) are
collected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

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


def shard_mu_counts(tx_df: DataFrame, alloc_df: DataFrame) -> DataFrame:
    """Transactions per ``(alloc, shard, mu)`` for every allocation of a
    stacked ``(alloc, account, shard)`` frame, in one query: a transaction
    of span μ counts once in each of its μ shards. ``alloc_df`` must cover
    every account of ``tx_df`` (inner join; ``sweep`` checks the count).
    """
    exploded = tx_df.select("tx_id", F.explode("accounts").alias("account"))
    joined = exploded.join(alloc_df, on="account", how="inner")
    spans = joined.groupBy("alloc", "tx_id").agg(F.collect_set("shard").alias("shards"))
    per_shard = spans.select(
        "alloc", F.size("shards").alias("mu"), F.explode("shards").alias("shard")
    )
    return per_shard.groupBy("alloc", "shard", "mu").count()


def shard_stats(shard: np.ndarray, mu: np.ndarray, count: np.ndarray) -> Stats:
    """The η-independent evaluation state ``(n_txs, n_cross, frame)`` of
    one allocation, from its integer counts ``c_{s,μ}`` of transactions per
    shard and span (unique ``(shard, mu)`` pairs, any order).

    A transaction with span μ is counted in exactly μ rows, so with
    ``C_μ = Σ_s c_{s,μ}``: ``n_txs = Σ_μ C_μ/μ`` and ``n_cross = n_txs −
    C_1``, in integers. ``frame`` has one row per shard present:
    ``(shard, n_intra, n_cross, lam_hat)`` with ``n_intra = c_{s,1}``,
    ``n_cross = Σ_{μ>1} c_{s,μ}`` and, §III-B's redundant-counting rule,
    ``Λ̂_s = Σ_μ c_{s,μ}/μ`` added in ascending μ: the one fold of both
    evaluators and the Shard Scheduler, so their Λ̂ agree bit for bit.
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


def collect_stats(tx_df: DataFrame, alloc_df: DataFrame) -> dict[int, Stats]:
    """One Spark action: :func:`shard_mu_counts` collected by one
    ``toPandas`` and folded per allocation by :func:`shard_stats`, giving
    ``{alloc: (n_txs, n_cross, per-shard stats frame)}``; an allocation
    that places no account of the stream has no entry. η only scales the
    cross-transaction workload in the rollup, so a sweep over η reuses
    this result (see sim.runner)."""
    counts = shard_mu_counts(tx_df, alloc_df).toPandas()
    return {
        int(alloc): shard_stats(*(rows[c].to_numpy(np.int64) for c in ("shard", "mu", "count")))
        for alloc, rows in counts.groupby("alloc")
    }


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
    :func:`shard_stats` produces (through :func:`collect_stats`, the
    pandas evaluator or the Shard Scheduler).

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


def evaluate(
    tx_df: DataFrame, alloc_df: DataFrame, *, k: int, eta: float, lam: float | None = None
) -> AllocationMetrics:
    """Evaluate the one allocation of ``alloc_df`` on a stream (Spark path).

    ``lam`` defaults to the paper's setting λ = |T|/k (§VI-B1), under
    which a perfectly balanced all-intra allocation has Λ/λ = k.
    """
    (stats,) = collect_stats(tx_df, alloc_df).values()
    return rollup(*stats, k=k, eta=eta, lam=lam)
