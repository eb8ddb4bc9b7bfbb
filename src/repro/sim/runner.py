"""Static-experiment harness: timed allocation + metric sweep (T1-T6).

Dispatches the four allocators over a (method × k × η) grid and evaluates
each resulting account-shard mapping with the Spark metric pipeline.
η-independent allocators (random, metis) are allocated and stats-collected
once per k and rolled up per η; η-aware allocators (txallo, scheduler) are
re-run per η, matching the paper's protocol where each point of Figs. 2-8
is a full run at that (k, η).

The transaction-level ``scheduler`` is scored on its *streaming* shard
statistics (see ``repro.baselines.shard_scheduler``); the three
account-mapping methods are scored by the Spark pipeline over the final
map. Both paths produce the identical ``collect_stats`` triple.
"""
from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import hash_alloc, metis_like, shard_scheduler
from repro.graph.adjacency import Adjacency
from repro.metrics.blockchain import AllocationMetrics, collect_stats, rollup
from repro.txallo import g_txallo

METHODS = ("random", "metis", "scheduler", "txallo")
ETA_AWARE = frozenset({"scheduler", "txallo"})


@dataclass
class AllocResult:
    """One allocator run: labels aligned to ``adj.nodes`` + timing.

    ``stream_stats`` is set for the transaction-level scheduler only —
    the (n_txs, n_cross, per-shard stats) triple measured at processing
    time, used in place of a final-map Spark evaluation.
    """

    labels: np.ndarray
    seconds: float
    stream_stats: tuple[int, int, pd.DataFrame] | None = None


def allocate(
    method: str,
    adj: Adjacency,
    *,
    k: int,
    eta: float,
    lam: float,
    tx_pdf: pd.DataFrame | None = None,
) -> AllocResult:
    """Run one allocator; ``tx_pdf`` (the chronological stream) is
    required for the transaction-level ``scheduler`` method only."""
    t0 = time.perf_counter()
    if method == "random":
        labels = hash_alloc(adj.nodes, k)
    elif method == "metis":
        labels = metis_like(adj, k)
    elif method == "txallo":
        labels = g_txallo(adj, k=k, eta=eta, lam=lam)
    elif method == "scheduler":
        if tx_pdf is None:
            raise ValueError("scheduler needs the transaction stream tx_pdf")
        res = shard_scheduler(tx_pdf, k, eta=eta, lam=lam)
        labels = np.array([res.shard_of[int(a)] for a in adj.nodes], dtype=np.int64)
        return AllocResult(labels, time.perf_counter() - t0, res.stats())
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return AllocResult(labels, time.perf_counter() - t0)


def alloc_to_df(spark: SparkSession, adj: Adjacency, labels: np.ndarray) -> DataFrame:
    """Wrap a label array as the Spark allocation DataFrame (account, shard)."""
    pdf = pd.DataFrame(
        {"account": adj.nodes.astype(np.int64), "shard": np.asarray(labels, dtype=np.int64)}
    )
    return spark.createDataFrame(pdf)


def _metrics_row(method: str, k: int, eta: float, secs: float, m: AllocationMetrics) -> dict:
    return {
        "method": method,
        "k": k,
        "eta": eta,
        "gamma": m.gamma,
        "rho": m.rho,
        "norm_rho": m.rho / m.lam,
        "norm_throughput": m.norm_throughput,
        "avg_latency": m.avg_latency,
        "worst_latency": m.worst_latency,
        "norm_sigmas": m.norm_sigmas,
        "alloc_seconds": secs,
    }


def sweep(
    spark: SparkSession,
    tx_df: DataFrame,
    adj: Adjacency,
    *,
    ks: Iterable[int],
    etas: Iterable[float],
    methods: Iterable[str] = METHODS,
    tx_pdf: pd.DataFrame | None = None,
) -> pd.DataFrame:
    """Full (method × k × η) grid; one row per configuration.

    Columns: method, k, eta, gamma, rho, norm_rho, norm_throughput,
    avg_latency, worst_latency, norm_sigmas (σ_i/λ per shard, an array of
    length k), alloc_seconds.
    """
    ks, etas, methods = list(ks), list(etas), list(methods)
    n_txs = tx_df.count()
    rows: list[dict] = []
    for k in ks:
        lam = n_txs / k
        for method in methods:
            aware = method in ETA_AWARE
            for run_eta in etas if aware else etas[:1]:
                res = allocate(method, adj, k=k, eta=run_eta, lam=lam, tx_pdf=tx_pdf)
                stats = res.stream_stats
                if stats is None:
                    stats = collect_stats(tx_df, alloc_to_df(spark, adj, res.labels))
                for eta in [run_eta] if aware else etas:
                    m = rollup(*stats, k=k, eta=eta, lam=lam)
                    rows.append(_metrics_row(method, k, eta, res.seconds, m))
    return pd.DataFrame(rows)
