"""Static-experiment harness: timed allocation + metric sweep (T1-T6).

Dispatches the four allocators over a (method × k × η) grid, then
evaluates every resulting account-shard mapping in one Spark job.
η-independent allocators (random, metis) are allocated once per k and
rolled up per η; η-aware allocators (txallo, scheduler) are re-run per η,
matching the paper's protocol where each point of Figs. 2-8 is a full run
at that (k, η).

The transaction-level ``scheduler`` is scored on its *streaming* shard
statistics (see ``repro.baselines.shard_scheduler``); the three
account-mapping methods are scored by the Spark pipeline over the final
map. Both paths produce the same ``shard_stats`` triple.
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
from repro.metrics.blockchain import AllocationMetrics, Stats, collect_stats, rollup
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
    stream_stats: Stats | None = None


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


def alloc_to_df(spark: SparkSession, adj: Adjacency, labels_list: list[np.ndarray]) -> DataFrame:
    """Stack label arrays as one Spark allocation DataFrame
    ``(alloc, account, shard)``; allocation ``i`` is ``labels_list[i]``."""
    pdf = pd.DataFrame(
        {
            "alloc": np.repeat(np.arange(len(labels_list), dtype=np.int64), adj.n),
            "account": np.tile(adj.nodes.astype(np.int64), len(labels_list)),
            "shard": np.concatenate([np.asarray(x, dtype=np.int64) for x in labels_list]),
        }
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

    Every allocator runs first; then one :func:`collect_stats` call
    evaluates all account mappings. An allocation that does not count
    every transaction of ``tx_df`` once raises ``ValueError``.

    Columns: method, k, eta, gamma, rho, norm_rho, norm_throughput,
    avg_latency, worst_latency, norm_sigmas (σ_i/λ per shard, an array of
    length k), alloc_seconds.
    """
    ks, etas, methods = list(ks), list(etas), list(methods)
    n_txs = tx_df.count()
    runs = [
        (method, k, run_eta, allocate(method, adj, k=k, eta=run_eta, lam=n_txs / k, tx_pdf=tx_pdf))
        for k in ks
        for method in methods
        for run_eta in (etas if method in ETA_AWARE else etas[:1])
    ]
    stats = [res.stream_stats for *_, res in runs]
    maps = [i for i, triple in enumerate(stats) if triple is None]
    if maps:
        labels = [runs[i][-1].labels for i in maps]
        stacked = collect_stats(tx_df, alloc_to_df(spark, adj, labels))
        for alloc, i in enumerate(maps):
            stats[i] = stacked.get(alloc)

    rows: list[dict] = []
    for (method, k, run_eta, res), triple in zip(runs, stats):
        if not triple or triple[0] != n_txs:
            raise ValueError(
                f"{method} at k={k}, eta={run_eta:g} counts {triple[0] if triple else 0} "
                f"of the stream's {n_txs} transactions; adj must hold every account of tx_df"
            )
        for eta in [run_eta] if method in ETA_AWARE else etas:
            m = rollup(*triple, k=k, eta=eta, lam=n_txs / k)
            rows.append(_metrics_row(method, k, eta, res.seconds, m))
    return pd.DataFrame(rows)
