"""Every Spark call of the reproduction: the session factory, ingest, the
graph count query, the evaluation query and the T1-T6 sweep.

TxAllo is a deterministic, sequential allocator that each miner runs on
its own (paper §IV-A), so Spark carries only the bulk dataflow around it
(DESIGN.md §5), and the rest of ``repro`` imports no pyspark. Both
queries run the pandas path's own counter on each batch of the stream
and sum its integer counts, which no partitioning can reorder; the
driver folds the sums with the functions the pandas paths use.
"""
from __future__ import annotations

import os
from collections.abc import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

import repro
from repro.chain.ethdata import tx_incidence
from repro.graph.adjacency import Adjacency, adjacency_from_pandas
from repro.graph.build_pandas import count_tx_edges, fold_tx_counts
from repro.metrics.blockchain import AllocationMetrics, Stats, rollup, shard_stats
from repro.metrics.pandas_eval import span_counts
from repro.sim.runner import ETA_AWARE, METHODS, allocate

TX_SCHEMA = T.StructType(
    [
        T.StructField("tx_id", T.LongType(), nullable=False),
        T.StructField("block", T.LongType(), nullable=False),
        T.StructField("accounts", T.ArrayType(T.LongType(), False), nullable=False),
    ]
)


def session(app: str) -> SparkSession:
    """The local SparkSession of the tests and the jobs.

    ``SPARK_MASTER`` (default ``local[*]``) and ``SPARK_DRIVER_MEM``
    (default 8g; the test conftest sets its own) go into
    ``PYSPARK_SUBMIT_ARGS``, which the JVM reads at launch only. The
    Python workers that run the per-batch counters get the directory that
    holds ``repro`` on their path, since a driver's ``sys.path`` does not
    reach them.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.executorEnv.PYTHONPATH", os.path.dirname(os.path.dirname(repro.__file__)))
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


# -- ingest ------------------------------------------------------------------


def spark_transactions(spark: SparkSession, tx_pdf: pd.DataFrame) -> DataFrame:
    """A pandas transaction frame as a Spark DataFrame of ``TX_SCHEMA``,
    converted through Arrow when the session enables it."""
    return spark.createDataFrame(tx_pdf, schema=TX_SCHEMA)


# -- the per-batch counters --------------------------------------------------


def _summed(tx_df: DataFrame, counter, columns: tuple[str, ...]) -> DataFrame:
    """``counter``'s count arrays of each Arrow batch of ``tx_df``, named
    ``columns`` (the last is ``count``), summed per key by Spark."""

    def counts(batches: Iterable[pd.DataFrame]) -> Iterable[pd.DataFrame]:
        for batch in batches:
            yield pd.DataFrame(dict(zip(columns, counter(batch))))

    return (
        tx_df.select("tx_id", "accounts")
        .mapInPandas(counts, ", ".join(f"{c} long" for c in columns))
        .groupBy(*columns[:-1])
        .agg(F.sum("count").alias("count"))
    )


# -- transaction graph (paper §III-C, Definition 2) ----------------------------
#
# The pandas counter :func:`repro.graph.build_pandas.count_tx_edges` counts
# each batch per ``(src, dst, n)``; the driver folds the sums into
# Definition 2's weights with :func:`repro.graph.build_pandas.fold_tx_counts`,
# as the pandas builder does.


def build_tx_graph(tx_df: DataFrame) -> DataFrame:
    """Count the transactions of each edge key: ``(src, dst, n, count)``.

    ``src <= dst`` always; ``src == dst`` rows are self-loops (``n = 1``).
    :func:`collect_tx_graph` folds the counts into weighted edges.
    """
    return _summed(tx_df, count_tx_edges, ("src", "dst", "n", "count"))


def collect_tx_graph(counts_df: DataFrame) -> pd.DataFrame:
    """Collect a :func:`build_tx_graph` count frame, sort it by
    ``(src, dst, n)`` on the driver and fold it into ``(src, dst, weight)``.

    Bounded collect: the account graph at our scale factors is O(100k)
    keys (at the paper's full 12.6M-account scale it is ~GBs and still
    fits the driver, matching the authors' single-node runs).
    """
    pdf = counts_df.select("src", "dst", "n", "count").toPandas()
    src, dst, n, count = (pdf[c].to_numpy(np.int64) for c in ("src", "dst", "n", "count"))
    order = np.lexsort((n, dst, src))
    return fold_tx_counts(src[order], dst[order], n[order], count[order])


def to_adjacency(counts_df: DataFrame) -> Adjacency:
    """The :class:`Adjacency` of a :func:`build_tx_graph` count frame."""
    return adjacency_from_pandas(collect_tx_graph(counts_df))


# -- evaluation (paper §III-A/B) -----------------------------------------------
#
# Every allocation of a sweep at once: the pandas evaluator's
# :func:`repro.metrics.pandas_eval.span_counts` counts each batch per
# (alloc, shard, μ) against the label matrix, which travels in the task
# closure; at most k·max μ rows per allocation are collected.


def shard_mu_counts(tx_df: DataFrame, nodes: np.ndarray, labels) -> DataFrame:
    """Transactions per ``(alloc, shard, mu)`` under each row of the
    ``(n_alloc, len(nodes))`` label matrix ``labels``, in one query: a
    transaction of span μ counts once in each of its μ shards.
    ``labels[a, i]`` is the shard of account ``nodes[i]`` in allocation
    ``a``. Accounts outside ``nodes`` are left out of their transactions,
    and a transaction with none inside is not counted (``sweep`` checks
    the count).
    """
    if np.max(labels, initial=0) > np.iinfo(np.int16).max:
        raise ValueError("shard labels must fit an int16")
    labels = np.array(labels, dtype=np.int16, ndmin=2)

    def spans(batch: pd.DataFrame):
        offsets, accounts = tx_incidence(batch)
        placed = np.isin(accounts, nodes)  # an unplaced account leaves its transaction
        return span_counts(np.cumsum(np.r_[0, placed])[offsets], accounts[placed], nodes, labels)

    return _summed(tx_df, spans, ("alloc", "shard", "mu", "count"))


def collect_stats(tx_df: DataFrame, nodes: np.ndarray, labels) -> dict[int, Stats]:
    """One Spark action: :func:`shard_mu_counts` collected by one
    ``toPandas`` and folded per allocation by :func:`shard_stats`, giving
    ``{alloc: (n_txs, n_cross, per-shard stats frame)}``; an allocation
    that places no account of the stream has no entry. η only scales the
    cross-transaction workload in the rollup, so a sweep over η reuses
    this result (see :func:`sweep`)."""
    counts = shard_mu_counts(tx_df, nodes, labels).toPandas()
    return {
        int(alloc): shard_stats(*(rows[c].to_numpy(np.int64) for c in ("shard", "mu", "count")))
        for alloc, rows in counts.groupby("alloc")
    }


# -- the T1-T6 harness -----------------------------------------------------------
#
# The transaction-level ``scheduler`` is scored on its streaming statistics,
# every account mapping by one Spark job; both give a ``shard_stats`` triple.


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
        stacked = collect_stats(tx_df, adj.nodes, [runs[i][-1].labels for i in maps])
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
