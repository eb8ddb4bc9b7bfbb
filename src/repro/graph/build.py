"""Transaction graph construction (paper §III-C, Definition 2) in Spark.

A transaction touching the account set ``A_Tx`` becomes ``π = C(|A_Tx|, 2)``
one-to-one edges, each of weight ``1/π``, so the transaction's total edge
weight is exactly 1. A transaction with a single account (``|A_Tx| = 1``,
e.g. an Ethereum self-transfer used to cancel a pending tx) becomes a
self-loop of weight 1. Edges are undirected and stored canonically with
``src <= dst``; parallel edges are summed (Def. 2's ``w_{v,u}``).

Spark counts transactions per ``(src, dst, n)`` with ``n = |A_Tx|``, in
integers, which no partitioning can reorder; the driver folds the counts
into weights with :func:`repro.graph.build_pandas.fold_tx_counts`, the
same function the pandas builder uses.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.adjacency import Adjacency, adjacency_from_pandas
from repro.graph.build_pandas import fold_tx_counts


def tx_accounts(tx_df: DataFrame) -> DataFrame:
    """Explode ``(tx_id, accounts)`` into ``(tx_id, pos, account)`` rows.

    ``accounts`` is assumed deduplicated; this defensively re-applies
    ``array_distinct``/``array_sort`` so the pair join below cannot emit a
    spurious self-pair, then keeps the per-tx account count ``n_acct``.
    """
    canon = tx_df.withColumn("accounts", F.array_sort(F.array_distinct("accounts")))
    return canon.select(
        "tx_id",
        F.size("accounts").alias("n_acct"),
        F.posexplode("accounts").alias("pos", "account"),
    )


def build_tx_graph(tx_df: DataFrame) -> DataFrame:
    """Count the transactions of each edge key: ``(src, dst, n, count)``.

    ``src <= dst`` always; ``src == dst`` rows are self-loops (``n = 1``).
    :func:`collect_tx_graph` folds the counts into weighted edges.
    Implementation: a position self-join on the exploded accounts produces
    the ``C(n, 2)`` unordered pairs per transaction (accounts are sorted,
    so ``pos_a < pos_b`` implies ``account_a < account_b``).
    """
    acc = tx_accounts(tx_df)
    a = acc.alias("a")
    b = acc.alias("b")
    pairs = a.join(
        b, on=[F.col("a.tx_id") == F.col("b.tx_id"), F.col("a.pos") < F.col("b.pos")]
    ).select(
        F.col("a.account").alias("src"),
        F.col("b.account").alias("dst"),
        F.col("a.n_acct").alias("n"),
    )
    self_loops = acc.filter(F.col("n_acct") == 1).select(
        F.col("account").alias("src"),
        F.col("account").alias("dst"),
        F.col("n_acct").alias("n"),
    )
    return pairs.unionByName(self_loops).groupBy("src", "dst", "n").count()


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
