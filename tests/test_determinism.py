"""§IV-A: every miner derives the identical mapping without coordination.

The transaction graph, the G-/A-TxAllo labels computed from it and the
evaluation of an allocation must not depend on the backend (Spark or
pandas), on how Spark splits the stream into input partitions and on its
shuffle-partition count, on the order of the stream's rows or on how its
``accounts`` column is held (the generator's Arrow lists or Python lists).
"""
import contextlib
import dataclasses

import numpy as np
import pytest

from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.metrics.pandas_eval import evaluate_pandas
from repro.spark import build_tx_graph, spark_transactions, to_adjacency
from repro.txallo import a_txallo, g_txallo
from repro.txallo.a_txallo import map_prev_labels
from tests.reference import evaluate

K, ETA = 8, 2.0
PARTITIONS = (1, 7, 64)


@pytest.fixture(scope="module")
def object_lists(spark, tx_pdf):
    """The SMALL stream with Python lists in ``accounts``, as pandas and Spark frames."""
    pdf = tx_pdf.assign(accounts=[list(a) for a in tx_pdf["accounts"]])
    return pdf, spark_transactions(spark, pdf)


@contextlib.contextmanager
def shuffle_partitions(spark, p: int):
    """Run Spark queries with ``p`` shuffle partitions; adaptive execution
    would coalesce them, so it is switched off meanwhile."""
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    before = {key: spark.conf.get(key) for key in keys}
    try:
        spark.conf.set(keys[0], str(p))
        spark.conf.set(keys[1], "false")
        yield
    finally:
        for key, value in before.items():
            spark.conf.set(key, value)


@pytest.fixture(scope="module")
def graphs(spark, tx_df, tx_pdf, object_lists):
    """Name → Adjacency of the SMALL stream, built every supported way."""
    out = {"pandas": adjacency_from_pandas(build_tx_graph_pandas(tx_pdf))}
    out["pandas, object lists"] = adjacency_from_pandas(build_tx_graph_pandas(object_lists[0]))
    out["spark, object lists"] = to_adjacency(build_tx_graph(object_lists[1]))
    shuffled = tx_pdf.sample(frac=1.0, random_state=3).reset_index(drop=True)
    out["pandas, rows shuffled"] = adjacency_from_pandas(build_tx_graph_pandas(shuffled))
    for p in PARTITIONS:
        with shuffle_partitions(spark, p):
            out[f"spark, {p} partitions"] = to_adjacency(build_tx_graph(tx_df))
            out[f"spark, {p} input partitions"] = to_adjacency(build_tx_graph(tx_df.repartition(p)))
    return out


def test_adjacency_identical(graphs):
    ref = graphs["pandas"]
    for name, adj in graphs.items():
        for f in dataclasses.fields(ref):
            assert np.array_equal(getattr(adj, f.name), getattr(ref, f.name)), (name, f.name)


def test_g_txallo_labels_identical(graphs, tx_pdf):
    lam = len(tx_pdf) / K
    labels = {name: g_txallo(adj, k=K, eta=ETA, lam=lam) for name, adj in graphs.items()}
    ref = labels["pandas"]
    for name, got in labels.items():
        np.testing.assert_array_equal(got, ref, err_msg=name)


def test_a_txallo_labels_identical(graphs, tx_pdf):
    """One A-TxAllo step over the last block, from the G-TxAllo labels of
    the earlier blocks; the hot set V̂ is the last block's accounts."""
    last = tx_pdf["block"].max()
    hist = tx_pdf[tx_pdf["block"] < last]
    adj_hist = adjacency_from_pandas(build_tx_graph_pandas(hist))
    base = g_txallo(adj_hist, k=K, eta=ETA, lam=len(hist) / K)
    step = tx_pdf.loc[tx_pdf["block"] == last, "accounts"]
    hot_accounts = np.unique(np.concatenate(step.tolist()))
    lam = len(tx_pdf) / K

    labels = {}
    for name, adj in graphs.items():
        prev = map_prev_labels(adj, adj_hist.nodes, base)
        labels[name] = a_txallo(adj, prev, adj.index_of(hot_accounts), k=K, eta=ETA, lam=lam)
    ref = labels["pandas"]
    for name, got in labels.items():
        np.testing.assert_array_equal(got, ref, err_msg=name)


def test_evaluation_identical(spark, graphs, tx_pdf, tx_df, object_lists):
    """One G-TxAllo allocation scored by both evaluators from both column
    forms, and by Spark at every input and shuffle partition count."""
    adj = graphs["pandas"]
    lam = len(tx_pdf) / K
    labels = g_txallo(adj, k=K, eta=ETA, lam=lam)
    pdf, df = object_lists
    kw = dict(k=K, eta=ETA, lam=lam)
    got = {
        "pandas, arrow": evaluate_pandas(tx_pdf, labels, accounts=adj.nodes, **kw),
        "pandas, object lists": evaluate_pandas(pdf, labels, accounts=adj.nodes, **kw),
        "spark, arrow": evaluate(tx_df, adj.nodes, labels, **kw),
        "spark, object lists": evaluate(df, adj.nodes, labels, **kw),
    }
    for p in PARTITIONS:
        with shuffle_partitions(spark, p):
            got[f"spark, {p} partitions"] = evaluate(tx_df.repartition(p), adj.nodes, labels, **kw)
    ref = got["pandas, arrow"]
    for name, m in got.items():
        for f in dataclasses.fields(ref):
            a, b = getattr(m, f.name), getattr(ref, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (name, f.name)
