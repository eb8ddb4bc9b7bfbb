"""§IV-A: every miner derives the identical mapping without coordination.

The transaction graph, and the G-/A-TxAllo labels computed from it, must
not depend on the backend (Spark or pandas), on Spark's shuffle-partition
count or on the order of the stream's rows.
"""
import dataclasses

import numpy as np
import pytest

from repro.graph import adjacency_from_pandas, build_tx_graph, build_tx_graph_pandas, to_adjacency
from repro.txallo import a_txallo, g_txallo
from repro.txallo.a_txallo import map_prev_labels

K, ETA = 8, 2.0
PARTITIONS = (1, 7, 64)


@pytest.fixture(scope="module")
def graphs(spark, tx_df, tx_pdf):
    """Name → Adjacency of the SMALL stream, built every supported way."""
    out = {"pandas": adjacency_from_pandas(build_tx_graph_pandas(tx_pdf))}
    shuffled = tx_pdf.sample(frac=1.0, random_state=3).reset_index(drop=True)
    out["pandas, rows shuffled"] = adjacency_from_pandas(build_tx_graph_pandas(shuffled))
    # Adaptive execution would coalesce the shuffle partitions; keep each count.
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    before = {key: spark.conf.get(key) for key in keys}
    try:
        spark.conf.set(keys[1], "false")
        for p in PARTITIONS:
            spark.conf.set(keys[0], str(p))
            out[f"spark, {p} partitions"] = to_adjacency(build_tx_graph(tx_df))
    finally:
        for key, value in before.items():
            spark.conf.set(key, value)
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
