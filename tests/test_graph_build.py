"""Tests for transaction-graph construction (Def. 2) — Spark + pandas."""
import numpy as np
import pandas as pd
import pytest

from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.graph.build_pandas import count_tx_edges, merge_tx_counts
from repro.spark import TX_SCHEMA, build_tx_graph, collect_tx_graph
from tests.conftest import tiny_tx_pdf
from tests.oracle import assert_equivalent, exploded_accounts


@pytest.fixture(scope="module")
def tiny_edges(spark, tiny_df):
    return collect_tx_graph(build_tx_graph(tiny_df))


class TestTinyGraphSpark:
    def test_total_weight_equals_tx_count(self, tiny_edges):
        assert tiny_edges["weight"].sum() == pytest.approx(8.0)

    def test_canonical_src_le_dst(self, tiny_edges):
        assert (tiny_edges["src"] <= tiny_edges["dst"]).all()

    def test_self_loop_weight(self, tiny_edges):
        loop = tiny_edges[(tiny_edges.src == 3) & (tiny_edges.dst == 3)]
        assert len(loop) == 1
        assert loop["weight"].iloc[0] == pytest.approx(1.0)

    def test_repeated_pair_accumulates(self, tiny_edges):
        # txs 0,1 give (1,2) weight 1 each; tx 6 (pi=6) adds 1/6.
        w = tiny_edges[(tiny_edges.src == 1) & (tiny_edges.dst == 2)]["weight"].iloc[0]
        assert w == pytest.approx(2.0 + 1.0 / 6.0)

    def test_three_account_tx_weights(self, tiny_edges):
        # tx 4 touches {4,5,6}: each pair gets 1/3; (5,6) also gets 1 from tx 7.
        w45 = tiny_edges[(tiny_edges.src == 4) & (tiny_edges.dst == 5)]["weight"].iloc[0]
        w56 = tiny_edges[(tiny_edges.src == 5) & (tiny_edges.dst == 6)]["weight"].iloc[0]
        assert w45 == pytest.approx(1.0 / 3.0)
        assert w56 == pytest.approx(1.0 / 3.0 + 1.0)

    def test_four_account_tx_weights(self, tiny_edges):
        # tx 6 {1,2,3,4}: pi = 6 -> (1,4) appears only here.
        w14 = tiny_edges[(tiny_edges.src == 1) & (tiny_edges.dst == 4)]["weight"].iloc[0]
        assert w14 == pytest.approx(1.0 / 6.0)

    def test_per_tx_weight_is_one(self, tiny_edges):
        # Sum over all edges contributed by tx 4 alone = 3 * 1/3 = 1 etc.
        # Verified in aggregate: total weight == #txs (above); here spot-
        # check that no edge exists that no tx could have produced.
        valid_pairs = set()
        for _, row in tiny_tx_pdf().iterrows():
            acc = row["accounts"]
            if len(acc) == 1:
                valid_pairs.add((acc[0], acc[0]))
            for i in range(len(acc)):
                for j in range(i + 1, len(acc)):
                    valid_pairs.add((acc[i], acc[j]))
        got_pairs = set(zip(tiny_edges.src, tiny_edges.dst))
        assert got_pairs == valid_pairs


class TestPandasMirror:
    def test_tiny_matches_spark(self, tiny_edges):
        got = build_tx_graph_pandas(tiny_tx_pdf())
        pd.testing.assert_frame_equal(tiny_edges, got, check_exact=True)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_generated_matches_spark(self, spark, seed):
        p = EthParams(sf=0.002, seed=seed)
        pdf = eth_transactions_pandas(p)
        sdf = spark.createDataFrame(pdf.to_dict("records"), schema=TX_SCHEMA)
        spark_edges = collect_tx_graph(build_tx_graph(sdf))
        pandas_edges = build_tx_graph_pandas(pdf)
        pd.testing.assert_frame_equal(spark_edges, pandas_edges, check_exact=True)

    def test_total_weight_generated(self, tx_pdf):
        edges = build_tx_graph_pandas(tx_pdf)
        assert edges["weight"].sum() == pytest.approx(len(tx_pdf))

    def test_empty_stream(self):
        edges = build_tx_graph_pandas(pd.DataFrame({"tx_id": [], "block": [], "accounts": []}))
        assert len(edges) == 0
        assert edges["weight"].dtype == np.float64

    def test_tx_without_accounts_rejected(self):
        pdf = tiny_tx_pdf()
        pdf.at[5, "accounts"] = []
        with pytest.raises(ValueError, match="transaction 5 has no accounts"):
            build_tx_graph_pandas(pdf)

    def test_counts_per_pair_and_arity(self):
        """One row per ``(src, dst, n)`` key, sorted, counting transactions."""
        src, dst, n, count = count_tx_edges(tiny_tx_pdf())
        assert src.tolist() == [1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5]
        assert dst.tolist() == [2, 2, 3, 3, 4, 3, 4, 4, 3, 4, 5, 6, 6, 6]
        assert n.tolist() == [2, 4, 2, 4, 4, 4, 2, 4, 1, 4, 3, 3, 2, 3]
        assert count.tolist() == [2] + [1] * 13

    def test_fold_adds_terms_in_ascending_arity(self):
        edges = build_tx_graph_pandas(tiny_tx_pdf()).set_index(["src", "dst"])["weight"]
        assert edges[(1, 2)] == 4.0 / 2.0 + 2.0 / 12.0
        assert edges[(5, 6)] == 2.0 / 2.0 + 2.0 / 6.0
        assert edges[(3, 3)] == 1.0

    def test_negative_account_rejected(self):
        pdf = tiny_tx_pdf()
        pdf.at[0, "accounts"] = [-1, 2]
        with pytest.raises(ValueError, match="non-negative"):
            count_tx_edges(pdf)

    def test_key_wider_than_int64_rejected(self):
        pdf = tiny_tx_pdf()
        pdf.at[0, "accounts"] = [1, 2**40]
        with pytest.raises(ValueError, match="at most 63 fit"):
            count_tx_edges(pdf)


class TestCountMerge:
    """Counts merged slice by slice equal the counts of the whole stream."""

    def test_merge_by_block_equals_whole(self, tx_pdf):
        kept = count_tx_edges(tx_pdf.iloc[:0])
        for _, block in tx_pdf.groupby("block"):
            kept = merge_tx_counts(kept, count_tx_edges(block))
        for got, want in zip(kept, count_tx_edges(tx_pdf)):
            np.testing.assert_array_equal(got, want)

    def test_merge_order_free(self, tx_pdf):
        half = len(tx_pdf) // 2
        a, b = count_tx_edges(tx_pdf.iloc[:half]), count_tx_edges(tx_pdf.iloc[half:])
        for x, y in zip(merge_tx_counts(a, b), merge_tx_counts(b, a)):
            np.testing.assert_array_equal(x, y)

    def test_empty_step_leaves_counts_unchanged(self, tx_pdf):
        kept = count_tx_edges(tx_pdf)
        merged = merge_tx_counts(kept, count_tx_edges(tx_pdf.iloc[:0]))
        for x, y in zip(merged, kept):
            np.testing.assert_array_equal(x, y)


class TestEdgeCases:
    def test_sixty_account_transaction(self, spark):
        """C(60, 2) = 1770 pairs of weight 1/1770; the transaction weighs 1."""
        pdf = pd.DataFrame({"tx_id": [0], "block": [0], "accounts": [list(range(100, 160))]})
        edges = build_tx_graph_pandas(pdf)
        assert len(edges) == 1770
        assert (edges["weight"] == 1.0 / 1770).all()
        assert edges["weight"].sum() == pytest.approx(1.0, abs=1e-12)
        sdf = spark.createDataFrame(pdf.to_dict("records"), schema=TX_SCHEMA)
        spark_edges = collect_tx_graph(build_tx_graph(sdf))
        pd.testing.assert_frame_equal(spark_edges, edges, check_exact=True)

    def test_account_seen_only_in_self_loops(self):
        loops = pd.DataFrame({"tx_id": [8, 9], "block": [2, 2], "accounts": [[9], [9]]})
        pdf = pd.concat([tiny_tx_pdf(), loops], ignore_index=True)
        adj = adjacency_from_pandas(build_tx_graph_pandas(pdf))
        v = int(adj.index_of(np.array([9]))[0])
        assert adj.self_w[v] == 2.0
        assert not (adj.ev == v).any()
        assert adj.total_weight == pytest.approx(len(pdf))


# ``build_tx_graph``'s counts in SQL, over ``acc(tx_id, account)``.
PAIR_COUNTS_SQL = """
    WITH sized AS (
        SELECT tx_id, account,
               COUNT(*) OVER (PARTITION BY tx_id) AS n
        FROM acc
    ),
    pairs AS (
        SELECT a.account AS src, b.account AS dst, a.n AS n
        FROM sized a JOIN sized b
          ON a.tx_id = b.tx_id AND a.account < b.account
        UNION ALL
        SELECT account, account, n FROM sized WHERE n = 1
    )
    SELECT src, dst, n, COUNT(*) AS "count" FROM pairs GROUP BY src, dst, n
"""


class TestOracle:
    def test_pair_aggregation_vs_duckdb(self, spark, tiny_df):
        """The Spark counts, summed over batches, equal the same counts in DuckDB SQL."""
        counts = build_tx_graph(tiny_df).select("src", "dst", "n", "count")
        assert_equivalent(counts, PAIR_COUNTS_SQL, acc=exploded_accounts(tiny_tx_pdf()))

    def test_generated_aggregation_vs_duckdb(self, spark, tx_df, tx_pdf):
        counts = build_tx_graph(tx_df).select("src", "dst", "n", "count")
        assert_equivalent(counts, PAIR_COUNTS_SQL, acc=exploded_accounts(tx_pdf))
