"""Tests for transaction-level metrics (§III-A/B): pandas + Spark + oracle.

The tiny 8-tx stream admits full hand computation; the generated stream
checks the Spark pipeline against both the pandas mirror and DuckDB.
"""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import hash_alloc
from repro.chain.ethdata import TX_SCHEMA
from repro.metrics.blockchain import (
    collect_stats,
    evaluate,
    rollup,
    shard_mu_counts,
    shard_stats,
)
from repro.metrics.pandas_eval import evaluate_pandas
from repro.oracle import assert_equivalent
from repro.sim.runner import alloc_to_df
from tests.conftest import tiny_tx_pdf

TINY_ALLOC = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
TINY_ACCOUNTS = np.array(list(TINY_ALLOC))
TINY_LABELS = np.array(list(TINY_ALLOC.values()))


@pytest.fixture(scope="module")
def tiny_df(spark):
    return spark.createDataFrame(tiny_tx_pdf().to_dict("records"), schema=TX_SCHEMA)


@pytest.fixture(scope="module")
def tiny_alloc_df(spark):
    return spark.createDataFrame(
        pd.DataFrame({"alloc": 0, "account": TINY_ACCOUNTS, "shard": TINY_LABELS})
    )


# DuckDB's (alloc, shard, mu, count) over tables acc(tx_id, account) and
# alloc(alloc, account, shard).
SPAN_COUNTS_SQL = """
    WITH spans AS (
        SELECT a.alloc, e.tx_id, a.shard
        FROM acc e JOIN alloc a USING (account)
        GROUP BY a.alloc, e.tx_id, a.shard
    ),
    mus AS (
        SELECT alloc, tx_id, COUNT(*) AS mu FROM spans GROUP BY alloc, tx_id
    )
    SELECT s.alloc, s.shard, m.mu, COUNT(*) AS "count"
    FROM spans s JOIN mus m USING (alloc, tx_id)
    GROUP BY s.alloc, s.shard, m.mu
"""


def exploded_accounts(tx_pdf: pd.DataFrame) -> pd.DataFrame:
    """``(tx_id, account)`` rows of a stream, for the DuckDB oracle."""
    exploded = tx_pdf.explode("accounts").rename(columns={"accounts": "account"})
    exploded["account"] = exploded["account"].astype("int64")
    return exploded[["tx_id", "account"]]


def stacked_hash_allocs(spark, adj, ks=(6, 9)):
    """Two hash allocations of ``adj`` stacked in one frame: (pandas, Spark)."""
    labels = [hash_alloc(adj.nodes, k) for k in ks]
    alloc = pd.concat(
        pd.DataFrame({"alloc": a, "account": adj.nodes, "shard": x}) for a, x in enumerate(labels)
    )
    return alloc, alloc_to_df(spark, adj, labels)


class TestTinyHandComputed:
    """Every number below is derived by hand in the module docstring's
    stream: tx5 {2,4} and tx6 {1,2,3,4} are the only cross txs."""

    def test_mu(self, tiny_df, tiny_alloc_df):
        # Shard 0 = {1,2,3}: tx0-3 intra, tx5 {2,4} and tx6 {1,2,3,4} span 2;
        # shard 1 = {4,5,6}: tx4 and tx7 intra, plus the same two cross txs.
        rows = shard_mu_counts(tiny_df, tiny_alloc_df).collect()
        got = sorted((r["alloc"], r["shard"], r["mu"], r["count"]) for r in rows)
        assert got == [(0, 0, 1, 4), (0, 0, 2, 2), (0, 1, 1, 2), (0, 1, 2, 2)]

    def test_gamma(self, tiny_df, tiny_alloc_df):
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0)
        assert m.gamma == pytest.approx(0.25)

    def test_sigmas(self, tiny_df, tiny_alloc_df):
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0)
        np.testing.assert_allclose(m.sigmas, [8.0, 6.0])

    def test_sigmas_eta_dependence(self, tiny_df, tiny_alloc_df):
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=5.0)
        np.testing.assert_allclose(m.sigmas, [4 + 2 * 5, 2 + 2 * 5])

    def test_rho(self, tiny_df, tiny_alloc_df):
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0)
        assert m.rho == pytest.approx(1.0)

    def test_throughput_capacity_clipped(self, tiny_df, tiny_alloc_df):
        # lam defaults to 8/2 = 4; Lambda-hat = [5, 3] -> clipped 2.5 + 2.
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0)
        assert m.throughput == pytest.approx(4.5)
        assert m.norm_throughput == pytest.approx(4.5 / 4.0)

    def test_throughput_ample_capacity_counts_each_tx_once(self, tiny_df, tiny_alloc_df):
        # With sigma <= lam everywhere, shares 1/mu sum to exactly |T|.
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0, lam=100.0)
        assert m.throughput == pytest.approx(8.0)

    def test_latencies(self, tiny_df, tiny_alloc_df):
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0)
        assert m.avg_latency == pytest.approx((1.5 + 4.0 / 3.0) / 2)
        assert m.worst_latency == 2.0

    def test_norm_sigmas(self, tiny_df, tiny_alloc_df):
        m = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0)
        np.testing.assert_allclose(m.norm_sigmas, [2.0, 1.5])

    def test_shard_stats_frame(self, tiny_df, tiny_alloc_df):
        counts = shard_mu_counts(tiny_df, tiny_alloc_df).toPandas()
        n_txs, n_cross, stats = shard_stats(
            *(counts[c].to_numpy() for c in ("shard", "mu", "count"))
        )
        assert (n_txs, n_cross) == (8, 2)
        assert stats["n_intra"].tolist() == [4, 2]
        assert stats["n_cross"].tolist() == [2, 2]
        np.testing.assert_allclose(stats["lam_hat"], [5.0, 3.0])


class TestShardStats:
    """The fold of hand-made ``(shard, μ, count)`` tables."""

    def test_spans_one_to_four(self):
        # 3 intra txs on shard 0, 1 on shard 2; 2 txs of span 2 over {0, 1};
        # 1 tx of span 3 over {0, 1, 2}; 1 tx of span 4 over {0, 1, 2, 3}.
        # Shard 3 has no μ = 1 row; rows are in no particular order.
        shard = np.array([3, 0, 1, 2, 0, 1, 0, 2, 0, 1, 2])
        mu = np.array([4, 1, 2, 1, 2, 3, 3, 3, 4, 4, 4])
        count = np.array([1, 3, 2, 1, 2, 1, 1, 1, 1, 1, 1])
        n_txs, n_cross, frame = shard_stats(shard, mu, count)
        assert (n_txs, n_cross) == (8, 4)
        assert frame["shard"].tolist() == [0, 1, 2, 3]
        assert frame["n_intra"].tolist() == [3, 0, 1, 0]
        assert frame["n_cross"].tolist() == [4, 4, 2, 1]
        assert frame["lam_hat"].tolist() == [
            3 + 2 / 2 + 1 / 3 + 1 / 4,
            2 / 2 + 1 / 3 + 1 / 4,
            1 + 1 / 3 + 1 / 4,
            1 / 4,
        ]
        assert frame["lam_hat"].sum() == pytest.approx(n_txs)

    def test_empty_table(self):
        n_txs, n_cross, frame = shard_stats(*np.zeros((3, 0), dtype=np.int64))
        assert (n_txs, n_cross) == (0, 0)
        assert list(frame.columns) == ["shard", "n_intra", "n_cross", "lam_hat"]
        assert len(frame) == 0

    def test_span_counted_in_too_few_shards_raises(self):
        with pytest.raises(ValueError, match="exactly mu shards"):
            shard_stats(np.array([0]), np.array([2]), np.array([1]))


class TestPandasMirror:
    def test_tiny_matches_spark(self, tiny_df, tiny_alloc_df):
        m_s = evaluate(tiny_df, tiny_alloc_df, k=2, eta=2.0)
        m_p = evaluate_pandas(tiny_tx_pdf(), TINY_LABELS, k=2, eta=2.0, accounts=TINY_ACCOUNTS)
        assert m_p.gamma == m_s.gamma
        np.testing.assert_allclose(m_p.sigmas, m_s.sigmas)
        assert m_p.throughput == pytest.approx(m_s.throughput)
        assert m_p.avg_latency == pytest.approx(m_s.avg_latency)

    @pytest.mark.parametrize("k,eta", [(4, 2.0), (8, 6.0), (16, 10.0)])
    def test_generated_matches_spark(self, spark, tx_df, tx_pdf, adj, k, eta):
        labels = hash_alloc(adj.nodes, k)
        m_s = evaluate(tx_df, alloc_to_df(spark, adj, [labels]), k=k, eta=eta)
        m_p = evaluate_pandas(tx_pdf, labels, k=k, eta=eta, accounts=adj.nodes)
        # Both fold the same integer (shard, μ) counts: equal bit for bit.
        assert m_p.gamma == m_s.gamma
        np.testing.assert_array_equal(m_p.sigmas, m_s.sigmas)
        assert m_p.throughput == m_s.throughput
        assert m_p.avg_latency == m_s.avg_latency
        assert m_p.worst_latency == m_s.worst_latency

    def test_array_form_requires_accounts(self, tx_pdf):
        with pytest.raises(TypeError, match="accounts"):
            evaluate_pandas(tx_pdf, np.zeros(3, dtype=int), k=2, eta=2.0)

    def test_missing_account_raises(self):
        pdf = tiny_tx_pdf()
        with pytest.raises(KeyError):
            evaluate_pandas(pdf, np.zeros(1, dtype=int), k=2, eta=2.0, accounts=np.array([1]))

    def test_tx_without_accounts_rejected(self):
        pdf = tiny_tx_pdf()
        pdf.at[3, "accounts"] = []
        with pytest.raises(ValueError, match="transaction 3 has no accounts"):
            evaluate_pandas(pdf, TINY_LABELS, k=2, eta=2.0, accounts=TINY_ACCOUNTS)


class TestRollupPlumbing:
    def test_collect_then_rollup_equals_evaluate(self, tiny_df, tiny_alloc_df):
        (triple,) = collect_stats(tiny_df, tiny_alloc_df).values()
        for eta in (2.0, 6.0, 10.0):
            a = rollup(*triple, k=2, eta=eta)
            b = evaluate(tiny_df, tiny_alloc_df, k=2, eta=eta)
            assert a.gamma == b.gamma
            np.testing.assert_allclose(a.sigmas, b.sigmas)
            assert a.throughput == pytest.approx(b.throughput)

    def test_empty_shards_present(self, tiny_df, tiny_alloc_df):
        m = evaluate(tiny_df, tiny_alloc_df, k=5, eta=2.0)
        assert len(m.sigmas) == 5
        assert (m.sigmas[2:] == 0).all()


class TestOracle:
    def test_mu_vs_duckdb(self, tiny_df, spark):
        # Two allocations of the tiny stream in one frame: the hand-made
        # one and everything on shard 0.
        alloc = pd.concat(
            [
                pd.DataFrame({"alloc": 0, "account": TINY_ACCOUNTS, "shard": TINY_LABELS}),
                pd.DataFrame({"alloc": 1, "account": TINY_ACCOUNTS, "shard": 0}),
            ]
        )
        got = shard_mu_counts(tiny_df, spark.createDataFrame(alloc))
        assert_equivalent(got, SPAN_COUNTS_SQL, acc=exploded_accounts(tiny_tx_pdf()), alloc=alloc)

    def test_shard_stats_vs_duckdb(self, spark, tx_df, tx_pdf, adj):
        alloc, alloc_df = stacked_hash_allocs(spark, adj)
        got = shard_mu_counts(tx_df, alloc_df)
        assert_equivalent(got, SPAN_COUNTS_SQL, acc=exploded_accounts(tx_pdf), alloc=alloc)

    def test_gamma_vs_duckdb(self, spark, tx_df, tx_pdf, adj):
        alloc, alloc_df = stacked_hash_allocs(spark, adj)
        got = {a: triple[:2] for a, triple in collect_stats(tx_df, alloc_df).items()}
        import duckdb

        con = duckdb.connect()
        con.register("acc", exploded_accounts(tx_pdf))
        con.register("alloc", alloc)
        want = con.execute(
            """
            WITH mus AS (
              SELECT a.alloc, e.tx_id, COUNT(DISTINCT a.shard) AS mu
              FROM acc e JOIN alloc a USING (account) GROUP BY a.alloc, e.tx_id
            )
            SELECT alloc, COUNT(*), SUM(CASE WHEN mu > 1 THEN 1 ELSE 0 END)
            FROM mus GROUP BY alloc
            """
        ).fetchall()
        con.close()
        assert got == {int(a): (int(n), int(c)) for a, n, c in want}
        assert all(n == len(tx_pdf) for n, _ in got.values())
