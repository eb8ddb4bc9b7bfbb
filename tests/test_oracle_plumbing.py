"""Sanity tests for the DuckDB oracle on the Ethereum-like stream.

These keep the shared scaffolding honest: the DuckDB oracle must accept a
correct Spark query and reject a wrong one.
"""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def txs(tx_df):
    """The stream with its account list reduced to a scalar arity."""
    return tx_df.select("tx_id", "block", F.size("accounts").alias("n_acc")).cache()


class TestOracle:
    def test_accepts_correct_aggregation(self, txs):
        got = txs.groupBy("block").agg(
            F.count("*").alias("n"),
            F.sum("n_acc").alias("n_acc"),
        )
        sql = "SELECT block, COUNT(*) AS n, SUM(n_acc) AS n_acc FROM txs GROUP BY block"
        assert_equivalent(got, sql, txs=txs)

    def test_rejects_wrong_result(self, txs):
        got = txs.groupBy("block").agg((F.count("*") + 1).alias("n"))  # deliberately off by one
        sql = "SELECT block, COUNT(*) AS n FROM txs GROUP BY block"
        with pytest.raises(AssertionError):
            assert_equivalent(got, sql, txs=txs)

    def test_rejects_column_mismatch(self, txs):
        got = txs.groupBy("block").agg(F.count("*").alias("wrong_name"))
        sql = "SELECT block, COUNT(*) AS n FROM txs GROUP BY block"
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, sql, txs=txs)
