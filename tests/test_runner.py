"""Tests for the static-experiment harness (sim.runner)."""
import numpy as np
import pytest

from repro.baselines import hash_alloc
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.metrics.blockchain import evaluate, rollup
from repro.sim.runner import METHODS, AllocResult, alloc_to_df, allocate, sweep


class TestAllocate:
    @pytest.mark.parametrize("method", METHODS)
    def test_dispatch(self, adj, tx_pdf, method):
        res = allocate(method, adj, k=4, eta=2.0, lam=len(tx_pdf) / 4, tx_pdf=tx_pdf)
        assert isinstance(res, AllocResult)
        assert len(res.labels) == adj.n
        assert res.labels.min() >= 0 and res.labels.max() < 4
        assert res.seconds >= 0

    def test_unknown_method(self, adj):
        with pytest.raises(ValueError, match="unknown method"):
            allocate("magic", adj, k=4, eta=2.0, lam=1.0)

    def test_scheduler_needs_stream(self, adj):
        with pytest.raises(ValueError, match="tx_pdf"):
            allocate("scheduler", adj, k=4, eta=2.0, lam=1.0)

    def test_scheduler_carries_stream_stats(self, adj, tx_pdf):
        res = allocate("scheduler", adj, k=4, eta=2.0, lam=len(tx_pdf) / 4, tx_pdf=tx_pdf)
        assert res.stream_stats is not None
        n_txs, n_cross, frame = res.stream_stats
        assert n_txs == len(tx_pdf)
        assert len(frame) == 4

    def test_graph_methods_have_no_stream_stats(self, adj, tx_pdf):
        res = allocate("random", adj, k=4, eta=2.0, lam=len(tx_pdf) / 4)
        assert res.stream_stats is None


class TestAllocToDf:
    def test_schema_and_rows(self, spark, adj):
        labels = [np.zeros(adj.n, dtype=np.int64), hash_alloc(adj.nodes, 4)]
        df = alloc_to_df(spark, adj, labels)
        assert [(f.name, f.dataType.simpleString()) for f in df.schema.fields] == [
            ("alloc", "bigint"),
            ("account", "bigint"),
            ("shard", "bigint"),
        ]
        got = df.toPandas()
        assert len(got) == 2 * adj.n
        for alloc, want in enumerate(labels):
            rows = got[got["alloc"] == alloc]
            np.testing.assert_array_equal(rows["account"], adj.nodes)
            np.testing.assert_array_equal(rows["shard"], want)


class TestSweep:
    @pytest.fixture(scope="class")
    def grid(self, spark, tx_df, tx_pdf, adj):
        return sweep(
            spark,
            tx_df,
            adj,
            ks=[2, 4],
            etas=[2.0, 6.0],
            methods=["random", "txallo", "scheduler"],
            tx_pdf=tx_pdf,
        )

    def test_grid_complete(self, grid):
        assert len(grid) == 2 * 2 * 3
        assert set(grid["method"]) == {"random", "txallo", "scheduler"}
        assert set(grid["k"]) == {2, 4}
        assert set(grid["eta"]) == {2.0, 6.0}

    def test_columns(self, grid):
        expect = {
            "method", "k", "eta", "gamma", "rho", "norm_rho", "norm_throughput",
            "avg_latency", "worst_latency", "norm_sigmas", "alloc_seconds",
        }
        assert set(grid.columns) == expect
        assert all(len(v) == k for v, k in zip(grid["norm_sigmas"], grid["k"]))

    def _row(self, grid, method, k, eta):
        return grid[(grid.method == method) & (grid.k == k) & (grid.eta == eta)].iloc[0]

    def test_map_method_rows_are_spark_evaluation(self, grid, spark, tx_df, adj):
        """An account-mapping method is scored by the Spark pipeline once
        per k, rolled up at every η."""
        alloc_df = alloc_to_df(spark, adj, [hash_alloc(adj.nodes, 4)])
        for eta in (2.0, 6.0):
            m = evaluate(tx_df, alloc_df, k=4, eta=eta)
            row = self._row(grid, "random", 4, eta)
            assert row["gamma"] == m.gamma
            assert row["norm_throughput"] == m.norm_throughput
            np.testing.assert_array_equal(row["norm_sigmas"], m.norm_sigmas)

    def test_scheduler_rows_are_stream_stats(self, grid, adj, tx_pdf):
        """The scheduler is scored by its streaming statistics, re-run per η."""
        for eta in (2.0, 6.0):
            res = allocate("scheduler", adj, k=2, eta=eta, lam=len(tx_pdf) / 2, tx_pdf=tx_pdf)
            m = rollup(*res.stream_stats, k=2, eta=eta, lam=len(tx_pdf) / 2)
            row = self._row(grid, "scheduler", 2, eta)
            assert row["gamma"] == m.gamma
            assert row["norm_throughput"] == m.norm_throughput

    def test_values_sane(self, grid):
        assert grid["gamma"].between(0, 1).all()
        assert (grid["norm_throughput"] > 0).all()
        assert (grid["avg_latency"] >= 1).all()
        assert (grid["worst_latency"] >= 1).all()
        assert (grid["alloc_seconds"] >= 0).all()

    def test_eta_independent_methods_share_gamma(self, grid):
        # random's allocation is eta-independent: same gamma across eta.
        r = grid[grid.method == "random"]
        for k in (2, 4):
            vals = r[r.k == k]["gamma"].unique()
            assert len(vals) == 1

    def test_txallo_beats_random_throughput(self, grid):
        for (k, eta), sub in grid.groupby(["k", "eta"]):
            t = sub[sub.method == "txallo"]["norm_throughput"].iloc[0]
            r = sub[sub.method == "random"]["norm_throughput"].iloc[0]
            assert t >= r * 0.95  # txallo should essentially never lose

    def test_adj_missing_accounts_raises(self, spark, tx_df, tx_pdf):
        """A graph that lacks every account of one transaction drops that
        transaction from the evaluation; the sweep refuses it."""
        last = set(tx_pdf["accounts"].iloc[-1])
        rest = tx_pdf[[last.isdisjoint(a) for a in tx_pdf["accounts"]]]
        partial = adjacency_from_pandas(build_tx_graph_pandas(rest))
        with pytest.raises(ValueError, match=f"of the stream's {len(tx_pdf)} transactions"):
            sweep(spark, tx_df, partial, ks=[2], etas=[2.0], methods=["random"])
