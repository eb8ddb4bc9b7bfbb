"""End-to-end integration tests: the paper's qualitative claims must hold
on the synthetic workload (these are the 'shape' assertions of T1-T6)."""
import numpy as np
import pytest

from repro.metrics.blockchain import evaluate
from repro.sim.runner import alloc_to_df, allocate, sweep


@pytest.fixture(scope="module")
def results(spark, tx_df, tx_pdf, adj):
    """All four methods at k=8, eta=2 on the shared small stream: the
    sweep's rows, by method."""
    grid = sweep(spark, tx_df, adj, ks=[8], etas=[2.0], tx_pdf=tx_pdf)
    return {row.method: row for row in grid.itertuples()}


class TestPaperShape:
    """Section VI-B7's conclusions, checked as orderings."""

    def test_txallo_lowest_gamma(self, results):
        g = {m: r.gamma for m, r in results.items()}
        assert g["txallo"] == min(g.values())

    def test_random_highest_gamma(self, results):
        g = {m: r.gamma for m, r in results.items()}
        assert g["random"] == max(g.values())

    def test_metis_between(self, results):
        assert results["txallo"].gamma < results["metis"].gamma < results["random"].gamma

    def test_scheduler_best_balance(self, results):
        rhos = {m: r.rho for m, r in results.items()}
        assert rhos["scheduler"] == min(rhos.values())

    def test_txallo_best_throughput_among_map_methods(self, results):
        # Fig. 5: G-TxAllo beats METIS and random.
        assert results["txallo"].norm_throughput > results["metis"].norm_throughput
        assert results["txallo"].norm_throughput > results["random"].norm_throughput

    def test_txallo_best_avg_latency(self, results):
        z = {m: r.avg_latency for m, r in results.items()}
        assert z["txallo"] == min(z.values())

    def test_scheduler_best_worst_case_latency(self, results):
        w = {m: r.worst_latency for m, r in results.items()}
        assert w["scheduler"] == min(w.values())

    def test_gamma_reduction_in_scale(self, results):
        # Abstract: ~98% -> ~12% at k=60 on real data; at our tiny SF and
        # k=8 demand at least a 3x reduction from random.
        assert results["txallo"].gamma < results["random"].gamma / 3.0

    def test_hub_shard_overloaded_except_scheduler(self, results):
        # Fig. 4: the 11%-hub shard stands out for every account-map
        # method, while the transaction-level scheduler's profile is
        # flat (no outlier shard) and its peak is the lowest of all.
        for m in ("random", "metis", "txallo"):
            assert results[m].norm_sigmas.max() > 1.2
        sched = results["scheduler"].norm_sigmas
        assert sched.max() - sched.min() < 0.5
        for m in ("random", "metis", "txallo"):
            other = results[m].norm_sigmas
            assert sched.max() - sched.min() < other.max() - other.min()


class TestThroughputScaling:
    def test_throughput_grows_with_k(self, spark, tx_df, tx_pdf, adj):
        """Fig. 5: Λ/λ grows ~linearly in k for TxAllo."""
        n = tx_df.count()
        vals = []
        for k in (2, 4, 8):
            res = allocate("txallo", adj, k=k, eta=2.0, lam=n / k)
            m = evaluate(tx_df, alloc_to_df(spark, adj, [res.labels]), k=k, eta=2.0)
            vals.append(m.norm_throughput)
        assert vals[0] < vals[1] < vals[2]

    def test_throughput_decreases_with_eta(self, spark, tx_df, adj):
        """Fig. 5: larger η lowers everyone's throughput (random here)."""
        res = allocate("random", adj, k=8, eta=2.0, lam=tx_df.count() / 8)
        adf = alloc_to_df(spark, adj, [res.labels])
        t2 = evaluate(tx_df, adf, k=8, eta=2.0).norm_throughput
        t10 = evaluate(tx_df, adf, k=8, eta=10.0).norm_throughput
        assert t10 < t2


class TestDeterministicEndToEnd:
    @pytest.mark.parametrize("method", ["random", "metis", "txallo"])
    def test_repeat_runs_identical(self, adj, tx_pdf, method):
        a = allocate(method, adj, k=6, eta=2.0, lam=len(tx_pdf) / 6, tx_pdf=tx_pdf)
        b = allocate(method, adj, k=6, eta=2.0, lam=len(tx_pdf) / 6, tx_pdf=tx_pdf)
        np.testing.assert_array_equal(a.labels, b.labels)
