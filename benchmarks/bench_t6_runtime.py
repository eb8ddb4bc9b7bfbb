"""T6 bench (Fig. 8): allocation running time per method.

The pytest-benchmark medians of these four benches are the T6 table at
bench scale. As in EXPERIMENTS.md T6, random is near zero and G-TxAllo
beats METIS-like, but the Shard Scheduler stand-in is faster than both
graph methods, unlike the paper's, which is slowest (the documented T6
deviation: its cost is per transaction, the graph methods' per account).
"""
import pytest

from benchmarks.conftest import ETA, K


@pytest.mark.parametrize("method", ["random", "metis", "scheduler", "txallo"])
def test_t6_allocation_runtime(benchmark, method, bench_adj, bench_tx_pdf, bench_lam):
    from repro.sim.runner import allocate

    def run():
        return allocate(
            method, bench_adj, k=K, eta=ETA, lam=bench_lam, tx_pdf=bench_tx_pdf
        )

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(res.labels) == bench_adj.n
