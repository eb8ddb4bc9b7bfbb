"""T6 bench (Fig. 8): allocation running time per method.

The pytest-benchmark medians of these four benches are the T6 table at
bench scale. As in EXPERIMENTS.md T6, random is near zero and G-TxAllo
beats METIS-like. The Shard Scheduler stand-in is not the slowest method,
unlike the paper's (the documented T6 deviation): at SF 0.1 it is slower
than G-TxAllo at k >= 20 and faster at smaller k, and its cost grows with
the number of transactions, the graph methods' with the number of accounts.
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
