"""T8 bench (Fig. 10): a whole adaptive step (A) vs the global rerun (G)
on the same accumulated graph — the paper's 0.55 s vs 122 s contrast.

The A step is what ``adaptive_simulation`` does per step: graph upkeep
(count the eval split's transactions' edges, merge them into the kept
history counts, fold them into weights, build the CSR) plus the A-TxAllo
update.
"""
import numpy as np
import pytest

from benchmarks.conftest import ETA, K


def _split(bench_tx_pdf):
    """The 9:1 history/evaluation split by block."""
    blocks = np.sort(bench_tx_pdf["block"].unique())
    cut = blocks[int(len(blocks) * 0.9) - 1]
    hist = bench_tx_pdf[bench_tx_pdf["block"] <= cut]
    new = bench_tx_pdf[bench_tx_pdf["block"] > cut]
    return hist.reset_index(drop=True), new.reset_index(drop=True)


@pytest.fixture(scope="module")
def setup(bench_tx_pdf):
    from repro.graph import adjacency_from_pandas, count_tx_edges, fold_tx_counts
    from repro.txallo import g_txallo

    hist, new = _split(bench_tx_pdf)
    hist_counts = count_tx_edges(hist)
    adj_hist = adjacency_from_pandas(fold_tx_counts(*hist_counts))
    base = g_txallo(adj_hist, k=K, eta=ETA, lam=len(hist) / K)
    return hist_counts, new, adj_hist.nodes, base, len(bench_tx_pdf) / K


def test_t8_adaptive_step(benchmark, setup):
    from repro.graph import adjacency_from_pandas, count_tx_edges, fold_tx_counts, merge_tx_counts
    from repro.txallo import a_txallo
    from repro.txallo.a_txallo import map_prev_labels

    hist_counts, new, hist_nodes, base, lam = setup

    def run():
        new_counts = count_tx_edges(new)
        adj = adjacency_from_pandas(fold_tx_counts(*merge_tx_counts(hist_counts, new_counts)))
        prev = map_prev_labels(adj, hist_nodes, base)
        hot = adj.index_of(np.unique(np.concatenate(new_counts[:2])))
        return a_txallo(adj, prev, hot, k=K, eta=ETA, lam=lam)

    benchmark(run)


def test_t8_global_rerun(benchmark, bench_adj, setup):
    from repro.txallo import g_txallo

    *_, lam = setup

    def run():
        return g_txallo(bench_adj, k=K, eta=ETA, lam=lam)

    benchmark.pedantic(run, rounds=3, iterations=1)
