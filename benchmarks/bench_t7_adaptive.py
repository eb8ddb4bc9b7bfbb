"""T7 bench (Fig. 9): one A-TxAllo adaptive step — the operation whose
per-step cost and throughput retention Fig. 9 tracks."""
import numpy as np

from benchmarks.conftest import ETA, K


def _split(bench_tx_pdf):
    blocks = np.sort(bench_tx_pdf["block"].unique())
    cut = blocks[int(len(blocks) * 0.9) - 1]
    hist = bench_tx_pdf[bench_tx_pdf["block"] <= cut]
    new = bench_tx_pdf[bench_tx_pdf["block"] > cut]
    return hist.reset_index(drop=True), new.reset_index(drop=True)


def test_t7_a_txallo_step(benchmark, bench_tx_pdf, bench_adj):
    from repro.chain import tx_incidence
    from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
    from repro.txallo import a_txallo, g_txallo
    from repro.txallo.a_txallo import map_prev_labels

    hist, new = _split(bench_tx_pdf)
    adj_hist = adjacency_from_pandas(build_tx_graph_pandas(hist))
    base = g_txallo(adj_hist, k=K, eta=ETA, lam=len(hist) / K)
    adj_full = bench_adj
    prev = map_prev_labels(adj_full, adj_hist.nodes, base)
    hot = adj_full.index_of(np.unique(tx_incidence(new)[1]))
    lam = len(bench_tx_pdf) / K

    def run():
        return a_txallo(adj_full, prev, hot, k=K, eta=ETA, lam=lam)

    labels = benchmark(run)
    assert labels.min() >= 0
