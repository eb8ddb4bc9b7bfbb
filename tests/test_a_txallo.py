"""Tests for A-TxAllo (Algorithm 2) and the label re-alignment helper."""
import numpy as np
import pytest

from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.txallo import a_txallo, g_txallo
from repro.txallo.a_txallo import LABEL_DTYPE, map_prev_labels
from tests.conftest import label_digest
from tests.reference import graph_metrics


@pytest.fixture(scope="module")
def split_stream():
    """History (first 80% of blocks) + the new slice, with graphs."""
    pdf = eth_transactions_pandas(EthParams(sf=0.004, seed=5))
    blocks = np.sort(pdf["block"].unique())
    cut = blocks[int(len(blocks) * 0.8) - 1]
    hist = pdf[pdf["block"] <= cut].reset_index(drop=True)
    new = pdf[pdf["block"] > cut].reset_index(drop=True)
    adj_hist = adjacency_from_pandas(build_tx_graph_pandas(hist))
    adj_full = adjacency_from_pandas(build_tx_graph_pandas(pdf))
    return hist, new, adj_hist, adj_full


def _hot(adj_full, new):
    accs = np.unique(np.concatenate([np.asarray(a) for a in new["accounts"]]))
    return adj_full.index_of(accs)


class TestMapPrevLabels:
    def test_alignment(self, split_stream):
        hist, new, adj_hist, adj_full = split_stream
        prev = np.arange(adj_hist.n) % 4
        mapped = map_prev_labels(adj_full, adj_hist.nodes, prev)
        # Every surviving account keeps its label; new accounts get -1.
        for i, acc in enumerate(adj_full.nodes):
            j = np.searchsorted(adj_hist.nodes, acc)
            if j < adj_hist.n and adj_hist.nodes[j] == acc:
                assert mapped[i] == prev[j]
            else:
                assert mapped[i] == -1

    def test_empty_previous(self, split_stream):
        *_, adj_full = split_stream
        mapped = map_prev_labels(adj_full, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert (mapped == -1).all()

    def test_new_accounts_exist(self, split_stream):
        hist, new, adj_hist, adj_full = split_stream
        assert adj_full.n > adj_hist.n  # the generator must create newcomers


class TestATxAllo:
    def _setup(self, split_stream, k=6, eta=2.0):
        hist, new, adj_hist, adj_full = split_stream
        lam_h = len(hist) / k
        base = g_txallo(adj_hist, k=k, eta=eta, lam=lam_h)
        prev = map_prev_labels(adj_full, adj_hist.nodes, base)
        hot = _hot(adj_full, new)
        lam = (len(hist) + len(new)) / k
        return adj_full, prev, hot, lam

    def test_all_nodes_allocated(self, split_stream):
        adj_full, prev, hot, lam = self._setup(split_stream)
        labels = a_txallo(adj_full, prev, hot, k=6, eta=2.0, lam=lam)
        assert labels.min() >= 0
        assert labels.max() < 6

    def test_cold_nodes_untouched(self, split_stream):
        """Only V̂ is re-optimized: every node outside the new blocks
        keeps its previous shard (the essence of O(|V̂|k) complexity)."""
        adj_full, prev, hot, lam = self._setup(split_stream)
        labels = a_txallo(adj_full, prev, hot, k=6, eta=2.0, lam=lam)
        cold = np.setdiff1d(np.arange(adj_full.n), hot)
        np.testing.assert_array_equal(labels[cold], prev[cold])

    def test_deterministic(self, split_stream):
        adj_full, prev, hot, lam = self._setup(split_stream)
        a = a_txallo(adj_full, prev, hot, k=6, eta=2.0, lam=lam)
        b = a_txallo(adj_full, prev, hot, k=6, eta=2.0, lam=lam)
        np.testing.assert_array_equal(a, b)

    def test_does_not_mutate_prev(self, split_stream):
        adj_full, prev, hot, lam = self._setup(split_stream)
        snapshot = prev.copy()
        a_txallo(adj_full, prev, hot, k=6, eta=2.0, lam=lam)
        np.testing.assert_array_equal(prev, snapshot)

    def test_improves_or_matches_naive_extension(self, split_stream):
        """A-TxAllo must beat 'previous mapping + new nodes by hash'."""
        adj_full, prev, hot, lam = self._setup(split_stream)
        k, eta = 6, 2.0
        labels = a_txallo(adj_full, prev, hot, k=k, eta=eta, lam=lam)
        from repro.baselines import hash_alloc

        naive = prev.copy()
        newb = naive < 0
        naive[newb] = hash_alloc(adj_full.nodes[newb], k)
        ours = graph_metrics(adj_full, labels, k, eta=eta, lam=lam)
        base = graph_metrics(adj_full, naive, k, eta=eta, lam=lam)
        assert ours["throughput"] >= base["throughput"] - 1e-9

    def test_labels_pinned(self, split_stream):
        """Kernel refactors must not move a single A-TxAllo label."""
        adj_full, prev, hot, lam = self._setup(split_stream)
        labels = a_txallo(adj_full, prev, hot, k=6, eta=2.0, lam=lam)
        assert labels.dtype == prev.dtype == LABEL_DTYPE
        assert label_digest(labels) == (
            "061f2833b64d8ec80cf6d7ee1b3d5a84ec6f31667412dafcf16b364861954fbc"
        )

    def test_stale_mapping_rejected(self, split_stream):
        adj_full, prev, hot, lam = self._setup(split_stream)
        # Declare V-hat empty although new (-1) nodes exist -> error.
        with pytest.raises(ValueError):
            a_txallo(adj_full, prev, np.array([], dtype=np.int64), k=6, eta=2.0, lam=lam)
        with pytest.raises(ValueError, match="do not fit"):  # 16-bit shard labels
            a_txallo(adj_full, prev, hot, k=2**15 + 1, eta=2.0, lam=lam)

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_hot_nodes_out_of_range_rejected(self, split_stream, bad):
        adj_full, prev, hot, lam = self._setup(split_stream)
        extra = adj_full.n if bad == "n" else bad
        with pytest.raises(ValueError, match="V-hat node indices"):
            a_txallo(adj_full, prev, np.append(hot, extra), k=6, eta=2.0, lam=lam)

    def test_close_to_global_rerun(self, split_stream):
        """§VI-C: the adaptive result should not lose much throughput
        against a fresh global run on the full graph."""
        adj_full, prev, hot, lam = self._setup(split_stream)
        k, eta = 6, 2.0
        a_lab = a_txallo(adj_full, prev, hot, k=k, eta=eta, lam=lam)
        g_lab = g_txallo(adj_full, k=k, eta=eta, lam=lam)
        a_m = graph_metrics(adj_full, a_lab, k, eta=eta, lam=lam)
        g_m = graph_metrics(adj_full, g_lab, k, eta=eta, lam=lam)
        assert a_m["throughput"] >= 0.8 * g_m["throughput"]
