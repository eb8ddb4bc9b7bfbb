"""Tests for the three baseline allocators."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import hash_alloc, metis_like, shard_scheduler
from repro.graph import adjacency_from_pandas
from repro.metrics.blockchain import rollup
from repro.metrics.graphlevel import graph_gamma
from tests.conftest import label_digest, two_cliques_edges


class TestHashAlloc:
    @pytest.mark.parametrize("k", [2, 7, 16, 60])
    def test_range(self, k):
        labels = hash_alloc(np.arange(1000), k)
        assert labels.min() >= 0
        assert labels.max() < k

    def test_deterministic(self):
        a = hash_alloc(np.arange(100), 8)
        b = hash_alloc(np.arange(100), 8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [4, 10])
    def test_roughly_uniform(self, k):
        labels = hash_alloc(np.arange(50_000), k)
        counts = np.bincount(labels, minlength=k)
        assert counts.min() > 0.85 * 50_000 / k
        assert counts.max() < 1.15 * 50_000 / k

    def test_stateless_per_account(self):
        # An account's shard does not depend on which other accounts exist.
        a = hash_alloc(np.array([42]), 8)
        b = hash_alloc(np.arange(100), 8)
        assert a[0] == b[42]

    def test_cross_ratio_near_random_on_pairs(self, adj):
        # Uniform hashing puts a 2-account tx cross-shard w.p. ~(1-1/k).
        labels = hash_alloc(adj.nodes, 10)
        gamma = graph_gamma(adj, labels)
        assert gamma > 0.6


class TestMetisLike:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_range_and_coverage(self, adj, k):
        labels = metis_like(adj, k)
        assert labels.min() >= 0
        assert labels.max() < k
        assert len(labels) == adj.n

    def test_deterministic(self, adj):
        np.testing.assert_array_equal(metis_like(adj, 6), metis_like(adj, 6))

    def test_vertex_weight_balance(self, adj):
        """METIS balances *weight* (weighted degree), its defining
        property per the paper's critique — each part within ~2x of
        even, far tighter than the hub's single share."""
        k = 6
        labels = metis_like(adj, k)
        vw = adj.strength + adj.self_w
        part_w = np.bincount(labels, weights=vw, minlength=k)
        assert part_w.max() <= 2.0 * vw.sum() / k

    def test_cut_much_better_than_random(self, adj):
        k = 6
        cut_m = graph_gamma(adj, metis_like(adj, k))
        cut_r = graph_gamma(adj, hash_alloc(adj.nodes, k))
        assert cut_m < 0.75 * cut_r

    def test_two_cliques(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=6, bridge_w=0.1))
        labels = metis_like(adj, 2)
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    @pytest.mark.parametrize(
        "k, digest",
        [
            (4, "ae35134ab949ee816b4bb8625afbdd6e9fc039bb929c8f57055a78b86c76d3b7"),
            (20, "763c30e6e380feda2d63d845eae5de0a7c8d9dfc47fe3c635949f03fdc5f3254"),
        ],
    )
    def test_labels_pinned(self, adj, k, digest):
        """Kernel refactors must not move a single label on the SMALL stream."""
        assert label_digest(metis_like(adj, k)) == digest

    def test_tiny_graph_no_coarsening(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=3, bridge_w=0.5))
        labels = metis_like(adj, 2)
        assert labels.max() < 2


class TestShardScheduler:
    def _run(self, tx_pdf, k=8, eta=2.0):
        lam = len(tx_pdf) / k
        return shard_scheduler(tx_pdf, k, eta=eta, lam=lam), lam

    def test_every_account_mapped(self, tx_pdf):
        res, _ = self._run(tx_pdf)
        accounts = {a for lst in tx_pdf["accounts"] for a in lst}
        assert set(res.shard_of) == accounts

    def test_labels_in_range(self, tx_pdf):
        res, _ = self._run(tx_pdf, k=8)
        assert all(0 <= s < 8 for s in res.shard_of.values())

    def test_deterministic(self, tx_pdf):
        a, _ = self._run(tx_pdf)
        b, _ = self._run(tx_pdf)
        assert a.shard_of == b.shard_of
        (n_a, cross_a, frame_a), (n_b, cross_b, frame_b) = a.stats(), b.stats()
        assert (n_a, cross_a) == (n_b, cross_b)
        pd.testing.assert_frame_equal(frame_a, frame_b)

    def test_stream_counts_consistent(self, tx_pdf):
        res, _ = self._run(tx_pdf)
        n_txs, n_cross, frame = res.stats()
        assert n_txs == len(tx_pdf)
        # A cross tx is counted once per involved shard, mu >= 2.
        assert frame["n_cross"].sum() >= 2 * n_cross
        # Each tx contributes exactly 1 to the lam_hat total (1/mu per shard).
        assert frame["lam_hat"].sum() == pytest.approx(n_txs)

    def test_intra_plus_cross_totals(self, tx_pdf):
        res, _ = self._run(tx_pdf)
        n_txs, n_cross, frame = res.stats()
        assert int(frame["n_intra"].sum()) + n_cross == n_txs

    def test_streaming_balance_is_tight(self, tx_pdf):
        """The paper's headline property (Figs. 3, 4c): near-zero ρ —
        the per-shard workload profile is flat (no outlier shard)."""
        res, lam = self._run(tx_pdf, k=8)
        m = rollup(*res.stats(), k=8, eta=2.0, lam=lam)
        assert m.rho / lam < 0.2
        assert m.norm_sigmas.max() - m.norm_sigmas.min() < 0.5

    def test_gamma_better_than_random_worse_than_nothing(self, tx_pdf, adj):
        res, lam = self._run(tx_pdf, k=8)
        m = rollup(*res.stats(), k=8, eta=2.0, lam=lam)
        gamma_rand = graph_gamma(adj, hash_alloc(adj.nodes, 8))
        assert 0.1 < m.gamma < gamma_rand + 0.05

    def test_stats_frame_shape(self, tx_pdf):
        res, _ = self._run(tx_pdf, k=5)
        n_txs, n_cross, frame = res.stats()
        assert list(frame.columns) == ["shard", "n_intra", "n_cross", "lam_hat"]
        assert len(frame) == 5

    def test_single_shard(self, tx_pdf):
        res, lam = self._run(tx_pdf, k=1)
        assert res.stats()[:2] == (len(tx_pdf), 0)
        assert set(res.shard_of.values()) == {0}
