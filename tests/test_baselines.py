"""Tests for the three baseline allocators."""
import importlib
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro import kernels
from repro.baselines import hash_alloc, metis_like, shard_scheduler
from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas
from repro.metrics.blockchain import rollup
from repro.txallo.a_txallo import LABEL_DTYPE
from tests import reference
from tests.conftest import label_digest, two_cliques_edges
from tests.reference import graph_gamma

scheduler_module = importlib.import_module("repro.baselines.shard_scheduler")


def canon_and_messy_streams() -> tuple[pd.DataFrame, pd.DataFrame]:
    """An 8-transaction stream, and the same stream with each account list
    reversed plus its first account twice more, rows out of ``tx_id``
    order. At k = 2, a repeated account 1 would win tx 3's affinity tie
    and move account 5."""
    rows = [
        (0, 0, [1]), (1, 0, [2]), (2, 0, [3]), (3, 0, [1, 2, 5]),
        (4, 1, [4, 6]), (5, 1, [3, 4, 6]), (6, 1, [2, 6]), (7, 1, [4, 7]),
    ]
    canon = pd.DataFrame(rows, columns=["tx_id", "block", "accounts"])
    messy = canon.assign(
        accounts=[list(reversed(a)) + a[:1] * 2 for a in canon["accounts"]]
    ).iloc[[5, 0, 7, 2, 1, 6, 3, 4]]
    return canon, messy


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
        assert res.accounts.tolist() == sorted(accounts)
        assert len(res.shards) == len(res.accounts)

    def test_labels_in_range(self, tx_pdf):
        res, _ = self._run(tx_pdf, k=8)
        assert res.shards.dtype == LABEL_DTYPE
        assert 0 <= res.shards.min() and res.shards.max() < 8

    def test_deterministic(self, tx_pdf):
        a, _ = self._run(tx_pdf)
        b, _ = self._run(tx_pdf)
        np.testing.assert_array_equal(a.accounts, b.accounts)
        np.testing.assert_array_equal(a.shards, b.shards)
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
        assert set(res.shards.tolist()) == {0}

    def test_pinned(self, tx_pdf):
        """Refactors must not move a placement or a streaming count on the
        SMALL stream: ``shards`` (ascending account order), then the
        ``(shard, mu, count)`` table."""
        res, _ = self._run(tx_pdf, k=8, eta=2.0)
        assert label_digest(np.concatenate([res.shards, *res.counts])) == (
            "c2d3663355dfbd82cc3014dff9172be6b8429dc2e27be32a0f52de858e21cc58"
        )

    def test_reads_account_sets_in_tx_id_order(self):
        """Unsorted, repeated accounts and rows out of ``tx_id`` order
        schedule exactly like the canonical stream."""
        canon, messy = canon_and_messy_streams()
        for k in (2, 3):
            a, _ = self._run(canon, k=k)
            b, _ = self._run(messy, k=k)
            np.testing.assert_array_equal(a.accounts, b.accounts)
            np.testing.assert_array_equal(a.shards, b.shards)
            for x, y in zip(a.counts, b.counts):
                np.testing.assert_array_equal(x, y)

    def test_empty_account_list_raises(self):
        bad = pd.DataFrame(
            [(0, 0, [1, 2]), (1, 0, [])], columns=["tx_id", "block", "accounts"]
        )
        with pytest.raises(ValueError, match="transaction 1 has no accounts"):
            self._run(bad, k=2)

    @pytest.mark.parametrize("k", [0, -1, 32769])
    def test_k_out_of_range_raises(self, tx_pdf, k):
        with pytest.raises(ValueError, match=f"k={k} shards"):
            shard_scheduler(tx_pdf, k, eta=2.0, lam=1.0)

    def test_too_many_accounts_raises(self, monkeypatch):
        canon, _ = canon_and_messy_streams()  # 7 accounts
        monkeypatch.setattr(scheduler_module, "MAX_ACCOUNTS", 6)
        with pytest.raises(ValueError, match="7 accounts do not fit"):
            self._run(canon, k=2)

    def test_kernel_out_of_memory_raises(self, monkeypatch):
        canon, _ = canon_and_messy_streams()
        monkeypatch.setattr(kernels, "lib", SimpleNamespace(shard_scheduler=lambda *args: -1))
        with pytest.raises(MemoryError, match="shard_scheduler"):
            self._run(canon, k=2)


class TestSchedulerKernel:
    """The compiled stream equals the Python loop of ``tests/reference.py``
    exactly: every account's final shard and the ``(shard, mu, count)``
    table."""

    @pytest.fixture(scope="class")
    def streams(self, tx_pdf):
        _, messy = canon_and_messy_streams()
        seed11 = eth_transactions_pandas(EthParams(sf=0.005, seed=11))
        return {"small": tx_pdf, "messy": messy, "sf0.005-seed11": seed11}

    @pytest.mark.parametrize("eta", [2.0, 6.0])
    @pytest.mark.parametrize("k", [1, 2, 8, 20])
    @pytest.mark.parametrize("stream", ["small", "messy", "sf0.005-seed11"])
    def test_equals_reference(self, streams, stream, k, eta):
        tx_pdf = streams[stream]
        lam = len(tx_pdf) / k
        res = shard_scheduler(tx_pdf, k, eta=eta, lam=lam)
        shard_of, counts = reference.shard_scheduler(tx_pdf, k, eta=eta, lam=lam)
        assert res.accounts.tolist() == sorted(shard_of)
        assert res.shards.tolist() == [shard_of[a] for a in sorted(shard_of)]
        for got, want in zip(res.counts, counts, strict=True):
            np.testing.assert_array_equal(got, want)
