"""Tests for the incremental TxAllo state (Eqs. 6-8, Lemma 1).

The load-bearing check: after *any* sequence of single-node moves, the
incrementally maintained (σ, Λ̂) must equal the from-scratch
``community_state`` recomputation — this pins the join/leave delta
algebra of §V-B exactly.
"""
import numpy as np
import pytest

from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.metrics.graphlevel import community_state
from repro.metrics.formulas import clip_throughput
from repro.txallo.state import TxAlloState
from tests.conftest import tiny_tx_pdf, two_cliques_edges


@pytest.fixture(scope="module")
def tiny_adj():
    return adjacency_from_pandas(build_tx_graph_pandas(tiny_tx_pdf()))


def _assert_state_consistent(state: TxAlloState) -> None:
    sigma, lam_hat = community_state(state.adj, state.labels, state.k, eta=state.eta)
    np.testing.assert_allclose(state.sigma, sigma, atol=1e-9)
    np.testing.assert_allclose(state.lam_hat, lam_hat, atol=1e-9)


class TestIncrementalConsistency:
    @pytest.mark.parametrize("eta", [1.0, 2.0, 6.0])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_move_sequences(self, adj, eta, k, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k, adj.n)
        state = TxAlloState(adj, labels, k, eta=eta, lam=adj.total_weight / k)
        for _ in range(50):
            v = int(rng.integers(0, adj.n))
            q = int(rng.integers(0, k))
            state.move(v, q)
        _assert_state_consistent(state)

    def test_moves_from_unassigned(self, adj):
        k = 3
        labels = np.full(adj.n, -1)
        labels[: adj.n // 2] = np.arange(adj.n // 2) % k
        state = TxAlloState(adj, labels, k, eta=2.0, lam=adj.total_weight / k)
        rng = np.random.default_rng(3)
        unassigned = np.nonzero(state.labels < 0)[0]
        for v in unassigned[:50]:
            state.move(int(v), int(rng.integers(0, k)))
        _assert_state_consistent(state)

    def test_move_noop_same_community(self, tiny_adj):
        state = TxAlloState(tiny_adj, np.zeros(tiny_adj.n, dtype=int), 2, eta=2.0, lam=4.0)
        before = state.sigma.copy()
        state.move(0, 0)
        np.testing.assert_array_equal(state.sigma, before)


class TestGainMath:
    @pytest.mark.parametrize("eta", [2.0, 5.0])
    @pytest.mark.parametrize("lam_scale", [0.2, 1.0, 10.0])
    def test_move_gain_predicts_throughput_change(self, adj, eta, lam_scale):
        """Eq. (8)'s predicted gain equals the actual Λ delta of the move."""
        k = 4
        lam = lam_scale * adj.total_weight / k
        rng = np.random.default_rng(7)
        labels = rng.integers(0, k, adj.n)
        state = TxAlloState(adj, labels, k, eta=eta, lam=lam)
        for v in rng.integers(0, adj.n, 20):
            v = int(v)
            cands, w_vq = state.neighbor_communities(v)
            if cands.size == 0:
                continue
            gains = state.move_gain(v, cands, w_vq)
            before = state.throughput()
            j = int(rng.integers(0, len(cands)))
            state.move(v, int(cands[j]), float(w_vq[j]))
            after = state.throughput()
            assert after - before == pytest.approx(float(gains[j]), abs=1e-8)

    def test_join_then_leave_restores_state(self, tiny_adj):
        state = TxAlloState(
            tiny_adj, np.array([0, 0, 0, 1, 1, 1]), 2, eta=2.0, lam=4.0
        )
        sig0, lh0 = state.sigma.copy(), state.lam_hat.copy()
        state.move(0, 1)
        state.move(0, 0)
        np.testing.assert_allclose(state.sigma, sig0, atol=1e-12)
        np.testing.assert_allclose(state.lam_hat, lh0, atol=1e-12)

    def test_lemma1_other_communities_unchanged(self, adj):
        k = 5
        rng = np.random.default_rng(11)
        labels = rng.integers(0, k, adj.n)
        state = TxAlloState(adj, labels, k, eta=2.0, lam=adj.total_weight / k)
        v = 0
        p = int(state.labels[v])
        q = (p + 1) % k
        sig_before = state.sigma.copy()
        lh_before = state.lam_hat.copy()
        state.move(v, q)
        others = [j for j in range(k) if j not in (p, q)]
        np.testing.assert_array_equal(state.sigma[others], sig_before[others])
        np.testing.assert_array_equal(state.lam_hat[others], lh_before[others])

    def test_throughput_uses_capacity_clip(self, tiny_adj):
        labels = np.array([0, 0, 0, 1, 1, 1])
        state = TxAlloState(tiny_adj, labels, 2, eta=2.0, lam=4.0)
        expected = clip_throughput(state.sigma, state.lam_hat, 4.0).sum()
        assert state.throughput() == pytest.approx(float(expected))


class TestBestMoveFastPath:
    """The pure-Python `best_move` must make bit-identical decisions to
    the numpy reference path (candidates + Eq. 8), also after moves."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("eta,lam_scale", [(2.0, 1.0), (6.0, 0.3)])
    def test_agrees_with_numpy_path(self, adj, seed, eta, lam_scale):
        k = 5
        lam = lam_scale * adj.total_weight / k
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, k, adj.n)
        state = TxAlloState(adj, labels, k, eta=eta, lam=lam)
        for v in rng.integers(0, adj.n, 100):
            v = int(v)
            cands, w_vq = state.neighbor_communities(v)
            fast = state.best_move(v)
            if cands.size == 0:
                assert fast is None
                continue
            gains = state.move_gain(v, cands, w_vq)
            j = int(np.argmax(gains))
            q, gain, w, w_own = fast
            assert q == int(cands[j])
            assert gain == pytest.approx(float(gains[j]), abs=1e-10)
            assert w == pytest.approx(float(w_vq[j]))
            assert w_own == pytest.approx(state.own_weight(v))
            if gain > 0.0:
                state.move(v, q, w, w_own)

    def test_join_only_matches_join_gain(self, adj):
        k = 4
        labels = np.full(adj.n, -1)
        labels[: adj.n // 3] = np.arange(adj.n // 3) % k
        state = TxAlloState(adj, labels, k, eta=2.0, lam=adj.total_weight / k)
        rng = np.random.default_rng(2)
        for v in np.nonzero(labels < 0)[0][:50]:
            v = int(v)
            cands, w_vq = state.neighbor_communities(v)
            if cands.size == 0:
                cands, w_vq = np.arange(k), np.zeros(k)
            gains = state.join_gain(v, cands, w_vq)
            j = int(np.argmax(gains))
            q, gain, w, _ = state.best_move(v, join_only=True)
            assert q == int(cands[j])
            assert gain == pytest.approx(float(gains[j]), abs=1e-10)


class TestNeighborCommunities:
    def test_candidates_exclude_own_and_unassigned(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=3, bridge_w=1.0))
        labels = np.array([0, 0, 0, 1, 1, -1])
        state = TxAlloState(adj, labels, 2, eta=2.0, lam=10.0)
        # node 0 connects to clique 0 (own), node 3 (community 1 via bridge).
        cands, w = state.neighbor_communities(0)
        np.testing.assert_array_equal(cands, [1])
        assert w[0] == pytest.approx(1.0)

    def test_own_weight(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=3, bridge_w=1.0))
        labels = np.array([0, 0, 0, 1, 1, 1])
        state = TxAlloState(adj, labels, 2, eta=2.0, lam=10.0)
        assert state.own_weight(1) == pytest.approx(2.0)  # two intra-clique edges
        assert state.own_weight(0) == pytest.approx(2.0)  # bridge not own

    def test_rejects_labels_ge_k(self, tiny_adj):
        with pytest.raises(ValueError):
            TxAlloState(tiny_adj, np.full(tiny_adj.n, 5), 2, eta=2.0, lam=1.0)
