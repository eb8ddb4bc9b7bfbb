"""Tests for the incremental TxAllo state (Eqs. 6-8, Lemma 1).

The load-bearing check: after *any* sequence of single-node moves, the
incrementally maintained (σ, Λ̂) must equal the from-scratch
``community_state`` recomputation — this pins the join/leave delta
algebra of §V-B exactly.
"""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.baselines import hash_alloc
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.metrics.graphlevel import community_state
from repro.metrics.formulas import clip_throughput
from repro.txallo import g_txallo
from repro.txallo.state import TxAlloState
from tests.conftest import two_cliques_edges
from tests.reference import join_gain, move_gain, neighbor_communities, own_weight, throughput


def _move(state: TxAlloState, v: int, q: int) -> None:
    """:meth:`TxAlloState.move` with v's weights into ``q`` and into its own
    community from the numpy reference."""
    cands, w = neighbor_communities(state, v)
    state.move(v, q, float(w[cands == q].sum()), own_weight(state, v))


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
            _move(state, v, q)
        _assert_state_consistent(state)

    def test_moves_from_unassigned(self, adj):
        k = 3
        labels = np.full(adj.n, -1)
        labels[: adj.n // 2] = np.arange(adj.n // 2) % k
        state = TxAlloState(adj, labels, k, eta=2.0, lam=adj.total_weight / k)
        rng = np.random.default_rng(3)
        unassigned = np.nonzero(state.labels < 0)[0]
        for v in unassigned[:50]:
            _move(state, int(v), int(rng.integers(0, k)))
        _assert_state_consistent(state)

    @pytest.mark.parametrize("eta,lam_scale", [(2.0, 1.0), (6.0, 0.3)])
    def test_kept_clip_equals_clip_throughput(self, adj, monkeypatch, eta, lam_scale):
        """The clipped Λ_q the sweeps read equals ``clip_throughput`` of
        (σ, Λ̂) bit for bit, after the absorb and after every sweep."""
        sweep = TxAlloState.sweep
        calls = []

        def checked(self, nodes, *, join_only=False):
            delta = sweep(self, nodes, join_only=join_only)
            want = clip_throughput(self.sigma, self.lam_hat, self.lam)
            np.testing.assert_array_equal(np.array(self._lam_q), want)
            calls.append(join_only)
            return delta

        monkeypatch.setattr(TxAlloState, "sweep", checked)
        g_txallo(adj, k=5, eta=eta, lam=lam_scale * adj.total_weight / 5)
        assert calls[0] and not any(calls[1:]) and len(calls) > 2

    def test_move_noop_same_community(self, tiny_adj):
        state = TxAlloState(tiny_adj, np.zeros(tiny_adj.n, dtype=int), 2, eta=2.0, lam=4.0)
        before = state.sigma.copy()
        _move(state, 0, 0)
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
            cands, w_vq = neighbor_communities(state, v)
            if cands.size == 0:
                continue
            gains = move_gain(state, v, cands, w_vq)
            before = throughput(state)
            j = int(rng.integers(0, len(cands)))
            state.move(v, int(cands[j]), float(w_vq[j]), own_weight(state, v))
            after = throughput(state)
            assert after - before == pytest.approx(float(gains[j]), abs=1e-8)

    def test_join_then_leave_restores_state(self, tiny_adj):
        state = TxAlloState(
            tiny_adj, np.array([0, 0, 0, 1, 1, 1]), 2, eta=2.0, lam=4.0
        )
        sig0, lh0 = state.sigma.copy(), state.lam_hat.copy()
        _move(state, 0, 1)
        _move(state, 0, 0)
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
        _move(state, v, q)
        others = [j for j in range(k) if j not in (p, q)]
        np.testing.assert_array_equal(state.sigma[others], sig_before[others])
        np.testing.assert_array_equal(state.lam_hat[others], lh_before[others])

    def test_throughput_uses_capacity_clip(self, tiny_adj):
        labels = np.array([0, 0, 0, 1, 1, 1])
        state = TxAlloState(tiny_adj, labels, 2, eta=2.0, lam=4.0)
        expected = clip_throughput(state.sigma, state.lam_hat, 4.0).sum()
        assert throughput(state) == pytest.approx(float(expected))


class TestBestMoveFastPath:
    """`sweep`'s compiled best move must make bit-identical decisions
    to the numpy reference path (candidates + Eq. 8), also after moves."""

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
            q, gain = int(state.labels[v]), 0.0  # empty ℂ_v or no positive gain: stay
            cands, w_vq = neighbor_communities(state, v)
            if cands.size:
                gains = move_gain(state, v, cands, w_vq)
                j = int(np.argmax(gains))
                if gains[j] > 0.0:
                    q, gain = int(cands[j]), float(gains[j])
            delta = state.sweep([v])
            assert state.labels[v] == q
            assert delta == pytest.approx(gain, abs=1e-10)
            _assert_state_consistent(state)

    def test_join_only_matches_join_gain(self, adj):
        """Also from an all-unassigned start, where the empty shards tie
        and the first-max rule must pick the smallest label."""
        k = 4
        for n_assigned in (adj.n // 3, 0):
            labels = np.full(adj.n, -1)
            labels[:n_assigned] = np.arange(n_assigned) % k
            state = TxAlloState(adj, labels, k, eta=2.0, lam=adj.total_weight / k)
            for v in np.nonzero(labels < 0)[0][:50]:
                v = int(v)
                cands, w_vq = neighbor_communities(state, v)
                if cands.size == 0:
                    cands, w_vq = np.arange(k), np.zeros(k)
                gains = join_gain(state, v, cands, w_vq)
                j = int(np.argmax(gains))
                delta = state.sweep([v], join_only=True)
                assert state.labels[v] == int(cands[j])
                assert delta == pytest.approx(float(gains[j]), abs=1e-10)
                _assert_state_consistent(state)

    def test_zero_gain_does_not_move(self):
        """Path 1-2-3 with shards {1, 2} and {3}, no capacity clip: moving
        node 2 gains exactly 0.0 (-1.0 to leave, +1.0 to join), and only a
        positive gain moves a node."""
        tx = pd.DataFrame({"tx_id": [0, 1], "block": 0, "accounts": [[1, 2], [2, 3]]})
        adj = adjacency_from_pandas(build_tx_graph_pandas(tx))
        state = TxAlloState(adj, np.array([0, 0, 1]), 2, eta=2.0, lam=100.0)
        cands, w_vq = neighbor_communities(state, 1)
        assert move_gain(state, 1, cands, w_vq).tolist() == [0.0]
        assert state.sweep([1]) == 0.0
        np.testing.assert_array_equal(state.labels, [0, 0, 1])


# 24 transactions over accounts 0..9. Its shards hold a few units of Λ̂,
# so a regrouped sum rounds differently far more often than on SMALL,
# whose Λ̂_q are in the hundreds.
ROUNDING_STREAM = [
    [0], [8], [2], [6], [4], [1, 7], [4, 8], [1, 8], [3, 5, 7], [0, 6, 8, 9],
    [3, 6, 9], [1, 2, 6, 7], [7], [0, 5, 7, 9], [5, 8], [5], [0, 2, 3], [1, 4, 5],
    [9], [0, 4], [2, 3, 7], [5, 8], [0, 3, 4, 7], [2, 3, 6],
]


def _sweep_digest(adj, k: int) -> str:
    """SHA-256 of the ΔΛ of an absorb and three full sweeps and of the
    final σ, Λ̂ and labels, from a hash start with every 7th node
    unassigned, at η = 6 and λ = 0.3·|T|/k, where the clip is live."""
    labels = hash_alloc(adj.nodes, k)
    labels[6::7] = -1
    lam = 0.3 * adj.total_weight / k
    state = TxAlloState(adj, labels, k, eta=6.0, lam=lam)
    deltas = [state.sweep(np.nonzero(labels < 0)[0].tolist(), join_only=True)]
    deltas += [state.sweep(list(range(adj.n))) for _ in range(3)]
    assert (state.sigma > lam).any()
    h = hashlib.sha256(np.array(deltas).tobytes())
    for a in (state.sigma, state.lam_hat, state.labels):
        h.update(a.tobytes())
    return h.hexdigest()


class TestSweepBits:
    """Bit pins of :meth:`TxAlloState.sweep`'s arithmetic: regrouping any
    of its σ or Λ̂ sums moves a bit of one of these digests."""

    def test_pinned_small(self, adj):
        assert _sweep_digest(adj, 5) == (
            "4f66a750e1a2bd7e5f3356b6f9193d2d32d0b51511d36216537f7054c99c6623"
        )

    def test_pinned_rounding_stream(self):
        tx = pd.DataFrame(
            {"tx_id": range(24), "block": 0, "accounts": ROUNDING_STREAM}
        )
        adj = adjacency_from_pandas(build_tx_graph_pandas(tx))
        assert _sweep_digest(adj, 3) == (
            "d560b2ab360fd1576702934bcc87b1ee7ae9f9d24f696324a38aba8782a22311"
        )


class TestNeighborCommunities:
    def test_candidates_exclude_own_and_unassigned(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=3, bridge_w=1.0))
        labels = np.array([0, 0, 0, 1, 1, -1])
        state = TxAlloState(adj, labels, 2, eta=2.0, lam=10.0)
        # node 0 connects to clique 0 (own), node 3 (community 1 via bridge).
        cands, w = neighbor_communities(state, 0)
        np.testing.assert_array_equal(cands, [1])
        assert w[0] == pytest.approx(1.0)

    def test_own_weight(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=3, bridge_w=1.0))
        labels = np.array([0, 0, 0, 1, 1, 1])
        state = TxAlloState(adj, labels, 2, eta=2.0, lam=10.0)
        assert own_weight(state, 1) == pytest.approx(2.0)  # two intra-clique edges
        assert own_weight(state, 0) == pytest.approx(2.0)  # bridge not own

    def test_rejects_labels_ge_k(self, tiny_adj):
        with pytest.raises(ValueError):
            TxAlloState(tiny_adj, np.full(tiny_adj.n, 5), 2, eta=2.0, lam=1.0)

    @pytest.mark.parametrize("bad", [-2, -(2**40)])
    def test_rejects_labels_below_unassigned(self, tiny_adj, bad):
        """A label below -1 would index the kernel's shard arrays out of bounds."""
        labels = np.zeros(tiny_adj.n, dtype=int)
        labels[2] = bad
        with pytest.raises(ValueError):
            TxAlloState(tiny_adj, labels, 2, eta=2.0, lam=1.0)

    def test_rejects_labels_of_another_graph(self, tiny_adj):
        with pytest.raises(ValueError):
            TxAlloState(tiny_adj, np.zeros(tiny_adj.n - 1, dtype=int), 2, eta=2.0, lam=1.0)

    @pytest.mark.parametrize("bad", [-1, 6, 2**40])
    def test_sweep_rejects_nodes_out_of_range(self, tiny_adj, bad):
        state = TxAlloState(tiny_adj, np.zeros(tiny_adj.n, dtype=int), 2, eta=2.0, lam=1.0)
        with pytest.raises(ValueError):
            state.sweep([0, bad])
        with pytest.raises(ValueError):
            state.sweep([bad], join_only=True)
        np.testing.assert_array_equal(state.labels, 0)  # nothing ran

    @pytest.mark.parametrize("v,q", [(-1, 0), (6, 0), (0, -1), (0, 2)])
    def test_move_rejects_out_of_range(self, tiny_adj, v, q):
        state = TxAlloState(tiny_adj, np.zeros(tiny_adj.n, dtype=int), 2, eta=2.0, lam=1.0)
        with pytest.raises(ValueError):
            state.move(v, q, 0.0, 0.0)
