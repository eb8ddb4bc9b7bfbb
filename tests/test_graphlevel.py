"""Tests for graph-level community metrics (Eq. 5, §III-C)."""
import numpy as np
import pytest

from repro.graph import adjacency_from_pandas
from repro.metrics.graphlevel import community_state
from tests.conftest import two_cliques_edges
from tests.reference import graph_gamma, graph_metrics


def tiny_labels(tiny_adj):
    # accounts {1,2,3} -> 0, {4,5,6} -> 1 (same split as test_metrics).
    return np.where(tiny_adj.nodes <= 3, 0, 1)


class TestTinyHandComputed:
    """Edge weights: (1,2)=2+1/6, (1,3)=1+1/6, (2,3)=1/6, (1,4)=(2,4)
    =(3,4)=1/6 except (2,4)=1+1/6; (4,5)=(4,6)=1/3, (5,6)=1/3+1;
    self-loop (3,3)=1."""

    def test_sigma(self, tiny_adj):
        labels = tiny_labels(tiny_adj)
        sigma, lam_hat = community_state(tiny_adj, labels, 2, eta=2.0)
        # community 0: self 1 + intra (2+1/6 + 1+1/6 + 1/6) + eta*cut
        intra0 = 2 + 1 / 6 + 1 + 1 / 6 + 1 / 6
        cut = 1 / 6 * 2 + (1 + 1 / 6)  # (1,4),(3,4),(2,4)
        assert sigma[0] == pytest.approx(1 + intra0 + 2.0 * cut)
        intra1 = 1 / 3 + 1 / 3 + (1 / 3 + 1)
        assert sigma[1] == pytest.approx(intra1 + 2.0 * cut)

    def test_lam_hat(self, tiny_adj):
        labels = tiny_labels(tiny_adj)
        _, lam_hat = community_state(tiny_adj, labels, 2, eta=2.0)
        cut = 1 / 6 * 2 + (1 + 1 / 6)
        assert lam_hat[0] == pytest.approx(1 + (2 + 1 / 6 + 1 + 1 / 6 + 1 / 6) + cut / 2)
        assert lam_hat[1] == pytest.approx((1 / 3 + 1 / 3 + 1 / 3 + 1) + cut / 2)

    def test_gamma(self, tiny_adj):
        labels = tiny_labels(tiny_adj)
        cut = 1 / 6 * 2 + (1 + 1 / 6)
        assert graph_gamma(tiny_adj, labels) == pytest.approx(cut / 8.0)

    def test_lam_hat_total_is_tx_count_minus_nothing(self, tiny_adj):
        # Sum of lam_hat over communities = total weight (each cut edge's
        # halves add up) — the graph analogue of "each tx counted once".
        labels = tiny_labels(tiny_adj)
        _, lam_hat = community_state(tiny_adj, labels, 2, eta=2.0)
        assert lam_hat.sum() == pytest.approx(tiny_adj.total_weight)


class TestInvariants:
    @pytest.mark.parametrize("eta", [1.0, 2.0, 6.0])
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_eta1_sigma_sums_to_weight_plus_cut(self, adj, eta, k):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, k, adj.n)
        sigma, lam_hat = community_state(adj, labels, k, eta=eta)
        cut = graph_gamma(adj, labels) * adj.total_weight
        # Sigma counts each cut edge eta times per side: total = W + (2eta-1)*cut.
        assert sigma.sum() == pytest.approx(adj.total_weight + (2 * eta - 1) * cut)
        assert lam_hat.sum() == pytest.approx(adj.total_weight)

    def test_single_community(self, adj):
        sigma, lam_hat = community_state(adj, np.zeros(adj.n, dtype=int), 1, eta=2.0)
        assert sigma[0] == pytest.approx(adj.total_weight)
        assert lam_hat[0] == pytest.approx(adj.total_weight)
        assert graph_gamma(adj, np.zeros(adj.n, dtype=int)) == 0.0

    def test_unassigned_nodes_count_as_cross(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=3, bridge_w=1.0))
        labels = np.zeros(adj.n, dtype=int)
        labels[3:] = -1  # second clique unassigned
        sigma, lam_hat = community_state(adj, labels, 1, eta=2.0)
        # Community 0 = first clique (3 intra edges) + bridge as cross.
        assert sigma[0] == pytest.approx(3.0 + 2.0 * 1.0)
        assert lam_hat[0] == pytest.approx(3.0 + 0.5)

    def test_all_unassigned(self, adj):
        sigma, lam_hat = community_state(adj, np.full(adj.n, -1), 3, eta=2.0)
        assert (sigma == 0).all() and (lam_hat == 0).all()

    def test_graph_metrics_rollup_keys(self, adj):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, adj.n)
        out = graph_metrics(adj, labels, 4, eta=2.0, lam=adj.total_weight / 4)
        assert set(out) == {"throughput", "norm_throughput", "rho", "gamma"}
        assert 0 <= out["gamma"] <= 1
        assert out["throughput"] > 0
