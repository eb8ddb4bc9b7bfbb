"""Tests for G-TxAllo (Algorithm 1)."""
import importlib

import numpy as np
import pytest

from repro.baselines import hash_alloc
from repro.graph import adjacency_from_pandas
from repro.louvain import louvain
from repro.metrics.graphlevel import community_state
from repro.txallo import a_txallo, g_txallo
from repro.txallo.g_txallo import _rank_communities
from repro.txallo.state import TxAlloState
from tests.conftest import label_digest, two_cliques_edges
from tests.reference import graph_gamma, graph_metrics, throughput


def run(adj, k=8, eta=2.0, lam=None):
    lam = lam if lam is not None else adj.total_weight / k
    return g_txallo(adj, k=k, eta=eta, lam=lam)


class TestContract:
    def test_labels_in_range(self, adj):
        labels = run(adj, k=8)
        assert labels.min() >= 0
        assert labels.max() < 8

    def test_every_node_allocated(self, adj):
        # Definition 1: uniqueness + completeness — one shard per node.
        labels = run(adj, k=8)
        assert len(labels) == adj.n

    def test_deterministic(self, adj):
        np.testing.assert_array_equal(run(adj, k=8), run(adj, k=8))

    def test_k_equals_one(self, adj):
        labels = run(adj, k=1)
        assert (labels == 0).all()

    def test_labels_pinned(self, tx_pdf, adj):
        """Kernel refactors must not move a single label on the SMALL stream."""
        labels = g_txallo(adj, k=20, eta=2.0, lam=len(tx_pdf) / 20)
        assert label_digest(labels) == (
            "f50495a858f57f883fad28d7bd420872a2a2fcf485bcfdbf4b4a2309db2e30f4"
        )

    def test_labels_pinned_k10_eta6(self, tx_pdf, adj):
        """A second pin, at another k and η, on the same SMALL stream."""
        labels = g_txallo(adj, k=10, eta=6.0, lam=len(tx_pdf) / 10)
        assert label_digest(labels) == (
            "ff80d9b685e386c540af141c4175d8502d124d73e0e327b5ec2132f3cd1f2bce"
        )

    def test_is_engine_over_every_node(self, adj):
        """Algorithm 1 = the Louvain-ranked init + Algorithm 2's engine
        with V-hat = V, label for label."""
        k, eta, lam = 8, 2.0, adj.total_weight / 8
        init = louvain(adj)
        sigma, _ = community_state(adj, init, int(init.max()) + 1, eta=eta)
        ranked = _rank_communities(init, sigma, k)
        want = a_txallo(adj, ranked, np.arange(adj.n), k=k, eta=eta, lam=lam)
        np.testing.assert_array_equal(g_txallo(adj, k=k, eta=eta, lam=lam), want)

    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_various_k(self, adj, k):
        labels = run(adj, k=k)
        assert labels.max() < k


class TestQuality:
    def test_beats_random_on_throughput(self, adj):
        k, eta = 8, 2.0
        lam = adj.total_weight / k
        ours = graph_metrics(adj, run(adj, k=k, eta=eta), k, eta=eta, lam=lam)
        rand = graph_metrics(adj, hash_alloc(adj.nodes, k), k, eta=eta, lam=lam)
        assert ours["throughput"] > rand["throughput"]

    def test_beats_random_on_gamma(self, adj):
        k = 8
        assert graph_gamma(adj, run(adj, k=k)) < graph_gamma(adj, hash_alloc(adj.nodes, k))

    def test_optimization_improves_init(self, adj):
        """The final Λ must be >= the Λ right after the init phase; the
        optimizer only executes positive-gain moves."""
        k, eta = 8, 2.0
        lam = adj.total_weight / k
        final = TxAlloState(adj, run(adj, k=k, eta=eta), k, eta=eta, lam=lam)
        # Re-run with an intentionally poor init: random labels.
        rng = np.random.default_rng(0)
        bad_init = rng.integers(0, k, adj.n)
        improved = a_txallo(adj, bad_init, np.arange(adj.n), k=k, eta=eta, lam=lam)
        st = TxAlloState(adj, improved, k, eta=eta, lam=lam)
        st0 = TxAlloState(adj, bad_init, k, eta=eta, lam=lam)
        assert throughput(st) >= throughput(st0)
        assert throughput(final) > 0

    def test_self_adjusts_gamma_with_eta(self, adj):
        """§VI-B2: larger η makes cross txs costlier, so the optimizer
        pushes γ at least as low (allow small slack for local optima)."""
        k = 8
        lam = adj.total_weight / k
        g_small = graph_gamma(adj, g_txallo(adj, k=k, eta=2.0, lam=lam))
        g_large = graph_gamma(adj, g_txallo(adj, k=k, eta=10.0, lam=lam))
        assert g_large <= g_small + 0.05

    def test_two_cliques_ideal_split(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=6, bridge_w=0.1))
        labels = run(adj, k=2, eta=2.0)
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]


class TestInitEdgeCases:
    def test_fewer_louvain_communities_than_k(self):
        # Two cliques, k=4: l = 2 < k — two shards stay empty, no crash.
        adj = adjacency_from_pandas(two_cliques_edges(n=5, bridge_w=0.1))
        labels = run(adj, k=4)
        assert labels.max() < 4
        assert len(np.unique(labels)) >= 2

    def test_init_labels_override(self, adj):
        k = 4
        lam = adj.total_weight / k
        init = np.zeros(adj.n, dtype=int)  # single community
        labels = a_txallo(adj, init, np.arange(adj.n), k=k, eta=2.0, lam=lam)
        assert labels.max() < k

    @pytest.mark.parametrize("cap", [1, 2])
    def test_sweep_cap_ends_the_sweeps(self, adj, monkeypatch, cap):
        """``MAX_SWEEPS`` ends the optimization: the sweep phase scans every
        node exactly ``cap`` times. Cap 2 shows that ΔΛ after the first
        sweep is still above ε, so at cap 1 the cap alone stopped it."""
        engine = importlib.import_module("repro.txallo.a_txallo")
        calls = {"sweep": 0}
        sweep = TxAlloState.sweep

        def counting(self, nodes, *, join_only=False):
            calls["sweep"] += 0 if join_only else len(nodes)
            return sweep(self, nodes, join_only=join_only)

        monkeypatch.setattr(engine, "MAX_SWEEPS", cap)
        monkeypatch.setattr(TxAlloState, "sweep", counting)
        labels = g_txallo(adj, k=4, eta=2.0, lam=adj.total_weight / 4)
        assert calls["sweep"] == cap * adj.n
        assert labels.max() < 4

    def test_disconnected_node_forced_assignment(self):
        # A node with only a self-loop has no candidate communities; the
        # init phase must still place it (C_v forced to all k).
        import pandas as pd

        edges = two_cliques_edges(n=4, bridge_w=0.5)
        edges = pd.concat(
            [edges, pd.DataFrame({"src": [99], "dst": [99], "weight": [1.0]})],
            ignore_index=True,
        )
        adj = adjacency_from_pandas(edges)
        labels = run(adj, k=3)
        assert labels.min() >= 0  # the isolated node got a shard
