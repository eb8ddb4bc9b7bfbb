"""Tests for the deterministic Louvain initializer."""
import importlib

import numpy as np
import pandas as pd
import pytest

from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.louvain import louvain
from tests.conftest import label_digest, two_cliques_edges
from tests.reference import modularity

# The package re-exports the function under the module's name.
louvain_module = importlib.import_module("repro.louvain.louvain")


def ring_of_cliques(n_cliques: int, size: int, bridge_w: float = 0.1) -> pd.DataFrame:
    rows = []
    for c in range(n_cliques):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                rows.append((base + i, base + j, 1.0))
        nxt = ((c + 1) % n_cliques) * size
        rows.append((base, nxt, bridge_w))
    df = pd.DataFrame(rows, columns=["src", "dst", "weight"])
    df[["src", "dst"]] = np.sort(df[["src", "dst"]].to_numpy(), axis=1)
    return df.groupby(["src", "dst"], as_index=False)["weight"].sum()


class TestCanonicalGraphs:
    def test_two_cliques_separated(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=5, bridge_w=0.1))
        labels = louvain(adj)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_ring_of_cliques(self):
        adj = adjacency_from_pandas(ring_of_cliques(6, 5))
        labels = louvain(adj)
        assert len(np.unique(labels)) == 6
        for c in range(6):
            assert len(set(labels[c * 5 : (c + 1) * 5])) == 1

    def test_single_edge(self):
        adj = adjacency_from_pandas(pd.DataFrame({"src": [0], "dst": [1], "weight": [1.0]}))
        labels = louvain(adj)
        assert labels[0] == labels[1]  # merging the pair maximizes Q

        # A path 0-1-2 with self-loops, weights exact in binary: node 0
        # joins node 1 (2m = 16), then node 1's gain for moving to node 2
        # is exactly fl(own gain + 1e-12), which is not above the margin, so
        # it stays; node 2 then joins them. A move on ties would split it.
        tie = (1.0 + 1e-12) - 1.0
        adj = adjacency_from_pandas(
            pd.DataFrame(
                {
                    "src": [0, 0, 1, 1, 2],
                    "dst": [0, 1, 1, 2, 2],
                    "weight": [0.5, 3.0, 1.0 - tie / 2, 3.0 + tie, 0.5 - tie / 2],
                }
            )
        )
        np.testing.assert_array_equal(louvain(adj), [0, 0, 0])

    def test_self_loop_only_graph(self):
        adj = adjacency_from_pandas(
            pd.DataFrame({"src": [0, 1], "dst": [0, 1], "weight": [1.0, 2.0]})
        )
        labels = louvain(adj)
        assert len(labels) == 2
        assert labels[0] != labels[1]  # no edge between them — stay apart


class TestProperties:
    def test_deterministic(self, adj):
        a = louvain(adj)
        b = louvain(adj)
        np.testing.assert_array_equal(a, b)

    def test_labels_compact(self, adj):
        labels = louvain(adj)
        uniq = np.unique(labels)
        np.testing.assert_array_equal(uniq, np.arange(len(uniq)))

    def test_beats_singletons_and_one_community(self, adj):
        labels = louvain(adj)
        q = modularity(adj, labels)
        q_singletons = modularity(adj, np.arange(adj.n))
        q_one = modularity(adj, np.zeros(adj.n, dtype=int))
        assert q > q_singletons
        assert q > q_one

    def test_many_communities_on_long_tail_graph(self, adj):
        # Paper §V-B: Louvain on transaction graphs yields l >> k communities.
        labels = louvain(adj)
        assert labels.max() + 1 > 20

    def test_good_modularity_on_planted_structure(self, adj):
        assert modularity(adj, louvain(adj)) > 0.5

    def test_labels_pinned(self, adj):
        """Kernel refactors must not move a single label on the SMALL stream."""
        assert label_digest(louvain(adj)) == (
            "21c43b615c3b01c9b62de7563f5f94deb35ee0d70791899935debb32599148e8"
        )


class TestLevelComposition:
    def test_labels_compose_the_levels(self, monkeypatch):
        """A node's final community is its level-1 community's community at
        level 2, and so on: record each level's local-move labels and
        compose them here. At SF 0.02 some communities lose the node whose
        index is their label; composing through that node's community
        instead of each member's own misplaces their members."""
        stream = eth_transactions_pandas(EthParams(sf=0.02, seed=7))
        adj = adjacency_from_pandas(build_tx_graph_pandas(stream))
        sweep, levels = louvain_module._sweep_until_stable, []

        def recording(*args):
            labels = sweep(*args)
            levels.append(labels)
            return labels

        monkeypatch.setattr(louvain_module, "_sweep_until_stable", recording)
        got = louvain(adj)
        want = np.arange(adj.n)
        for labels in levels:
            want = np.unique(labels, return_inverse=True)[1][want]
        assert len(levels) > 1
        np.testing.assert_array_equal(got, want)


class TestModularityFunction:
    def test_two_cliques_value(self):
        # For two disconnected n-cliques split correctly, Q = 1/2.
        edges = two_cliques_edges(n=4, bridge_w=0.0)
        edges = edges[edges.weight > 0]
        adj = adjacency_from_pandas(edges)
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert modularity(adj, labels) == pytest.approx(0.5)

    def test_one_community_zero(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=4))
        assert modularity(adj, np.zeros(adj.n, dtype=int)) == pytest.approx(0.0)

    def test_range(self, adj):
        rng = np.random.default_rng(0)
        q = modularity(adj, rng.integers(0, 5, adj.n))
        assert -1.0 <= q <= 1.0
