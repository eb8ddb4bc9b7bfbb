"""Tests for the CSR adjacency built from the aggregated edge list."""
import numpy as np
import pandas as pd
import pytest

from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.graph.adjacency import contract
from tests.conftest import two_cliques_edges


class TestStructure:
    def test_nodes_sorted_unique(self, tiny_adj):
        assert (np.diff(tiny_adj.nodes) > 0).all()
        assert set(tiny_adj.nodes) == {1, 2, 3, 4, 5, 6}

    def test_total_weight_is_tx_count(self, tiny_adj):
        assert tiny_adj.total_weight == pytest.approx(8.0)

    def test_self_loop_extracted(self, tiny_adj):
        idx3 = int(np.searchsorted(tiny_adj.nodes, 3))
        assert tiny_adj.self_w[idx3] == pytest.approx(1.0)
        # Self-loops are not in the CSR neighbor lists.
        assert idx3 not in tiny_adj.indices[tiny_adj.ev == idx3]

    def test_directed_edges_symmetric(self, tiny_adj):
        fwd = set(zip(tiny_adj.ev.tolist(), tiny_adj.indices.tolist()))
        assert all((u, v) in fwd for v, u in fwd)
        assert len(tiny_adj.ev) % 2 == 0

    def test_strength_is_row_sum(self, tiny_adj):
        for v in range(tiny_adj.n):
            assert tiny_adj.strength[v] == pytest.approx(tiny_adj.weights[tiny_adj.ev == v].sum())

    def test_neighbors_of_account_1(self, tiny_adj):
        idx1 = int(np.searchsorted(tiny_adj.nodes, 1))
        partners = set(tiny_adj.nodes[tiny_adj.indices[tiny_adj.ev == idx1]])
        assert partners == {2, 3, 4}

    def test_float_weights_of_self_loops_only(self):
        """A graph of self-loops alone, and contractions that fold every edge or
        none into self-loops, have float64 weights (``np.bincount([])`` is int64)."""
        loops = pd.DataFrame({"tx_id": [0, 1], "block": [0, 0], "accounts": [[1], [2]]})
        adj = adjacency_from_pandas(build_tx_graph_pandas(loops))
        assert adj.strength.dtype == np.float64
        ev, eu = np.array([0, 1]), np.array([1, 0])
        assert contract(np.zeros(2, int), 1, ev, eu, np.ones(2))[2].dtype == np.float64  # all loops
        assert contract(np.arange(2), 2, ev, eu, np.ones(2))[3].dtype == np.float64  # no loop

    def test_csr_weights_match_edge_arrays(self, tiny_adj):
        # ``(ev, indices, weights)`` are the directed edge arrays: ``ev``
        # holds the source node of each CSR slot.
        slot_src = np.repeat(np.arange(tiny_adj.n), np.diff(tiny_adj.indptr))
        np.testing.assert_array_equal(tiny_adj.ev, slot_src)
        assert tiny_adj.weights.sum() == pytest.approx(
            2.0 * (tiny_adj.total_weight - tiny_adj.self_w.sum())
        )


class TestIndexOf:
    def test_roundtrip(self, tiny_adj):
        idx = tiny_adj.index_of(np.array([1, 3, 6]))
        np.testing.assert_array_equal(tiny_adj.nodes[idx], [1, 3, 6])

    def test_missing_account_raises(self, tiny_adj):
        with pytest.raises(KeyError):
            tiny_adj.index_of(np.array([99]))

    def test_missing_account_below_range_raises(self, tiny_adj):
        with pytest.raises(KeyError):
            tiny_adj.index_of(np.array([0]))


class TestTwoCliques:
    def test_shape(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=4))
        assert adj.n == 8
        # Clique nodes have degree 3 inside; bridge endpoints degree 4.
        degs = np.diff(adj.indptr)
        assert sorted(degs.tolist()) == [3, 3, 3, 3, 3, 3, 4, 4]

    def test_weights(self):
        adj = adjacency_from_pandas(two_cliques_edges(n=4, bridge_w=0.25))
        assert adj.total_weight == pytest.approx(2 * 6 + 0.25)


class TestGeneratedInvariants:
    def test_no_negative_weights(self, adj):
        assert (adj.weights > 0).all()
        assert (adj.self_w >= 0).all()

    def test_indptr_consistent(self, adj):
        assert adj.indptr[0] == 0
        assert adj.indptr[-1] == len(adj.indices)
        assert (np.diff(adj.indptr) >= 0).all()

    def test_total_weight_equals_stream(self, adj, tx_pdf):
        assert adj.total_weight == pytest.approx(len(tx_pdf))

    def test_spark_collect_equals_pandas_build(self, spark, tx_df, adj):
        from repro.spark import build_tx_graph, to_adjacency

        adj2 = to_adjacency(build_tx_graph(tx_df))
        np.testing.assert_array_equal(adj.nodes, adj2.nodes)
        np.testing.assert_allclose(adj.self_w, adj2.self_w, atol=1e-9)
        np.testing.assert_allclose(adj.strength, adj2.strength, atol=1e-9)
