"""Tests for the CSR adjacency built from the aggregated edge list."""
import numpy as np
import pandas as pd
import pytest

from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.graph.adjacency import label_weights
from tests.conftest import tiny_tx_pdf, two_cliques_edges


@pytest.fixture(scope="module")
def tiny_adj():
    return adjacency_from_pandas(build_tx_graph_pandas(tiny_tx_pdf()))


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
        nbr, _ = tiny_adj.neighbors(idx3)
        assert idx3 not in nbr

    def test_directed_edges_symmetric(self, tiny_adj):
        fwd = set(zip(tiny_adj.ev.tolist(), tiny_adj.indices.tolist()))
        assert all((u, v) in fwd for v, u in fwd)
        assert len(tiny_adj.ev) % 2 == 0

    def test_strength_is_row_sum(self, tiny_adj):
        for v in range(tiny_adj.n):
            _, w = tiny_adj.neighbors(v)
            assert tiny_adj.strength[v] == pytest.approx(w.sum())

    def test_neighbors_of_account_1(self, tiny_adj):
        idx1 = int(np.searchsorted(tiny_adj.nodes, 1))
        nbr, w = tiny_adj.neighbors(idx1)
        partners = set(tiny_adj.nodes[nbr])
        assert partners == {2, 3, 4}

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


class TestLabelWeights:
    def test_equals_bincount_bit_for_bit(self, adj):
        """The list scan must give the sums ``np.unique`` + ``np.bincount``
        give over the same CSR slots exactly, so the kernels built on it
        keep their labels."""
        labels = np.arange(adj.n) % 7 - 1  # includes the unassigned label -1
        lists = adj.indptr.tolist(), adj.indices.tolist(), adj.weights.tolist()
        for v in range(adj.n):
            got = label_weights(v, *lists, labels.tolist())
            nbr, w = adj.neighbors(v)
            uniq, inv = np.unique(labels[nbr], return_inverse=True)
            want = dict(zip(uniq.tolist(), np.bincount(inv, weights=w).tolist()))
            assert got == want


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
        from repro.graph import build_tx_graph, to_adjacency

        adj2 = to_adjacency(build_tx_graph(tx_df))
        np.testing.assert_array_equal(adj.nodes, adj2.nodes)
        np.testing.assert_allclose(adj.self_w, adj2.self_w, atol=1e-9)
        np.testing.assert_allclose(adj.strength, adj2.strength, atol=1e-9)
