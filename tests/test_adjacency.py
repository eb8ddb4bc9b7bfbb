"""Tests for the CSR adjacency built from the aggregated edge list."""
import numpy as np
import pandas as pd
import pytest

from repro import kernels
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.graph.adjacency import CSR, Adjacency, contract, index_of
from tests import reference
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
        """A graph of self-loops alone has float64 strengths (``np.bincount([])``
        is int64); ``TestContract`` covers contractions that fold every edge
        or none into self-loops."""
        loops = pd.DataFrame({"tx_id": [0, 1], "block": [0, 0], "accounts": [[1], [2]]})
        adj = adjacency_from_pandas(build_tx_graph_pandas(loops))
        assert adj.strength.dtype == np.float64

    def test_csr_weights_match_edge_arrays(self, tiny_adj):
        # ``(ev, indices, weights)`` are the directed edge arrays: ``ev``
        # holds the source node of each CSR slot.
        slot_src = np.repeat(np.arange(tiny_adj.n), np.diff(tiny_adj.indptr))
        np.testing.assert_array_equal(tiny_adj.ev, slot_src)
        assert tiny_adj.weights.sum() == pytest.approx(
            2.0 * (tiny_adj.total_weight - tiny_adj.self_w.sum())
        )


# A valid 2-node CSR: one undirected edge 0-1, stored in both directions.
VALID = dict(indptr=[0, 1, 2], indices=[1, 0], weights=[1.0, 1.0])


class TestChecked:
    """A ``CSR`` or ``Adjacency`` that exists has passed the checks the
    kernels rely on, and cannot be changed afterwards."""

    @pytest.mark.parametrize(
        "bad",
        [
            dict(indptr=[1, 1, 2]),  # indptr does not start at 0
            dict(indptr=[0, 2, 1], indices=[1], weights=[1.0]),  # decreasing indptr
            dict(indices=[1]),  # len(indices) != indptr[-1]
            dict(weights=[1.0, 1.0, 1.0]),  # len(weights) != indptr[-1]
            dict(indices=[-1, 0]),  # neighbour below range
            dict(indices=[2, 0]),  # neighbour n
            dict(indptr=[[0, 1, 2]]),  # not 1-D
        ],
        ids=["indptr0", "decreasing", "indices_len", "weights_len", "neg", "eq_n", "2d"],
    )
    def test_malformed_csr_raises(self, bad):
        with pytest.raises(ValueError):
            CSR(**{**VALID, **bad})

    @pytest.mark.parametrize(
        "bad", [dict(nodes=[5]), dict(self_w=[0.0, 0.0, 0.0])], ids=["nodes", "self_w"]
    )
    def test_adjacency_field_lengths(self, bad):
        with pytest.raises(ValueError):
            Adjacency(**VALID, **{"nodes": [5, 9], "self_w": [0.0, 0.0], **bad})

    def test_arrays_are_read_only(self, tiny_adj):
        for name in ("indptr", "indices", "weights", "nodes", "self_w"):
            a = getattr(tiny_adj, name)
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_coerces_kernel_dtypes(self):
        g = Adjacency(
            indptr=np.array([0, 1, 2], np.int32), indices=np.array([1, 0], np.int64),
            weights=[1, 1], nodes=[5, 9], self_w=[0, 1],
        )
        dtypes = [g.indptr.dtype, g.indices.dtype, g.weights.dtype, g.nodes.dtype, g.self_w.dtype]
        assert dtypes == [np.int64, np.int32, np.float64, np.int64, np.float64]

    @pytest.mark.parametrize(
        "raw",
        [
            (np.array([0, 1, 2]), np.array([1, 0], np.int32), np.ones(2)),
            np.array([0, 1, 2]),
        ],
        ids=["tuple", "array"],
    )
    def test_kernels_take_only_a_checked_csr(self, raw):
        with pytest.raises(TypeError):
            kernels.csr_args(raw)


def _random_graph(seed: int, n: int = 40, m: int = 120) -> Adjacency:
    """Unique canonical pairs (some of them self-loops) with small integer
    weights, so every float sum below is exact."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, (2, m))
    pairs = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1), axis=0)
    w = rng.integers(1, 5, len(pairs)).astype(float)
    return adjacency_from_pandas(pd.DataFrame({"src": pairs[:, 0], "dst": pairs[:, 1], "weight": w}))


def _dense(g: CSR) -> np.ndarray:
    d = np.zeros((g.n, g.n))
    d[g.ev, g.indices] = g.weights  # a checked CSR has no repeated (row, column) slot
    return d


class TestContract:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("nc", [1, 5, 17])
    def test_equals_dense_product(self, seed, nc):
        """The coarse CSR is Pᵀ·W·P off the diagonal and ``loop_w`` its
        diagonal, where P is the node-to-coarse-node indicator matrix."""
        g = _random_graph(seed)
        cmap = np.random.default_rng(seed + 100).integers(0, nc, g.n)
        p = np.zeros((g.n, nc))
        p[np.arange(g.n), cmap] = 1.0
        ref = p.T @ _dense(g) @ p
        coarse, loop_w = contract(g, cmap, nc)
        assert coarse.n == nc
        np.testing.assert_array_equal(loop_w, np.diag(ref))
        np.testing.assert_array_equal(_dense(coarse), ref - np.diag(np.diag(ref)))
        key = coarse.ev * nc + coarse.indices
        assert (np.diff(key) > 0).all()  # each row's neighbours ascend, no parallel edges
        # nc = 1 folds every edge into a loop: the coarse weights are the
        # bincount of an empty input, which numpy returns as int64.
        assert coarse.weights.dtype == loop_w.dtype == np.float64

    def test_identity_map_returns_input_bit_for_bit(self, adj):
        """A graph built once needs no re-sort at any level."""
        coarse, loop_w = contract(adj, np.arange(adj.n), adj.n)
        for name in ("indptr", "indices", "weights"):
            a, b = getattr(coarse, name), getattr(adj, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert loop_w.dtype == np.float64  # no loop: np.bincount([]) would be int64
        assert not loop_w.any()


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

    @pytest.mark.parametrize("key_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n_keys", [0, 1, 500])
    def test_matches_binary_search(self, key_dtype, n_keys):
        """The hash lookup gives the positions a binary search over the sorted ids gives."""
        rng = np.random.default_rng(n_keys)
        nodes = np.unique(rng.integers(0, 2**31 - 1, size=2_000))
        keys = rng.choice(nodes, size=n_keys).astype(key_dtype)
        got = index_of(nodes, keys)
        want = reference.index_of(nodes, keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_missing_among_present_raises(self):
        nodes = np.array([2, 5, 9], dtype=np.int64)
        with pytest.raises(KeyError, match="7"):
            index_of(nodes, np.array([9, 7, 2], dtype=np.int32))
        with pytest.raises(KeyError):
            index_of(np.empty(0, dtype=np.int64), np.array([1]))


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
