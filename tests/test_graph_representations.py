"""Representation-cache consistency of the CSR-native Graph.

The CSR arrays are the single source of truth; every derived
representation — the scipy CSR wrapper, the dense int8 matrix and the
lazy Python tuple/set views — must
describe the same adjacency, on every construction path (edge-list
constructor, ``from_numpy_edges``, derived graphs) including the
empty- and singleton-graph corners.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph


def assert_representations_agree(g: Graph) -> None:
    n = g.n
    dense = g.adjacency_dense()
    # dense: symmetric, zero diagonal, edge count consistent.
    assert dense.shape == (n, n)
    assert np.array_equal(dense, dense.T)
    assert int(dense.sum()) == 2 * g.m
    if n:
        assert np.all(np.diag(dense) == 0)
    # scipy CSR wrapper agrees with dense.
    assert np.array_equal(g.adjacency_csr().toarray(), dense)
    # lazy tuple/set views agree with dense rows, sorted.
    for u in range(n):
        row = np.flatnonzero(dense[u]).tolist()
        assert list(g.neighbors(u)) == row
        assert g._adj_sets[u] == set(row)
        assert g.degree(u) == len(row)
    assert np.array_equal(g.degrees(), dense.sum(axis=1).astype(np.int64))
    # edge arrays roundtrip through from_numpy_edges.
    us, vs = g.edge_arrays()
    assert np.all(us < vs)
    assert us.size == g.m
    assert Graph.from_numpy_edges(n, us, vs) == g


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    max_edges = n * (n - 1) // 2
    k = draw(st.integers(min_value=0, max_value=min(max_edges, 80)))
    edges = []
    if n >= 2:
        edges = [
            (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
            for _ in range(k)
        ]
        edges = [(u, v) for u, v in edges if u != v]
    via_arrays = draw(st.booleans())
    if via_arrays:
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        return Graph.from_numpy_edges(n, arr[:, 0], arr[:, 1])
    return Graph(n, edges)


class TestRandomizedConsistency:
    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_all_representations_agree(self, g):
        assert_representations_agree(g)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gnp_sample_consistency(self, seed):
        assert_representations_agree(gnp_random_graph(30, 0.2, rng=seed))


class TestCorners:
    def test_empty_graph(self):
        g = Graph(0)
        assert_representations_agree(g)
        assert g.adjacency_dense().shape == (0, 0)
        us, vs = g.edge_arrays()
        assert us.size == 0

    def test_singleton_graph(self):
        g = Graph(1)
        assert_representations_agree(g)
        assert g.adjacency_dense().shape == (1, 1)
        assert g.neighbors(0) == ()

    def test_from_numpy_edges_empty(self):
        g = Graph.from_numpy_edges(5, np.array([]), np.array([]))
        assert_representations_agree(g)

    def test_word_boundary_sizes(self):
        # n = 63, 64, 65 straddle a 64-bit word boundary.
        for n in (63, 64, 65):
            g = gnp_random_graph(n, 0.1, rng=n)
            assert_representations_agree(g)

    def test_derived_graphs_stay_consistent(self):
        g = gnp_random_graph(25, 0.25, rng=3)
        sub, _ = g.subgraph(range(0, 25, 2))
        assert_representations_agree(sub)
        assert_representations_agree(g.complement())
        perm = np.random.default_rng(0).permutation(25)
        assert_representations_agree(g.relabeled(perm.tolist()))

    def test_caches_are_lazy_and_stable(self):
        g = gnp_random_graph(20, 0.3, rng=1)
        assert g.adjacency_dense() is g.adjacency_dense()
        assert g.adjacency_csr() is g.adjacency_csr()
        assert g.adjacency_csr_int32() is g.adjacency_csr_int32()
        assert g.neighbors(3) is g.neighbors(3)

    def test_pickle_roundtrip_drops_caches(self):
        import pickle

        g = gnp_random_graph(20, 0.3, rng=2)
        g.adjacency_dense()
        g.adjacency_csr_int32()
        back = pickle.loads(pickle.dumps(g))
        assert back == g
        assert back._dense is None and back._csr32 is None
        assert_representations_agree(back)

    def test_edge_arrays_cached_read_only(self):
        import pickle

        g = gnp_random_graph(30, 0.2, rng=4)
        us, vs = g.edge_arrays()
        again = g.edge_arrays()
        assert again[0] is us and again[1] is vs
        for arr in (us, vs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        back = pickle.loads(pickle.dumps(g))
        assert back._edges is None
        bus, bvs = back.edge_arrays()
        assert bus is not us
        np.testing.assert_array_equal(bus, us)
        np.testing.assert_array_equal(bvs, vs)
        assert Graph.from_csr_arrays(
            g.n, g.m, g.indptr, g.indices
        )._edges is None


class TestVectorizedHelpers:
    """The CSR-vectorized set helpers agree with naive references."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=25),
    )
    def test_set_helpers_match_reference(self, seed, n):
        g = gnp_random_graph(n, 0.3, rng=seed)
        rng = np.random.default_rng(seed)
        s = set(rng.integers(0, n, size=max(1, n // 3)).tolist())
        t = set(rng.integers(0, n, size=max(1, n // 3)).tolist())
        ref_nbhd = set()
        for u in s:
            ref_nbhd |= set(g.neighbors(u))
        assert g.neighborhood_of_set(s) == ref_nbhd - s
        assert g.closed_neighborhood_of_set(s) == ref_nbhd | s
        ref_between = {
            (min(u, v), max(u, v))
            for u in s
            for v in g.neighbors(u)
            if v in t
        }
        assert g.edges_between(s, t) == len(ref_between)
        ref_induced = sum(
            1 for u in s for v in g.neighbors(u) if v in s and u < v
        )
        assert g.induced_edge_count(s) == ref_induced

    def test_bfs_matches_reference(self):
        g = gnp_random_graph(40, 0.08, rng=9)
        # Reference BFS via per-vertex loops.
        for source in (0, 7, 39):
            dist = np.full(g.n, -1)
            dist[source] = 0
            frontier = [source]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in g.neighbors(u):
                        if dist[v] < 0:
                            dist[v] = d
                            nxt.append(v)
                frontier = nxt
            assert np.array_equal(g.bfs_distances(source), dist)


class TestFromAdjacencyIterators:
    """Regression: rows must be coerced once, not re-iterated."""

    def test_generator_rows_accepted(self):
        # One-shot generator rows: the old implementation re-iterated
        # adj[v] inside the asymmetry check, which silently saw an
        # exhausted iterator (empty row) and raised a bogus error.
        def gen_rows():
            yield (x for x in [1, 2])
            yield (x for x in [0])
            yield (x for x in [0])

        g = Graph.from_adjacency(list(gen_rows()))
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_generator_rows_asymmetry_still_detected(self):
        rows = [(x for x in [1]), (x for x in []), (x for x in [0])]
        with pytest.raises(ValueError, match="asymmetric"):
            Graph.from_adjacency(rows)

    def test_tuple_rows_unchanged(self):
        g = Graph.from_adjacency([[1, 2], [0], [0]])
        assert g.m == 2
