"""Tests for repro.core.neighbor_ops.

:class:`SparseNeighborOps` must agree with :class:`AdjListReference`, a
short per-vertex loop over each neighbour list written here, with its
BLAS ``count_batch`` forced on (``dense``) and off (``sparse``).  The
reference overrides only ``count`` and ``max_closed``, so running the
shared tests on it also exercises the base class's generic batched
fallbacks.
"""

from functools import partial


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batched_frontier import apply_flat_delta
from repro.core.neighbor_ops import (
    NeighborOps,
    SparseNeighborOps,
    _scatter_unit,
    setdiff_sorted,
    unique_flat,
)
from repro.core.two_state import TwoStateMIS
from repro.dynamic import DeltaNeighborOps, DeltaOverlay
from repro.graphs.generators import complete_graph, star_graph
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph

from oracle import blas_batch


class AdjListReference(NeighborOps):
    """Pure-python neighbour loops: the reference semantics."""

    def count(self, mask):
        return np.array(
            [sum(bool(mask[v]) for v in self.graph.neighbors(u))
             for u in range(self.n)],
            dtype=np.int64,
        )

    def max_closed(self, values):
        return np.array(
            [max([values[u], *(values[v] for v in self.graph.neighbors(u))])
             for u in range(self.n)],
            dtype=np.int64,
        )


def sparse_ops(graph, blas):
    """``SparseNeighborOps(graph)`` with its BLAS batch forced on or off."""
    with blas_batch(blas):
        ops = SparseNeighborOps(graph)
    assert ops.blas_batch is blas
    return ops


BACKENDS = [partial(sparse_ops, blas=True), partial(sparse_ops, blas=False)]


@pytest.fixture(
    params=[*BACKENDS, AdjListReference], ids=["dense", "sparse", "adjlist"]
)
def backend_cls(request):
    return request.param


class TestCount:
    def test_count_star(self, backend_cls):
        g = star_graph(5)
        ops = backend_cls(g)
        mask = np.array([False, True, True, False, False])
        counts = ops.count(mask)
        assert counts[0] == 2  # hub sees both marked leaves
        assert counts[1] == 0  # leaf sees unmarked hub
        mask_hub = np.array([True, False, False, False, False])
        counts = ops.count(mask_hub)
        assert counts[0] == 0
        assert np.all(counts[1:] == 1)

    def test_count_all_marked_clique(self, backend_cls):
        g = complete_graph(6)
        ops = backend_cls(g)
        counts = ops.count(np.ones(6, dtype=bool))
        assert np.all(counts == 5)

    def test_count_none_marked(self, backend_cls):
        g = complete_graph(4)
        ops = backend_cls(g)
        assert np.all(ops.count(np.zeros(4, dtype=bool)) == 0)

    def test_exists_matches_count(self, backend_cls):
        g = gnp_random_graph(40, 0.2, rng=1)
        ops = backend_cls(g)
        rng = np.random.default_rng(2)
        mask = rng.random(40) < 0.3
        assert np.array_equal(ops.exists(mask), ops.count(mask) > 0)


class TestMaxClosed:
    def test_max_closed_includes_self(self, backend_cls):
        g = Graph(3, [(0, 1)])
        ops = backend_cls(g)
        values = np.array([5, 1, 3])
        out = ops.max_closed(values)
        assert out[0] == 5  # self
        assert out[1] == 5  # neighbour 0
        assert out[2] == 3  # isolated

    def test_max_closed_levels(self, backend_cls):
        g = complete_graph(5)
        ops = backend_cls(g)
        values = np.array([0, 1, 2, 3, 4])
        assert np.all(ops.max_closed(values) == 4)

    def test_max_closed_shifted_levels(self, backend_cls):
        # All levels strictly positive: the level-set loop skips the
        # minimum-level probe (always all-True), which must not change
        # the result.
        g = gnp_random_graph(30, 0.2, rng=7)
        ops = backend_cls(g)
        rng = np.random.default_rng(11)
        values = rng.integers(2, 8, size=30)
        ref = AdjListReference(g)
        assert np.array_equal(ops.max_closed(values), ref.max_closed(values))

    def test_max_closed_constant_levels(self, backend_cls):
        # A single distinct level: the loop body never runs; N+ includes
        # self, so the output is the input.
        g = gnp_random_graph(12, 0.3, rng=1)
        ops = backend_cls(g)
        values = np.full(12, 3)
        assert np.array_equal(ops.max_closed(values), values)


class TestCrossBackendAgreement:
    def test_all_backends_agree(self):
        g = gnp_random_graph(60, 0.15, rng=3)
        rng = np.random.default_rng(4)
        mask = rng.random(60) < 0.4
        values = rng.integers(0, 6, size=60)
        ref = AdjListReference(g)
        for build in BACKENDS:
            ops = build(g)
            assert np.array_equal(ops.count(mask), ref.count(mask))
            assert np.array_equal(
                ops.max_closed(values), ref.max_closed(values)
            )


def _graph_with_edges(n, m):
    """An n-vertex graph with exactly ``m`` edges (the first m pairs)."""
    us, vs = np.triu_indices(n, k=1)
    return Graph.from_numpy_edges(n, us[:m], vs[:m])


class TestFactory:
    """Processes build ``SparseNeighborOps(graph)``, whose ``count_batch``
    is a BLAS product exactly when n <= 4096 and density >= 2%."""

    def test_explicit_backends(self):
        # A process adopts the ops passed as ops=.
        g = complete_graph(4)
        for build in BACKENDS:
            ops = build(g)
            assert TwoStateMIS(g, coins=1, ops=ops).ops is ops
        assert type(TwoStateMIS(g, coins=1).ops) is SparseNeighborOps

    def test_unknown_backend_rejected(self):
        # No string selects a backend: neither the ops nor a process
        # takes one.
        g = complete_graph(3)
        with pytest.raises(TypeError):
            SparseNeighborOps(g, "sparse")
        with pytest.raises(TypeError):
            TwoStateMIS(g, coins=1, backend="sparse")

    def test_auto_small_graph_dense(self):
        assert SparseNeighborOps(complete_graph(50)).blas_batch

    def test_auto_n_512_sparse_at_low_density(self):
        # No small-n clause: a sparse graph batches on CSR at any n.
        assert not SparseNeighborOps(Graph(512, [(0, 1)])).blas_batch
        assert not SparseNeighborOps(Graph(2, [])).blas_batch

    def test_auto_n_4096_density_threshold(self):
        # 2% of C(4096, 2) = 167,690.4 edges: one edge either side.
        threshold = 0.02 * 4096 * 4095 / 2
        above = _graph_with_edges(4096, int(threshold) + 1)
        below = _graph_with_edges(4096, int(threshold))
        assert above.density() > 0.02 > below.density()
        assert SparseNeighborOps(above).blas_batch
        assert not SparseNeighborOps(below).blas_batch

    def test_auto_midsize_dense_graph_sparse(self):
        # Past the n cap, however dense: CSR.
        assert not SparseNeighborOps(complete_graph(4097)).blas_batch

    def test_auto_large_sparse_graph_sparse(self):
        g = gnp_random_graph(5000, 0.0005, rng=5)
        assert not SparseNeighborOps(g).blas_batch

    def test_auto_huge_graph_stays_sparse(self):
        g = gnp_random_graph(40_000, 0.0001, rng=7)
        assert not SparseNeighborOps(g).blas_batch

    def test_blas_batch_is_read_only(self):
        with pytest.raises(AttributeError):
            SparseNeighborOps(complete_graph(5)).blas_batch = False


class TestCountBatch:
    def test_matches_rowwise_count(self, backend_cls):
        g = gnp_random_graph(60, 0.15, rng=8)
        ops = backend_cls(g)
        rng = np.random.default_rng(0)
        masks = rng.random((7, 60)) < 0.4
        batch = ops.count_batch(masks)
        assert batch.shape == (7, 60)
        for r in range(7):
            assert np.array_equal(
                np.asarray(batch[r]), np.asarray(ops.count(masks[r]))
            )

    def test_exists_batch_matches_count_batch(self, backend_cls):
        g = gnp_random_graph(30, 0.2, rng=3)
        ops = backend_cls(g)
        rng = np.random.default_rng(1)
        masks = rng.random((5, 30)) < 0.5
        assert np.array_equal(
            ops.exists_batch(masks), ops.count_batch(masks) > 0
        )

    def test_empty_batch(self, backend_cls):
        g = complete_graph(6)
        ops = backend_cls(g)
        out = ops.count_batch(np.zeros((0, 6), dtype=bool))
        assert out.shape == (0, 6)

    def test_bad_shape_rejected(self, backend_cls):
        g = complete_graph(6)
        ops = backend_cls(g)
        with pytest.raises(ValueError):
            ops.count_batch(np.zeros(6, dtype=bool))
        with pytest.raises(ValueError):
            ops.count_batch(np.zeros((2, 5), dtype=bool))


class TestMaxClosedBatch:
    def test_matches_rowwise_max_closed(self, backend_cls):
        g = gnp_random_graph(40, 0.15, rng=9)
        ops = backend_cls(g)
        rng = np.random.default_rng(2)
        values = rng.integers(0, 6, size=(6, 40)).astype(np.int8)
        batch = ops.max_closed_batch(values)
        assert batch.shape == (6, 40)
        for r in range(6):
            assert np.array_equal(
                np.asarray(batch[r]), np.asarray(ops.max_closed(values[r]))
            )

    def test_includes_self(self, backend_cls):
        # An isolated maximum stays put: N+ includes the vertex itself.
        g = complete_graph(1)
        ops = backend_cls(g)
        values = np.array([[3]], dtype=np.int8)
        assert np.array_equal(ops.max_closed_batch(values), [[3]])

    def test_bad_shape_rejected(self, backend_cls):
        g = complete_graph(6)
        ops = backend_cls(g)
        with pytest.raises(ValueError):
            ops.max_closed_batch(np.zeros(6, dtype=np.int8))


class TestIndexSetHelpers:
    """The hash-free set helpers return what numpy's set routines do."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5000).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(st.integers(0, size - 1), max_size=300),
            )
        ),
        st.sampled_from([np.int64, np.int32]),
    )
    def test_unique_flat_equals_np_unique(self, case, dtype):
        # Small sizes take the boolean pass, large ones the sort.
        size, values = case
        idx = np.array(values, dtype=dtype)
        out = unique_flat(idx, size)
        assert out.dtype == idx.dtype
        assert np.array_equal(out, np.unique(idx))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.integers(0, 500), max_size=80),
        st.lists(st.integers(0, 520), max_size=80),
    )
    def test_setdiff_sorted_equals_np_setdiff1d(self, keep, remove):
        idx = np.array(sorted(keep), dtype=np.int64)
        drop = np.array(remove, dtype=np.int64)
        assert np.array_equal(
            setdiff_sorted(idx, drop), np.setdiff1d(idx, drop)
        )


# ----------------------------------------------------------------------
# Count-delta scatters: the one helper and its three callers
# ----------------------------------------------------------------------
#: How many targets one side of a delta holds, relative to the array
#: size: absent, empty, one, around size/64, around size/2, between
#: size and 2*size (targets must repeat), and above 2*size (past the
#: histogram switch, as on dense graphs).
SIDE_KINDS = ("none", "empty", "one", "size/64", "size/2", "above", "dense")


@st.composite
def count_deltas(draw, size, index_dtype=np.int64):
    """``(up, down)`` target arrays in ``[0, size)``, each possibly ``None``.

    Targets repeat freely, and when both sides are non-empty ``down``
    may share targets with ``up``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def side():
        kind = draw(st.sampled_from(SIDE_KINDS))
        if kind == "none":
            return None
        jitter = draw(st.integers(-2, 2))
        k = {
            "empty": 0,
            "one": 1,
            "size/64": max(1, size // 64 + jitter),
            "size/2": max(1, size // 2 + jitter),
            "above": size + draw(st.integers(1, size)),
            "dense": 2 * size + draw(st.integers(1, 2 * size)),
        }[kind]
        return rng.integers(0, size, k).astype(index_dtype)

    up, down = side(), side()
    if (
        up is not None
        and down is not None
        and up.size
        and down.size
        and draw(st.booleans())
    ):
        half = (down.size + 1) // 2
        down[:half] = rng.choice(up, half)
    return up, down


def _hist(targets, size):
    if targets is None:
        return np.zeros(size, dtype=np.int64)
    return np.bincount(targets, minlength=size)


def _start_counts(size, dtype, seed):
    return np.random.default_rng(seed).integers(-3, 10, size).astype(dtype)


def _assert_scattered(counts, before, want, dtype):
    assert counts.dtype == dtype
    np.testing.assert_array_equal(counts, before.astype(np.int64) + want)


@st.composite
def flat_cases(draw):
    size = draw(st.integers(1, 3000))
    index_dtype = draw(st.sampled_from([np.int64, np.int32]))
    up, down = draw(count_deltas(size, index_dtype))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return size, dtype, up, down, draw(st.integers(0, 2**16))


@st.composite
def vertex_cases(draw, max_n=160):
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.0, 3.0 / n if n > 3 else 0.5, 0.3, 1.0]))
    graph = gnp_random_graph(n, p, rng=draw(st.integers(0, 2**16)))
    up, down = draw(count_deltas(n))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return graph, dtype, up, down, draw(st.integers(0, 2**16))


class TestCountDeltaScatter:
    """Every count delta equals ``counts + hist(up) - hist(down)``.

    ``_scatter_unit`` applies it at flat targets; ``apply_flat_delta``
    is its batched caller, and ``apply_count_delta`` (static backends
    and the dynamic overlay) scatters at the neighbours of vertex
    multisets, where the histogram goes through the adjacency matrix.
    Counts are updated in place and keep their dtype.
    """

    @pytest.mark.parametrize("scatter", [_scatter_unit, apply_flat_delta])
    @settings(max_examples=150, deadline=None)
    @given(flat_cases())
    def test_flat_scatter_matches_histograms(self, scatter, case):
        size, dtype, up, down, seed = case
        counts = _start_counts(size, dtype, seed)
        before = counts.copy()
        assert scatter(counts, up, down) is None
        _assert_scattered(
            counts, before, _hist(up, size) - _hist(down, size), dtype
        )

    @staticmethod
    def _check_vertex_delta(ops, adjacency, dtype, up, down, seed):
        n = adjacency.shape[0]
        counts = _start_counts(n, dtype, seed)
        before = counts.copy()
        touched = ops.apply_count_delta(counts, up, down)
        up_hist, down_hist = _hist(up, n), _hist(down, n)
        _assert_scattered(
            counts, before, adjacency @ up_hist - adjacency @ down_hist, dtype
        )
        # The returned targets are the gathered neighbours, with
        # multiplicity, of both sides.
        np.testing.assert_array_equal(
            np.bincount(touched, minlength=n), adjacency @ (up_hist + down_hist)
        )

    @settings(max_examples=100, deadline=None)
    @given(vertex_cases())
    def test_apply_count_delta_matches_adjacency(self, case):
        graph, dtype, up, down, seed = case
        adjacency = graph.adjacency_dense().astype(np.int64)
        self._check_vertex_delta(
            SparseNeighborOps(graph), adjacency, dtype, up, down, seed
        )

    @settings(max_examples=60, deadline=None)
    @given(vertex_cases(max_n=60), st.integers(0, 2**16))
    def test_overlay_apply_count_delta_matches_adjacency(self, case, churn):
        graph, dtype, up, down, seed = case
        overlay = DeltaOverlay(graph)
        rng = np.random.default_rng(churn)
        for _ in range(rng.integers(0, 3 * graph.n + 1)):
            u, v = rng.integers(0, graph.n, size=2)
            if u != v:
                if rng.random() < 0.5:
                    overlay.add_edge(u, v)
                else:
                    overlay.remove_edge(u, v)
        adjacency = overlay.snapshot().adjacency_dense().astype(np.int64)
        self._check_vertex_delta(
            DeltaNeighborOps(overlay), adjacency, dtype, up, down, seed
        )
