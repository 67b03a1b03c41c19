"""Tests for repro.core.verify."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.greedy import greedy_mis
from repro.core.verify import (
    assert_valid_mis,
    greedy_mis_size_bounds,
    independence_violations,
    is_independent_set,
    is_maximal_independent_set,
    maximality_violations,
)
from repro.graphs.generators import complete_graph, cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.sim.rng import rows_to_words

from oracle import random_graph


class TestIndependence:
    def test_empty_set_independent(self, triangle):
        assert is_independent_set(triangle, [])

    def test_violations_listed(self, triangle):
        violations = independence_violations(triangle, [0, 1])
        assert violations == [(0, 1)]

    def test_accepts_boolean_mask(self, triangle):
        mask = np.array([True, False, True])
        assert not is_independent_set(triangle, mask)

    def test_mask_shape_validation(self, triangle):
        with pytest.raises(ValueError):
            is_independent_set(triangle, np.array([True, False]))

    def test_index_out_of_range(self, triangle):
        with pytest.raises(ValueError):
            is_independent_set(triangle, [0, 5])


class TestMaximality:
    def test_maximality_violations(self):
        g = path_graph(5)
        # {0} is independent but 2, 3, 4 are uncovered.
        assert maximality_violations(g, [0]) == [2, 3, 4]

    def test_valid_mis(self):
        g = path_graph(5)
        assert is_maximal_independent_set(g, [0, 2, 4])
        assert not is_maximal_independent_set(g, [0, 2])  # 4 uncovered
        assert not is_maximal_independent_set(g, [0, 1, 3])  # not indep

    def test_cycle_mis(self):
        g = cycle_graph(6)
        assert is_maximal_independent_set(g, [0, 2, 4])
        assert not is_maximal_independent_set(g, [0, 3, 1])

    def test_clique_mis_any_single_vertex(self):
        g = complete_graph(5)
        for u in range(5):
            assert is_maximal_independent_set(g, [u])

    def test_empty_graph_mis_is_everything(self):
        g = Graph(4)
        assert is_maximal_independent_set(g, [0, 1, 2, 3])
        assert not is_maximal_independent_set(g, [0, 1])


class TestAssertValidMis:
    def test_passes_silently(self):
        assert_valid_mis(path_graph(3), [0, 2])

    def test_independence_error_message(self, triangle):
        with pytest.raises(AssertionError, match="independence"):
            assert_valid_mis(triangle, [0, 1])

    def test_maximality_error_message(self):
        with pytest.raises(AssertionError, match="maximality"):
            assert_valid_mis(path_graph(5), [0])


class TestSizeBounds:
    def test_bounds_bracket_known_mis(self):
        g = cycle_graph(9)
        lower, upper = greedy_mis_size_bounds(g)
        # C_9: MIS sizes range 3..4.
        assert lower <= 3
        assert upper >= 4

    def test_clique_bounds(self):
        lower, upper = greedy_mis_size_bounds(complete_graph(10))
        assert lower == 1
        assert upper >= 1

    def test_empty_graph(self):
        assert greedy_mis_size_bounds(Graph(0)) == (0, 0)
        lower, upper = greedy_mis_size_bounds(Graph(5))
        assert lower >= 1
        assert upper == 5


#: Row counts at the byte and word edges of the packing (8 rows per
#: byte, 64 per word), and past two words.
EDGE_KS = (0, 1, 5, 7, 8, 9, 63, 64, 65, 70, 128, 129, 130)


@st.composite
def row_matrices(draw, k=None):
    """A graph on up to 200 vertices, some isolated, and a ``(k, n)``
    mask in C order, Fortran order or as a strided view, some rows of
    it maximal independent sets."""
    if k is None:
        k = draw(st.integers(0, 130))
    n = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    graph = random_graph(
        n,
        draw(st.integers(1, 3)),
        draw(st.sampled_from((3.0, 0.0, 1.0, 8.0))),
        draw(st.sampled_from((0.0, 0.3, 1.0))),
        seed,
    )
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from((0.3, 0.0, 0.05, 0.7, 1.0)))
    full = rng.random((2 * k, 2 * n + 1)) < density
    mask = full[::2, 1::2]  # strided in both axes
    for row in range(0, k, max(1, k // 3)):
        mask[row] = False
        mask[row, greedy_mis(graph, rng.permutation(n).tolist())] = True
    layout = draw(st.sampled_from(("strided", "C", "F")))
    if layout == "C":
        mask = np.ascontiguousarray(mask)
    elif layout == "F":
        mask = np.asfortranarray(mask)
    return graph, mask


class TestRowForm:
    """A ``(k, n)`` matrix checks k sets at once, row-labelled."""

    @pytest.mark.parametrize("k", EDGE_KS)
    @given(data=st.data(), shared=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_matches_per_row_checks(self, k, data, shared):
        graph, rows = data.draw(row_matrices(k))
        words = rows_to_words(rows) if shared else None
        assert independence_violations(graph, rows, words=words) == [
            (j, u, v)
            for j in range(k)
            for u, v in independence_violations(graph, rows[j])
        ]
        assert maximality_violations(graph, rows, words=words) == [
            (j, v)
            for j in range(k)
            for v in maximality_violations(graph, rows[j])
        ]
        # The shared-words check names the first row failing
        # independence, else the first failing maximality.
        dependent = [j for j in range(k) if not is_independent_set(graph, rows[j])]
        valid = [
            j for j in range(k) if is_maximal_independent_set(graph, rows[j])
        ]
        assert_valid_mis(graph, rows[valid], rows=valid)
        if dependent:
            match = rf"^row {dependent[0]}: independence"
        elif len(valid) < k:
            first = min(set(range(k)) - set(valid))
            match = rf"^row {first}: maximality"
        else:
            assert_valid_mis(graph, rows)
            return
        with pytest.raises(AssertionError, match=match):
            assert_valid_mis(graph, rows)

    @given(matrix=row_matrices())
    @settings(max_examples=60, deadline=None)
    def test_packing_is_packbits_in_whole_words(self, matrix):
        _, mask = matrix
        k, n = mask.shape
        want = np.zeros((n, 8 * -(-k // 64)), dtype=np.uint8)
        want[:, : -(-k // 8)] = np.packbits(
            np.ascontiguousarray(mask.T), axis=1, bitorder="little"
        )
        words = rows_to_words(mask)
        assert words.dtype == np.uint64 and words.shape == (n, -(-k // 64))
        assert np.array_equal(words.view(np.uint8), want)

    def test_assert_names_the_failing_row(self):
        g = path_graph(4)
        rows = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 1], [1, 0, 0, 0]],
            dtype=bool,
        )
        assert_valid_mis(g, rows[:2])
        with pytest.raises(AssertionError, match=r"row 2: independence .*1 edge"):
            assert_valid_mis(g, rows)
        with pytest.raises(AssertionError, match=r"row 7: maximality"):
            assert_valid_mis(g, rows[[0, 3]], rows=[5, 7])
