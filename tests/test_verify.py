"""Tests for repro.core.verify."""

import numpy as np
import pytest

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


class TestRowForm:
    """A ``(k, n)`` matrix checks k sets at once, row-labelled."""

    @pytest.mark.parametrize("k", [0, 1, 5, 64, 70])
    def test_matches_per_row_checks(self, k):
        from repro.graphs.random_graphs import gnp_random_graph

        rng = np.random.default_rng(k)
        for trial in range(8):
            n = int(rng.integers(0, 30))
            g = gnp_random_graph(n, float(rng.random()), rng=trial)
            rows = rng.random((k, n)) < rng.random()
            assert independence_violations(g, rows) == [
                (j, u, v)
                for j in range(k)
                for u, v in independence_violations(g, rows[j])
            ]
            assert maximality_violations(g, rows) == [
                (j, v)
                for j in range(k)
                for v in maximality_violations(g, rows[j])
            ]

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
