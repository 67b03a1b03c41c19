"""Tests for repro.graphs.properties."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    connected_components,
    core_numbers,
    degeneracy,
    diameter,
    eccentricity,
    is_connected,
    max_common_neighbors,
)
from repro.graphs.random_graphs import gnp_random_graph, random_tree


class TestConnectivity:
    def test_components(self):
        g = Graph(6, [(0, 1), (2, 3), (3, 4)])
        comps = connected_components(g)
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3, 4), (5,)]

    def test_is_connected(self, small_zoo):
        assert is_connected(small_zoo["path10"])
        assert not is_connected(small_zoo["empty5"])
        assert is_connected(small_zoo["single"])
        assert is_connected(Graph(0))

    def test_eccentricity_path(self):
        g = gen.path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_eccentricity_disconnected_raises(self):
        with pytest.raises(ValueError):
            eccentricity(Graph(3, [(0, 1)]), 0)

    def test_diameter_known(self):
        assert diameter(gen.complete_graph(5)) == 1
        assert diameter(gen.path_graph(7)) == 6
        assert diameter(gen.cycle_graph(8)) == 4
        assert diameter(Graph(0)) == 0
        assert diameter(Graph(1)) == 0


class TestCoresAndDegeneracy:
    def test_core_numbers_clique(self):
        g = gen.complete_graph(5)
        assert np.all(core_numbers(g) == 4)

    def test_core_numbers_star(self):
        g = gen.star_graph(6)
        assert np.all(core_numbers(g) == 1)

    def test_core_numbers_mixed(self):
        # Triangle with a pendant.
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        cores = core_numbers(g)
        assert cores[3] == 1
        assert cores[0] == cores[1] == cores[2] == 2

    def test_degeneracy_values(self):
        assert degeneracy(gen.complete_graph(6)) == 5
        assert degeneracy(gen.path_graph(10)) == 1
        assert degeneracy(gen.cycle_graph(10)) == 2
        assert degeneracy(gen.grid_graph(4, 4)) == 2
        assert degeneracy(Graph(0)) == 0

    def test_tree_degeneracy_one(self):
        for seed in range(3):
            assert degeneracy(random_tree(40, rng=seed)) == 1


class TestCommonNeighborsAndTriangles:
    def test_max_common_neighbors_known(self):
        assert max_common_neighbors(gen.complete_graph(6)) == 4
        assert max_common_neighbors(gen.star_graph(6)) == 1
        assert max_common_neighbors(gen.path_graph(5)) == 1
        assert max_common_neighbors(Graph(1)) == 0

    def test_max_common_neighbors_sparse_path_matches_dense(self):
        g = gnp_random_graph(80, 0.2, rng=2)
        dense = max_common_neighbors(g)
        # Force the sparse code path by lying about size? Instead
        # recompute by brute force.
        brute = max(
            (len(g.common_neighbors(u, v))
             for u in g.vertices() for v in g.vertices() if u < v),
            default=0,
        )
        assert dense == brute
