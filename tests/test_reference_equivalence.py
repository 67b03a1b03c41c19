"""Fixed oracle cases: each process on a small named graph zoo.

Under a shared coin source every execution path must produce the
*exact* trajectory of the reference processes in
:mod:`repro.core.reference`.  ``tests/test_oracle.py`` draws the runs
that pin this; these cases run each family, clean and from corrupted
starts and switch levels, through the same serial check on graphs
whose shapes stress it (a clique, a cycle, a star, the Petersen graph,
a G(n, p) sample and a tree).
"""

import pytest

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    star_graph,
)
from repro.graphs.random_graphs import gnp_random_graph, random_tree

from oracle import check_serial, fleet

GRAPHS = [
    ("clique", complete_graph(12)),
    ("cycle", cycle_graph(13)),
    ("star", star_graph(9)),
    ("petersen", petersen_graph()),
    ("gnp", gnp_random_graph(25, 0.2, rng=0)),
    ("tree", random_tree(20, rng=1)),
]
zoo = pytest.mark.parametrize(
    "name,graph", GRAPHS, ids=[name for name, _ in GRAPHS]
)


@zoo
class TestTwoStateEquivalence:
    def test_trajectory_identical(self, name, graph):
        check_serial(fleet("2-state", [graph], seed=101, waves=2, flips=3))

    def test_active_and_stable_sets_agree(self, name, graph):
        check_serial(fleet("2-state", [graph], seed=202, corrupt=True))


@zoo
def test_eager_two_state_equivalence(name, graph):
    # Footnote 1's ablation: active white vertices promote outright.
    check_serial(fleet("eager", [graph], seed=606, corrupt=True))


@zoo
def test_independent_daemon_equivalence(name, graph):
    check_serial(fleet("independent", [graph, graph], seed=707, waves=1))


@zoo
def test_three_state_equivalence(name, graph):
    check_serial(fleet("3-state", [graph], seed=303, corrupt=True, waves=1))


@zoo
def test_switch_equivalence(name, graph):
    # Corrupted switch levels (and colors) on both switch parameters.
    check_serial(fleet("3-color", [graph, graph], seed=404, corrupt=True))


@zoo
def test_three_color_equivalence(name, graph):
    check_serial(fleet("3-color", [graph], seed=505, waves=2, flips=2))


def test_equivalence_with_explicit_init():
    check_serial(fleet("2-state", [cycle_graph(10)], seed=7, corrupt=True))
