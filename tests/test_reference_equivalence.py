"""Trajectory equivalence: vectorized engines vs literal references.

Under a shared coin source (same seed, same draw order), each vectorized
engine must produce the *exact* same state trajectory as the pure-python
pseudocode transcription in repro.core.reference.  This pins the fast
engines to the paper's definitions.
"""

import numpy as np
import pytest

from repro.core.reference import (
    ReferenceIndependentDaemon,
    ReferenceLogSwitch,
    ReferenceThreeColor,
    ReferenceThreeState,
    ReferenceTwoState,
)
from repro.core.schedulers import IndependentScheduler, ScheduledTwoStateMIS
from repro.core.switch import RandomizedLogSwitch
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    star_graph,
)
from repro.graphs.random_graphs import gnp_random_graph, random_tree

GRAPHS = [
    ("clique", complete_graph(12)),
    ("cycle", cycle_graph(13)),
    ("star", star_graph(9)),
    ("petersen", petersen_graph()),
    ("gnp", gnp_random_graph(25, 0.2, rng=0)),
    ("tree", random_tree(20, rng=1)),
]
ROUNDS = 40


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
class TestTwoStateEquivalence:
    def test_trajectory_identical(self, name, graph):
        seed = 101
        fast = TwoStateMIS(graph, coins=seed)
        ref = ReferenceTwoState(graph, coins=seed)
        assert np.array_equal(fast.black_mask(), ref.black_mask())
        for t in range(ROUNDS):
            fast.step()
            ref.step()
            assert np.array_equal(
                fast.black_mask(), ref.black_mask()
            ), f"{name}: divergence at round {t + 1}"

    def test_active_and_stable_sets_agree(self, name, graph):
        seed = 202
        fast = TwoStateMIS(graph, coins=seed)
        ref = ReferenceTwoState(graph, coins=seed)
        for _ in range(15):
            assert np.array_equal(fast.active_mask(), ref.active_mask())
            assert np.array_equal(
                fast.stable_black_mask(), ref.stable_black_mask()
            )
            assert fast.is_stabilized() == ref.is_stabilized()
            fast.step()
            ref.step()


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_eager_two_state_equivalence(name, graph):
    # Footnote 1's ablation: active white vertices promote outright.
    seed = 606
    fast = TwoStateMIS(graph, coins=seed, eager_white_promotion=True)
    ref = ReferenceTwoState(graph, coins=seed, eager_white_promotion=True)
    for t in range(ROUNDS):
        fast.step()
        ref.step()
        assert np.array_equal(
            fast.black_mask(), ref.black_mask()
        ), f"{name}: divergence at round {t + 1}"
    assert fast.is_stabilized() == ref.is_stabilized()


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_independent_daemon_equivalence(name, graph):
    seed = 707
    fast = ScheduledTwoStateMIS(
        graph, scheduler=IndependentScheduler(0.3), coins=seed
    )
    ref = ReferenceIndependentDaemon(graph, 0.3, coins=seed)
    for t in range(ROUNDS):
        fast.step()
        ref.step()
        assert np.array_equal(
            fast.black_mask(), ref.black_mask()
        ), f"{name}: divergence at round {t + 1}"
    assert np.array_equal(fast.covered_mask(), ref.covered_mask())


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_three_state_equivalence(name, graph):
    seed = 303
    fast = ThreeStateMIS(graph, coins=seed)
    ref = ReferenceThreeState(graph, coins=seed)
    assert np.array_equal(fast.state_vector(), ref.states)
    for t in range(ROUNDS):
        fast.step()
        ref.step()
        assert np.array_equal(
            fast.state_vector(), ref.states
        ), f"{name}: divergence at round {t + 1}"


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_switch_equivalence(name, graph):
    seed = 404
    zeta = 0.25
    fast = RandomizedLogSwitch(graph, coins=seed, zeta=zeta)
    ref = ReferenceLogSwitch(graph, coins=seed, zeta=zeta)
    assert np.array_equal(fast.levels, ref.levels)
    for t in range(ROUNDS):
        fast.step()
        ref.step()
        assert np.array_equal(
            fast.levels, ref.levels
        ), f"{name}: switch divergence at round {t + 1}"
        assert np.array_equal(fast.sigma(), ref.sigma())


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_three_color_equivalence(name, graph):
    seed = 505
    a = 16.0
    fast = ThreeColorMIS(graph, coins=seed, a=a)
    ref = ReferenceThreeColor(graph, coins=seed, a=a)
    assert np.array_equal(fast.colors, ref.colors)
    for t in range(ROUNDS):
        fast.step()
        ref.step()
        assert np.array_equal(
            fast.colors, ref.colors
        ), f"{name}: color divergence at round {t + 1}"
        assert np.array_equal(
            fast.switch.levels, ref.switch.levels
        ), f"{name}: switch divergence at round {t + 1}"


def test_equivalence_with_explicit_init():
    graph = cycle_graph(10)
    init = np.array([True] * 5 + [False] * 5)
    fast = TwoStateMIS(graph, coins=7, init=init)
    ref = ReferenceTwoState(graph, coins=7, init=init)
    for _ in range(25):
        fast.step()
        ref.step()
    assert np.array_equal(fast.black_mask(), ref.black_mask())
