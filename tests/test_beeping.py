"""Tests for the beeping network (repro.core.reference.ReferenceTwoState)."""

import numpy as np
import pytest

from repro.core.reference import ReferenceTwoState
from repro.core.two_state import TwoStateMIS
from repro.core.verify import is_maximal_independent_set
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.sim.rng import ScriptedCoins
from repro.sim.runner import run_until_stable


def one_round(graph, init, coins):
    """The states after one round from ``init`` on scripted ``coins``."""
    net = ReferenceTwoState(
        graph, coins=ScriptedCoins([coins]), init=np.array(init)
    )
    net.step()
    return net.black.tolist()


class TestHeard:
    def test_delivery_semantics(self):
        net = ReferenceTwoState(path_graph(3), init="all_white")
        heard = net.heard(np.array([True, False, False]))
        # Only the middle vertex neighbours the beeper.
        assert heard.tolist() == [False, True, False]

    def test_collision_visibility(self):
        # Two adjacent beepers hear each other (sender collision detection).
        net = ReferenceTwoState(path_graph(2), init="all_white")
        assert net.heard(np.array([True, True])).all()

    def test_no_self_hearing(self):
        net = ReferenceTwoState(Graph(2), init="all_white")
        assert not net.heard(np.array([True, True])).any()

    def test_shape_validation(self):
        net = ReferenceTwoState(path_graph(3), init="all_white")
        with pytest.raises(ValueError):
            net.heard(np.array([True]))


class TestBeepNode:
    """Definition 4, one row per test: one round on two or three nodes."""

    def test_black_beeps_white_listens(self):
        net = ReferenceTwoState(
            path_graph(3), coins=ScriptedCoins([[False] * 3]),
            init=np.array([True, False, False]),
        )
        net.step()
        assert net.beeps == 1

    def test_black_collision_rerandomizes(self):
        assert one_round(path_graph(2), [True, True], [False, True]) == [
            False, True]

    def test_black_no_collision_keeps(self):
        # Node 1 (white) hears node 0, so both keep despite their coins.
        assert one_round(path_graph(2), [True, False], [False, True]) == [
            True, False]

    def test_white_silence_rerandomizes(self):
        assert one_round(path_graph(2), [False, False], [True, False]) == [
            True, False]

    def test_white_hearing_keeps(self):
        assert one_round(path_graph(3), [False, True, False],
                         [True, True, True]) == [False, True, False]


class TestBeepingExecution:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: complete_graph(12),
            lambda: cycle_graph(11),
            lambda: star_graph(8),
        ],
        ids=["clique", "cycle", "star"],
    )
    def test_equivalent_to_abstract_process(self, graph_factory):
        graph = graph_factory()
        seed = 31
        abstract = TwoStateMIS(graph, coins=seed)
        beeping = ReferenceTwoState(graph, coins=seed)
        assert np.array_equal(abstract.black_mask(), beeping.black_mask())
        for _ in range(50):
            abstract.step()
            beeping.step()
            assert np.array_equal(
                abstract.black_mask(), beeping.black_mask()
            )
            assert np.array_equal(
                abstract.active_mask(), beeping.active_mask()
            )

    def test_runs_with_runner(self, small_zoo):
        for seed, g in enumerate(small_zoo.values()):
            proc = ReferenceTwoState(g, coins=seed)
            result = run_until_stable(proc, max_rounds=50_000)
            assert result.stabilized
            assert is_maximal_independent_set(g, result.mis)

    def test_explicit_init(self):
        g = path_graph(3)
        proc = ReferenceTwoState(
            g, coins=0, init=np.array([True, False, True])
        )
        assert proc.black_mask().tolist() == [True, False, True]
        assert proc.is_stabilized()

    def test_corrupt_and_recover(self):
        g = star_graph(10)
        proc = ReferenceTwoState(g, coins=2)
        run_until_stable(proc, max_rounds=50_000)
        proc.corrupt(np.ones(10, dtype=bool))
        assert not proc.is_stabilized()
        recovery = run_until_stable(proc, max_rounds=50_000)
        assert recovery.stabilized

    def test_corrupt_validates_shape(self):
        proc = ReferenceTwoState(path_graph(3), coins=0)
        with pytest.raises(ValueError):
            proc.corrupt(np.ones(5, dtype=bool))

    def test_mis_before_stable_raises(self):
        proc = ReferenceTwoState(
            complete_graph(6), coins=0, init="all_black"
        )
        with pytest.raises(RuntimeError):
            proc.mis()


class TestTrafficAccounting:
    def test_counters_track_protocol_rounds_only(self):
        proc = ReferenceTwoState(cycle_graph(10), coins=1)
        for _ in range(5):
            proc.step()
        beeps = proc.beeps
        # Introspection must not inflate the counter.
        proc.active_mask()
        proc.covered_mask()
        proc.is_stabilized()
        assert (proc.round, proc.beeps) == (5, beeps)

    def test_beeps_bounded_by_one_per_node_round(self):
        proc = ReferenceTwoState(star_graph(12), coins=2)
        for _ in range(20):
            proc.step()
        rate = proc.beeps_per_node_round()
        assert 0.0 <= rate <= 1.0

    def test_empty_network_rate(self):
        net = ReferenceTwoState(Graph(3), coins=0)
        assert net.beeps_per_node_round() == 0.0
