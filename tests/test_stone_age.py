"""Tests for the stone-age network (repro.core.reference.ReferenceThreeState)."""

import numpy as np
import pytest

from repro.core.reference import ReferenceThreeState
from repro.core.states import BLACK0, BLACK1, WHITE
from repro.core.three_state import ThreeStateMIS
from repro.core.verify import is_maximal_independent_set
from repro.graphs.generators import complete_graph, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.sim.rng import ScriptedCoins
from repro.sim.runner import run_until_stable


def one_round(graph, init, coins):
    """The states after one round from ``init`` on scripted ``coins``."""
    net = ReferenceThreeState(
        graph, coins=ScriptedCoins([coins]), init=np.array(init)
    )
    net.step()
    return net.states.tolist()


class TestNetwork:
    def test_per_channel_delivery(self):
        net = ReferenceThreeState(
            path_graph(3), init=np.array([BLACK1, WHITE, BLACK0])
        )
        channel0 = net.heard(net.states == BLACK1)
        channel1 = net.heard(net.states == BLACK0)
        # The middle node hears both channels; no node hears itself, and
        # the end nodes are not adjacent.
        assert channel0.tolist() == [False, True, False]
        assert channel1.tolist() == [False, True, False]

    def test_emission_validation(self):
        net = ReferenceThreeState(path_graph(2), init="all_white")
        with pytest.raises(ValueError):
            net.heard(np.array([True]))


class TestNode:
    """Definition 5, one row per test: one round on two or three nodes."""

    def test_emissions(self):
        # Each black node beeps once (on its own channel); white listens.
        net = ReferenceThreeState(
            Graph(3), coins=ScriptedCoins([[False] * 3]),
            init=np.array([BLACK1, BLACK0, WHITE]),
        )
        net.step()
        assert net.beeps == 2

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            ReferenceThreeState(path_graph(2), init=np.array([7, WHITE]))
        net = ReferenceThreeState(path_graph(2), init="all_white")
        with pytest.raises(ValueError):
            net.corrupt(np.array([7, WHITE]))
        with pytest.raises(ValueError):
            net.corrupt(np.array([WHITE]))

    def test_black1_rerandomizes(self):
        assert one_round(path_graph(2), [BLACK1, BLACK1], [False, True]) == [
            BLACK0, BLACK1]

    def test_black0_retreats_on_black1(self):
        assert one_round(path_graph(2), [BLACK0, BLACK1], [True, True]) == [
            WHITE, BLACK1]

    def test_black0_rerandomizes_without_black1(self):
        # Node 1 (white) hears node 0 on channel 1 and stays white.
        assert one_round(path_graph(2), [BLACK0, WHITE], [True, True]) == [
            BLACK1, WHITE]

    def test_black0_does_not_read_its_own_channel(self):
        # Adjacent black0 nodes beep on channel 1 and read only channel
        # 0: no collision detection, so both re-randomize.
        assert one_round(path_graph(2), [BLACK0, BLACK0], [True, False]) == [
            BLACK1, BLACK0]

    def test_white_joins_on_silence(self):
        assert one_round(path_graph(2), [WHITE, WHITE], [False, True]) == [
            BLACK0, BLACK1]

    def test_white_stays_on_black_tone(self):
        # One white node hears channel 0, the other channel 1.
        assert one_round(
            path_graph(4), [WHITE, BLACK1, BLACK0, WHITE], [True] * 4
        ) == [WHITE, BLACK1, WHITE, WHITE]


class TestExecution:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: complete_graph(10),
            lambda: path_graph(12),
            lambda: star_graph(8),
        ],
        ids=["clique", "path", "star"],
    )
    def test_equivalent_to_abstract_three_state(self, graph_factory):
        graph = graph_factory()
        seed = 17
        abstract = ThreeStateMIS(graph, coins=seed)
        stone = ReferenceThreeState(graph, coins=seed)
        assert np.array_equal(abstract.state_vector(), stone.state_vector())
        for _ in range(50):
            abstract.step()
            stone.step()
            assert np.array_equal(
                abstract.state_vector(), stone.state_vector()
            )

    def test_stabilizes_on_suite(self, small_zoo):
        for seed, g in enumerate(small_zoo.values()):
            proc = ReferenceThreeState(g, coins=seed)
            result = run_until_stable(proc, max_rounds=50_000)
            assert result.stabilized
            assert is_maximal_independent_set(g, result.mis)

    def test_active_mask_matches_abstract(self):
        graph = star_graph(7)
        seed = 23
        abstract = ThreeStateMIS(graph, coins=seed)
        stone = ReferenceThreeState(graph, coins=seed)
        for _ in range(20):
            assert np.array_equal(
                abstract.active_mask(), stone.active_mask()
            )
            abstract.step()
            stone.step()

    def test_corrupt_and_recover(self):
        g = complete_graph(8)
        proc = ReferenceThreeState(g, coins=3)
        run_until_stable(proc, max_rounds=50_000)
        proc.corrupt(np.full(8, BLACK1, dtype=np.int8))
        recovery = run_until_stable(proc, max_rounds=50_000)
        assert recovery.stabilized
        assert len(recovery.mis) == 1
