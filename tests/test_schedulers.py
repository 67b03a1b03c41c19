"""Tests for repro.core.schedulers."""

import numpy as np
import pytest

from repro.core.schedulers import (
    AdversarialGreedyScheduler,
    IndependentScheduler,
    ScheduledTwoStateMIS,
    SingleVertexScheduler,
    SynchronousScheduler,
)
from repro.core.two_state import TwoStateMIS
from repro.core.verify import is_maximal_independent_set
from repro.graphs.generators import complete_graph, cycle_graph, star_graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.rng import ScriptedCoins
from repro.sim.runner import run_until_stable


class TestSynchronousEquivalence:
    def test_matches_two_state_process_exactly(self):
        # Under the synchronous scheduler, the scheduled process is the
        # Definition 4 process: bit-exact trajectories on shared coins.
        g = gnp_random_graph(40, 0.15, rng=1)
        scheduled = ScheduledTwoStateMIS(
            g, scheduler=SynchronousScheduler(), coins=42
        )
        plain = TwoStateMIS(g, coins=42)
        for _ in range(40):
            scheduled.step()
            plain.step()
            assert np.array_equal(
                scheduled.black_mask(), plain.black_mask()
            )


class TestIndependentScheduler:
    def test_q_validation(self):
        with pytest.raises(ValueError):
            IndependentScheduler(0.0)
        with pytest.raises(ValueError):
            IndependentScheduler(1.5)

    def test_q_one_selects_everyone(self):
        g = cycle_graph(10)
        proc = ScheduledTwoStateMIS(
            g, scheduler=IndependentScheduler(1.0), coins=0
        )
        assert IndependentScheduler(1.0).select(proc).all()

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_stabilizes_for_all_q(self, q):
        g = gnp_random_graph(60, 0.08, rng=2)
        proc = ScheduledTwoStateMIS(
            g, scheduler=IndependentScheduler(q), coins=3
        )
        result = run_until_stable(proc, max_rounds=200_000)
        assert result.stabilized
        assert is_maximal_independent_set(g, result.mis)

    def test_lower_q_slower_on_average(self):
        g = complete_graph(32)
        times = {}
        for q in (1.0, 0.25):
            total = 0
            for seed in range(10):
                proc = ScheduledTwoStateMIS(
                    g, scheduler=IndependentScheduler(q), coins=seed
                )
                total += run_until_stable(
                    proc, max_rounds=200_000
                ).stabilization_round
            times[q] = total
        assert times[0.25] > times[1.0]


class TestSingleVertexSchedulers:
    def test_random_daemon_selects_one(self):
        g = star_graph(9)
        proc = ScheduledTwoStateMIS(
            g, scheduler=SingleVertexScheduler(), coins=4
        )
        mask = SingleVertexScheduler().select(proc)
        assert mask.sum() == 1

    def test_random_daemon_stabilizes(self):
        g = cycle_graph(15)
        proc = ScheduledTwoStateMIS(
            g, scheduler=SingleVertexScheduler(), coins=5
        )
        result = run_until_stable(proc, max_rounds=500_000)
        assert result.stabilized
        assert is_maximal_independent_set(g, result.mis)

    def test_adversarial_daemon_selects_enabled_vertex(self):
        g = star_graph(6)
        proc = ScheduledTwoStateMIS(
            g, coins=0, init="all_black",
            scheduler=AdversarialGreedyScheduler(),
        )
        mask = AdversarialGreedyScheduler().select(proc)
        assert mask.sum() == 1
        assert proc.active_mask()[np.flatnonzero(mask)[0]]

    def test_adversarial_daemon_empty_when_stable(self):
        g = star_graph(4)
        init = np.array([True, False, False, False])
        proc = ScheduledTwoStateMIS(
            g, coins=0, init=init,
            scheduler=AdversarialGreedyScheduler(),
        )
        assert AdversarialGreedyScheduler().select(proc).sum() == 0

    def test_adversarial_daemon_stabilizes(self):
        g = gnp_random_graph(30, 0.2, rng=6)
        proc = ScheduledTwoStateMIS(
            g, scheduler=AdversarialGreedyScheduler(), coins=7
        )
        result = run_until_stable(proc, max_rounds=500_000)
        assert result.stabilized


class TestSchedulerHotPathRegressions:
    """Coin-stream pins for the vectorized scheduler hot paths.

    The single-vertex daemon now draws one ``bits(⌈log₂ n⌉)`` array per
    round (instead of ⌈log₂ n⌉ separate ``bits(1)`` draws) and the
    adversary scores candidates with one ``ops.count`` reduction
    (instead of a per-vertex Python loop).  These tests pin the
    resulting trajectories so any future change to the draw discipline
    or the tie-breaking is caught.
    """

    def test_single_vertex_daemon_pinned_selections(self):
        # Pinned for g = G(30, 0.2; rng=6), coins=4; regenerate the
        # constants if the coin discipline deliberately changes.
        g = gnp_random_graph(30, 0.2, rng=6)
        proc = ScheduledTwoStateMIS(
            g, scheduler=SingleVertexScheduler(), coins=4
        )
        daemon = SingleVertexScheduler()
        selections = [
            int(np.flatnonzero(daemon.select(proc))[0]) for _ in range(8)
        ]
        assert selections == [13, 20, 9, 3, 27, 7, 0, 1]

    def test_single_vertex_daemon_single_draw(self):
        # n = 30 needs ⌈log₂ 30⌉ = 5 bits: exactly ONE length-5 draw.
        g = cycle_graph(30)
        script = [[True, False, True, False, False]]  # index 5
        proc = ScheduledTwoStateMIS(
            g, scheduler=SingleVertexScheduler(), coins=ScriptedCoins(script),
            init="all_white",
        )
        mask = SingleVertexScheduler().select(proc)
        assert proc.coins.draws_consumed == 1
        assert np.flatnonzero(mask).tolist() == [5]

    def test_adversarial_daemon_matches_reference_loop(self):
        # The vectorized select must reproduce the original per-vertex
        # scoring loop (most enabled neighbours, ties → largest id).
        def reference_select(process):
            enabled = process.active_mask()
            mask = np.zeros(process.n, dtype=bool)
            if not enabled.any():
                return mask
            best_u, best_score = -1, -1
            for u in np.flatnonzero(enabled):
                score = sum(
                    1
                    for v in process.graph.neighbors(int(u))
                    if enabled[v]
                )
                if score > best_score or (
                    score == best_score and int(u) > best_u
                ):
                    best_score, best_u = score, int(u)
            mask[best_u] = True
            return mask

        g = gnp_random_graph(40, 0.15, rng=12)
        daemon = AdversarialGreedyScheduler()
        for seed in range(4):
            proc = ScheduledTwoStateMIS(g, scheduler=daemon, coins=seed)
            for _ in range(60):
                assert np.array_equal(
                    daemon.select(proc), reference_select(proc)
                )
                if proc.is_stabilized():
                    break
                proc.step()

    def test_adversarial_daemon_trajectory_unchanged(self):
        # The adversary draws no coins, so the full run is pinned.
        g = gnp_random_graph(30, 0.2, rng=6)
        proc = ScheduledTwoStateMIS(
            g, scheduler=AdversarialGreedyScheduler(), coins=7
        )
        result = run_until_stable(proc, max_rounds=500_000)
        assert result.stabilized
        assert result.stabilization_round == 20

    def test_single_vertex_daemon_pinned_stabilization(self):
        g = cycle_graph(12)
        proc = ScheduledTwoStateMIS(
            g, scheduler=SingleVertexScheduler(), coins=11
        )
        result = run_until_stable(proc, max_rounds=500_000)
        assert result.stabilized
        assert is_maximal_independent_set(g, result.mis)
        # Pinned trajectory under the one-draw-per-round discipline.
        assert result.stabilization_round == 55


class TestScheduledSemantics:
    def test_unselected_vertices_never_change(self):
        # A scheduler that selects nobody freezes the process.
        class NobodyScheduler:
            def select(self, process):
                return np.zeros(process.n, dtype=bool)

        g = complete_graph(8)
        proc = ScheduledTwoStateMIS(
            g, scheduler=NobodyScheduler(), coins=8, init="all_black"
        )
        before = proc.black_mask()
        proc.step(10)
        assert np.array_equal(proc.black_mask(), before)

    def test_corrupt_and_recover(self):
        g = cycle_graph(20)
        proc = ScheduledTwoStateMIS(
            g, scheduler=IndependentScheduler(0.5), coins=9
        )
        run_until_stable(proc, max_rounds=200_000)
        proc.corrupt(np.ones(20, dtype=bool))
        result = run_until_stable(proc, max_rounds=200_000)
        assert result.stabilized
