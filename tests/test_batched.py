"""Tests for the batched trial engine (repro.core.batched).

Every replica of :class:`BatchedTwoStateMIS` must reproduce exactly the
trajectory its wrapped :class:`TwoStateMIS` would have produced under
:func:`run_until_stable` with the same coin stream: the trajectory of
the literal reference.  ``tests/test_oracle.py`` draws the runs that
pin this; the fixed cases here check named ones through the same
oracle.  The rest pins the plumbing around the engines: ``batch=``
modes, batchability and input validation, and the Monte-Carlo entry
point.
"""

import numpy as np
import pytest

from repro.core.batched import BatchedTwoStateMIS, batchable
from repro.core.reference import ReferenceTwoState
from repro.core.schedulers import IndependentScheduler, ScheduledTwoStateMIS
from repro.core.three_color import ThreeColorMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import complete_graph, cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.rng import ScriptedCoins, spawn_seeds
from repro.sim.runner import run_many_until_stable

from oracle import (
    Fleet,
    assert_same_results,
    check_batched,
    check_fleet,
    fleet,
    reference_waves,
    run_reference,
)


class TestEquivalenceSharedGraph:
    def test_gnp_shared_graph(self):
        graph = gnp_random_graph(120, 0.08, rng=5)
        check_batched(fleet("2-state", [graph] * 24, seed=11))

    def test_writeback_matches_serial_processes(self):
        check_batched(fleet("2-state", [cycle_graph(40)] * 10, seed=3))

    def test_sparse_backend_graph(self):
        graph = gnp_random_graph(200, 0.02, rng=2)
        check_batched(
            fleet("2-state", [graph] * 8, blas=False, seed=17)
        )

    def test_eager_white_promotion_replicas(self):
        graph = gnp_random_graph(60, 0.1, rng=9)
        check_batched(fleet("eager", [graph] * 12, seed=23))

    def test_initially_stable_replicas_report_round_zero(self):
        g = Graph(5)  # edgeless: all-black is already an MIS
        procs = [
            TwoStateMIS(g, coins=s, init="all_black") for s in range(4)
        ]
        results = BatchedTwoStateMIS(procs).run(100)
        assert all(r.stabilization_round == 0 for r in results)
        assert all(np.array_equal(r.mis, np.arange(5)) for r in results)

    def test_budget_exhaustion_mixed_with_successes(self):
        # On K_n some seeds stabilize fast; a tiny budget forces a mix.
        spec = fleet("2-state", [complete_graph(24)] * 30, budget=2, seed=31)
        check_batched(spec)
        outcomes = {r.stabilized for r in reference_waves(spec)[0].results}
        assert outcomes == {False, True}

    def test_scripted_coins_replicas(self):
        # Path 0-1-2, all white: both endpoints and the middle are
        # active; scripted coins force an exact trajectory.
        g = path_graph(3)
        scripts = ([[0, 0, 0], [1, 0, 1]], [[0, 1, 0]])
        refs = [
            ReferenceTwoState(g, coins=ScriptedCoins(s), init="all_white")
            for s in scripts
        ]
        batched = BatchedTwoStateMIS(
            [
                TwoStateMIS(g, coins=ScriptedCoins(s), init="all_white")
                for s in scripts
            ]
        ).run(10)
        assert_same_results([run_reference(r, 10) for r in refs], batched)
        assert np.array_equal(batched[1].mis, np.array([1]))


class TestEquivalenceHeterogeneousGraphs:
    def test_resampled_graphs_per_replica(self):
        graphs = [gnp_random_graph(90, 0.05, rng=s) for s in range(20)]
        check_batched(fleet("2-state", graphs, seed=7))

    def test_block_compaction_with_long_straggler(self):
        # Near-instant replicas (edgeless graphs) beside slow ones: the
        # 3-color engine, which keeps no aggregates, compacts its block
        # as they retire.
        graphs = [
            Graph(30) if s % 3 == 0 else gnp_random_graph(30, 0.2, rng=s)
            for s in range(12)
        ]
        check_batched(fleet("3-color", graphs, seed=1))


class TestRunManyUntilStable:
    def test_mixed_process_types_preserve_order(self):
        graph = gnp_random_graph(40, 0.1, rng=1)
        check_fleet(Fleet(["2-state", "3-color"] * 3, [graph] * 6, seed=19))

    def test_batch_none_forces_serial(self):
        g = complete_graph(16)
        seeds = spawn_seeds(2, 5)
        a = run_many_until_stable(
            [TwoStateMIS(g, coins=s) for s in seeds], batch=None
        )
        b = run_many_until_stable(
            [TwoStateMIS(g, coins=s) for s in seeds], batch="auto"
        )
        assert_same_results(a, b)

    def test_int_batch_chunks(self):
        g = complete_graph(16)
        seeds = spawn_seeds(4, 9)
        a = run_many_until_stable(
            [TwoStateMIS(g, coins=s) for s in seeds], batch=4
        )
        b = run_many_until_stable(
            [TwoStateMIS(g, coins=s) for s in seeds], batch=None
        )
        assert_same_results(b, a)

    def test_invalid_batch_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            run_many_until_stable([TwoStateMIS(g, coins=0)], batch=0)
        with pytest.raises(ValueError):
            run_many_until_stable([TwoStateMIS(g, coins=0)], batch="fast")


class TestBatchableAndValidation:
    def test_batchable_predicate(self):
        g = complete_graph(6)
        assert batchable(TwoStateMIS(g, coins=0))
        # The 3-state, 3-color (randomized switch) and independently
        # scheduled processes are batchable too — see
        # tests/test_batched_families.py for their dispatch suite.
        assert batchable(ThreeColorMIS(g, coins=0))
        assert batchable(
            ScheduledTwoStateMIS(
                g, coins=0, scheduler=IndependentScheduler(0.5)
            )
        )

        class TwoStateSubclass(TwoStateMIS):
            pass

        # Subclasses may override _advance; they stay on the serial path.
        assert not batchable(TwoStateSubclass(g, coins=0))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchedTwoStateMIS([])

    def test_non_batchable_process_rejected(self):
        g = complete_graph(6)
        with pytest.raises(TypeError):
            BatchedTwoStateMIS([ThreeColorMIS(g, coins=0)])

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            BatchedTwoStateMIS(
                [
                    TwoStateMIS(complete_graph(4), coins=0),
                    TwoStateMIS(complete_graph(5), coins=1),
                ]
            )

    def test_negative_max_rounds_rejected(self):
        engine = BatchedTwoStateMIS(
            [TwoStateMIS(complete_graph(4), coins=0)]
        )
        with pytest.raises(ValueError):
            engine.run(-1)


class TestMonteCarloIntegration:
    def test_estimate_identical_across_batch_modes(self):
        def make(s):
            rng = np.random.default_rng(s)
            graph = gnp_random_graph(70, 0.06, rng=rng)
            return TwoStateMIS(graph, coins=rng)

        kw = dict(trials=25, max_rounds=10_000, seed=13)
        st_serial = estimate_stabilization_time(make, batch=None, **kw)
        st_auto = estimate_stabilization_time(make, batch="auto", **kw)
        st_chunk = estimate_stabilization_time(make, batch=7, **kw)
        assert np.array_equal(st_serial.times, st_auto.times)
        assert np.array_equal(st_serial.times, st_chunk.times)
        assert st_serial.failures == st_auto.failures == st_chunk.failures

    def test_estimate_serial_fallback_for_three_color(self):
        g = gnp_random_graph(40, 0.1, rng=4)
        kw = dict(trials=8, max_rounds=50_000, seed=5)
        st_a = estimate_stabilization_time(
            lambda s: ThreeColorMIS(g, coins=s), batch="auto", **kw
        )
        st_b = estimate_stabilization_time(
            lambda s: ThreeColorMIS(g, coins=s), batch=None, **kw
        )
        assert np.array_equal(st_a.times, st_b.times)

    def test_invalid_batch_rejected(self):
        g = complete_graph(8)
        with pytest.raises(ValueError):
            estimate_stabilization_time(
                lambda s: TwoStateMIS(g, coins=s),
                trials=2,
                max_rounds=10,
                batch=-3,
            )
