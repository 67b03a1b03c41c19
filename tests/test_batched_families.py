"""Equivalence suites for the batched engine family (repro.core.batched).

Same contract as ``tests/test_batched.py``, extended to the 3-state,
3-color and scheduled engines: every replica of a batched engine must
reproduce *bitwise* the trajectory its wrapped process would have
produced under :func:`run_until_stable` with the same coin stream —
on a shared graph and on per-trial resampled graphs, from clean and
corrupted starts.
"""

import numpy as np
import pytest

from repro.core.batched import (
    BatchedScheduledTwoStateMIS,
    BatchedThreeColorMIS,
    BatchedThreeStateMIS,
    BatchedTwoStateMIS,
    batchable,
    engine_for,
)
from repro.core.schedulers import (
    AdversarialGreedyScheduler,
    IndependentScheduler,
    ScheduledTwoStateMIS,
    SingleVertexScheduler,
    SynchronousScheduler,
)
from repro.core.switch import OracleSwitch, RandomizedLogSwitch
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import complete_graph, cycle_graph
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.rng import SeededCoins, spawn_seeds
from repro.sim.runner import run_many_until_stable, run_until_stable

from coin_probes import CountingCoins


def serial_results(build, seeds, max_rounds=50_000):
    return [
        run_until_stable(build(s), max_rounds=max_rounds) for s in seeds
    ]


def assert_same_results(serial, batched):
    assert len(serial) == len(batched)
    for a, b in zip(serial, batched):
        assert a.stabilized == b.stabilized
        assert a.stabilization_round == b.stabilization_round
        assert a.rounds_executed == b.rounds_executed
        if a.mis is None:
            assert b.mis is None
        else:
            assert np.array_equal(a.mis, b.mis)


class TestThreeStateEquivalence:
    def test_shared_graph(self):
        g = gnp_random_graph(100, 0.07, rng=3)
        seeds = spawn_seeds(11, 20)
        serial = serial_results(lambda s: ThreeStateMIS(g, coins=s), seeds)
        procs = [ThreeStateMIS(g, coins=s) for s in seeds]
        batched = BatchedThreeStateMIS(procs).run(50_000)
        assert_same_results(serial, batched)

    def test_resampled_graphs(self):
        def build(s):
            rng = np.random.default_rng(s)
            graph = gnp_random_graph(70, 0.06, rng=rng)
            return ThreeStateMIS(graph, coins=rng)

        seeds = spawn_seeds(7, 18)
        serial = serial_results(build, seeds)
        batched = BatchedThreeStateMIS([build(s) for s in seeds]).run(50_000)
        assert_same_results(serial, batched)

    def test_sparse_backend_graph(self):
        # n > 512 with low density routes to the sparse backend.
        g = gnp_random_graph(600, 0.01, rng=2)
        seeds = spawn_seeds(17, 6)
        serial = serial_results(lambda s: ThreeStateMIS(g, coins=s), seeds)
        procs = [ThreeStateMIS(g, coins=s) for s in seeds]
        batched = BatchedThreeStateMIS(procs).run(50_000)
        assert_same_results(serial, batched)

    def test_budget_exhaustion_mixed_with_successes(self):
        g = complete_graph(24)
        seeds = spawn_seeds(31, 30)
        serial = serial_results(
            lambda s: ThreeStateMIS(g, coins=s), seeds, max_rounds=2
        )
        procs = [ThreeStateMIS(g, coins=s) for s in seeds]
        batched = BatchedThreeStateMIS(procs).run(2)
        assert_same_results(serial, batched)
        assert any(not r.stabilized for r in batched)

    def test_writeback_matches_serial_processes(self):
        g = cycle_graph(40)
        seeds = spawn_seeds(3, 10)
        serial_procs = [ThreeStateMIS(g, coins=s) for s in seeds]
        for p in serial_procs:
            run_until_stable(p, max_rounds=50_000)
        batch_procs = [ThreeStateMIS(g, coins=s) for s in seeds]
        BatchedThreeStateMIS(batch_procs).run(50_000)
        for sp, bp in zip(serial_procs, batch_procs):
            assert np.array_equal(sp.states, bp.states)
            assert sp.round == bp.round

    def test_all_init_specs(self):
        g = gnp_random_graph(40, 0.12, rng=8)
        for init in ("all_white", "all_black1", "all_black0"):
            seeds = spawn_seeds(5, 8)
            serial = serial_results(
                lambda s, i=init: ThreeStateMIS(g, coins=s, init=i), seeds
            )
            procs = [ThreeStateMIS(g, coins=s, init=init) for s in seeds]
            batched = BatchedThreeStateMIS(procs).run(50_000)
            assert_same_results(serial, batched)


class TestThreeColorEquivalence:
    def test_shared_graph(self):
        g = gnp_random_graph(90, 0.08, rng=5)
        seeds = spawn_seeds(13, 16)
        serial = serial_results(
            lambda s: ThreeColorMIS(g, coins=s, a=16.0), seeds
        )
        procs = [ThreeColorMIS(g, coins=s, a=16.0) for s in seeds]
        batched = BatchedThreeColorMIS(procs).run(50_000)
        assert_same_results(serial, batched)

    def test_resampled_graphs(self):
        def build(s):
            rng = np.random.default_rng(s)
            graph = gnp_random_graph(60, 0.07, rng=rng)
            return ThreeColorMIS(graph, coins=rng, a=16.0)

        seeds = spawn_seeds(19, 14)
        serial = serial_results(build, seeds)
        batched = BatchedThreeColorMIS([build(s) for s in seeds]).run(50_000)
        assert_same_results(serial, batched)

    def test_corrupted_switch_starts(self):
        # Self-stabilization contract: arbitrary (adversarial) switch
        # levels and colors must recover identically on both paths.
        g = gnp_random_graph(50, 0.1, rng=9)
        seeds = spawn_seeds(23, 12)

        def corrupted(s):
            p = ThreeColorMIS(g, coins=s, a=16.0)
            rng = np.random.default_rng(s + 1)
            p.corrupt(rng.integers(0, 3, size=g.n).astype(np.int8))
            p.corrupt_switch(rng.integers(0, 6, size=g.n).astype(np.int8))
            return p

        serial = serial_results(corrupted, seeds)
        batched = BatchedThreeColorMIS(
            [corrupted(s) for s in seeds]
        ).run(50_000)
        assert_same_results(serial, batched)

    def test_per_replica_zeta(self):
        # Replicas with different switch parameters batch together.
        g = gnp_random_graph(40, 0.15, rng=1)
        seeds = spawn_seeds(29, 10)

        def build(i, s):
            return ThreeColorMIS(g, coins=s, a=16.0 * (1 + i % 3))

        serial = [
            run_until_stable(build(i, s), max_rounds=50_000)
            for i, s in enumerate(seeds)
        ]
        batched = BatchedThreeColorMIS(
            [build(i, s) for i, s in enumerate(seeds)]
        ).run(50_000)
        assert_same_results(serial, batched)

    def test_writeback_includes_switch_state(self):
        g = cycle_graph(30)
        seeds = spawn_seeds(37, 8)
        serial_procs = [ThreeColorMIS(g, coins=s, a=16.0) for s in seeds]
        for p in serial_procs:
            run_until_stable(p, max_rounds=50_000)
        batch_procs = [ThreeColorMIS(g, coins=s, a=16.0) for s in seeds]
        BatchedThreeColorMIS(batch_procs).run(50_000)
        for sp, bp in zip(serial_procs, batch_procs):
            assert np.array_equal(sp.colors, bp.colors)
            assert np.array_equal(sp.switch.levels, bp.switch.levels)
            assert sp.switch.round == bp.switch.round
            assert sp.round == bp.round

    def test_oracle_switch_not_batchable(self):
        g = complete_graph(8)
        p = ThreeColorMIS(g, coins=0, switch=OracleSwitch(8))
        assert not batchable(p)
        with pytest.raises(TypeError):
            BatchedThreeColorMIS([p])

    def test_cross_graph_switch_not_batchable(self):
        g, h = complete_graph(8), cycle_graph(8)
        p = ThreeColorMIS(
            g, coins=0, switch=RandomizedLogSwitch(h, coins=1)
        )
        assert not batchable(p)


class TestScheduledEquivalence:
    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
    def test_independent_scheduler_shared_graph(self, q):
        g = gnp_random_graph(60, 0.1, rng=4)
        seeds = spawn_seeds(41, 12)

        def build(s):
            return ScheduledTwoStateMIS(
                g, scheduler=IndependentScheduler(q), coins=s
            )

        serial = serial_results(build, seeds, max_rounds=200_000)
        batched = BatchedScheduledTwoStateMIS(
            [build(s) for s in seeds]
        ).run(200_000)
        assert_same_results(serial, batched)

    def test_synchronous_scheduler(self):
        g = gnp_random_graph(50, 0.1, rng=6)
        seeds = spawn_seeds(43, 10)

        def build(s):
            return ScheduledTwoStateMIS(
                g, scheduler=SynchronousScheduler(), coins=s
            )

        serial = serial_results(build, seeds)
        batched = BatchedScheduledTwoStateMIS(
            [build(s) for s in seeds]
        ).run(50_000)
        assert_same_results(serial, batched)

    def test_mixed_daemons_in_one_batch(self):
        # Synchronous and independent replicas (different q) coexist.
        g = gnp_random_graph(40, 0.12, rng=7)
        seeds = spawn_seeds(47, 9)

        def build(i, s):
            if i % 3 == 0:
                sched = SynchronousScheduler()
            else:
                sched = IndependentScheduler(0.25 * (i % 3 + 1))
            return ScheduledTwoStateMIS(g, scheduler=sched, coins=s)

        serial = [
            run_until_stable(build(i, s), max_rounds=200_000)
            for i, s in enumerate(seeds)
        ]
        batched = BatchedScheduledTwoStateMIS(
            [build(i, s) for i, s in enumerate(seeds)]
        ).run(200_000)
        assert_same_results(serial, batched)

    def test_resampled_graphs(self):
        def build(s):
            rng = np.random.default_rng(s)
            graph = gnp_random_graph(50, 0.08, rng=rng)
            return ScheduledTwoStateMIS(
                graph, scheduler=IndependentScheduler(0.5), coins=rng
            )

        seeds = spawn_seeds(53, 12)
        serial = serial_results(build, seeds, max_rounds=200_000)
        batched = BatchedScheduledTwoStateMIS(
            [build(s) for s in seeds]
        ).run(200_000)
        assert_same_results(serial, batched)

    def test_single_vertex_daemons_not_batchable(self):
        g = complete_graph(8)
        for sched in (SingleVertexScheduler(), AdversarialGreedyScheduler()):
            p = ScheduledTwoStateMIS(g, coins=0, scheduler=sched)
            assert not batchable(p)
            with pytest.raises(TypeError):
                BatchedScheduledTwoStateMIS([p])


class TestDispatch:
    def test_engine_for_each_family(self):
        g = complete_graph(10)
        assert engine_for(TwoStateMIS(g, coins=0)) is BatchedTwoStateMIS
        assert (
            engine_for(ThreeStateMIS(g, coins=0)) is BatchedThreeStateMIS
        )
        assert (
            engine_for(ThreeColorMIS(g, coins=0)) is BatchedThreeColorMIS
        )
        assert (
            engine_for(
                ScheduledTwoStateMIS(
                    g, coins=0, scheduler=IndependentScheduler(0.5)
                )
            )
            is BatchedScheduledTwoStateMIS
        )
        assert engine_for(object()) is None

    def test_run_many_groups_by_engine(self):
        # A mixed list: every family batches with its own engine, and
        # results come back in input order, bitwise-equal to serial.
        g = gnp_random_graph(40, 0.1, rng=2)
        seeds = spawn_seeds(59, 16)

        def build(i, s):
            kind = i % 4
            if kind == 0:
                return TwoStateMIS(g, coins=s)
            if kind == 1:
                return ThreeStateMIS(g, coins=s)
            if kind == 2:
                return ThreeColorMIS(g, coins=s, a=16.0)
            return ScheduledTwoStateMIS(
                g, scheduler=IndependentScheduler(0.5), coins=s
            )

        serial = [
            run_until_stable(build(i, s), max_rounds=200_000)
            for i, s in enumerate(seeds)
        ]
        mixed = [build(i, s) for i, s in enumerate(seeds)]
        batched = run_many_until_stable(mixed, max_rounds=200_000)
        assert_same_results(serial, batched)

    def test_empty_and_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            BatchedThreeStateMIS([])
        with pytest.raises(ValueError):
            BatchedThreeColorMIS(
                [
                    ThreeColorMIS(complete_graph(4), coins=0),
                    ThreeColorMIS(complete_graph(5), coins=1),
                ]
            )

    def test_initially_stable_replicas_report_round_zero(self):
        g = Graph(5)  # edgeless: all-black1 is already an MIS
        procs = [
            ThreeStateMIS(g, coins=s, init="all_black1") for s in range(4)
        ]
        results = BatchedThreeStateMIS(procs).run(100)
        assert all(r.stabilization_round == 0 for r in results)
        assert all(np.array_equal(r.mis, np.arange(5)) for r in results)


class TestMonteCarloFastPath:
    def test_three_state_identical_across_batch_modes(self):
        def make(s):
            rng = np.random.default_rng(s)
            graph = gnp_random_graph(60, 0.07, rng=rng)
            return ThreeStateMIS(graph, coins=rng)

        kw = dict(trials=20, max_rounds=50_000, seed=13)
        st_serial = estimate_stabilization_time(make, batch=None, **kw)
        st_auto = estimate_stabilization_time(make, batch="auto", **kw)
        st_chunk = estimate_stabilization_time(make, batch=6, **kw)
        assert np.array_equal(st_serial.times, st_auto.times)
        assert np.array_equal(st_serial.times, st_chunk.times)

    def test_three_color_identical_across_batch_modes(self):
        g = gnp_random_graph(50, 0.1, rng=4)
        kw = dict(trials=12, max_rounds=50_000, seed=5)
        st_auto = estimate_stabilization_time(
            lambda s: ThreeColorMIS(g, coins=s, a=16.0), batch="auto", **kw
        )
        st_serial = estimate_stabilization_time(
            lambda s: ThreeColorMIS(g, coins=s, a=16.0), batch=None, **kw
        )
        assert np.array_equal(st_auto.times, st_serial.times)

    def test_scheduled_identical_across_batch_modes(self):
        g = gnp_random_graph(50, 0.1, rng=8)

        def make(s):
            return ScheduledTwoStateMIS(
                g, scheduler=IndependentScheduler(0.5), coins=s
            )

        kw = dict(trials=12, max_rounds=200_000, seed=3)
        st_auto = estimate_stabilization_time(make, batch="auto", **kw)
        st_serial = estimate_stabilization_time(make, batch=None, **kw)
        assert np.array_equal(st_auto.times, st_serial.times)


def _counting_builders(g):
    """Per family: ``build(seed, r)``, with counting coins on even ``r``."""

    def coins(seed, r):
        return CountingCoins(seed) if r % 2 == 0 else SeededCoins(seed)

    def scheduler(r):
        # Independent daemons draw; the synchronous one in between does not.
        return IndependentScheduler(0.4) if r % 3 else SynchronousScheduler()

    return {
        "two_state": lambda s, r: TwoStateMIS(g, coins=coins(s, r)),
        "three_state": lambda s, r: ThreeStateMIS(g, coins=coins(s, r)),
        "three_color": lambda s, r: ThreeColorMIS(g, coins=coins(s, r)),
        "scheduled": lambda s, r: ScheduledTwoStateMIS(
            g, scheduler=scheduler(r), coins=coins(s, r)
        ),
    }


class TestRowDrawsInEngines:
    """A batch holding a counting ``SeededCoins`` subclass draws its
    rows source by source, and still matches serial runs bitwise —
    final coin state and the subclass's draw count included."""

    @pytest.mark.parametrize(
        "family", ["two_state", "three_state", "three_color", "scheduled"]
    )
    def test_counting_subclass_batch_matches_serial(self, family):
        g = gnp_random_graph(150, 0.04, rng=12)
        build = _counting_builders(g)[family]
        seeds = spawn_seeds(77, 8)
        serial = [build(s, r) for r, s in enumerate(seeds)]
        results = [run_until_stable(p, max_rounds=50_000) for p in serial]
        procs = [build(s, r) for r, s in enumerate(seeds)]
        batched = engine_for(procs[0])(procs).run(50_000)
        assert_same_results(results, batched)
        for a, b in zip(serial, procs):
            assert a.coins.state == b.coins.state
            assert getattr(a.coins, "draws", None) == getattr(
                b.coins, "draws", None
            )
            assert a.round == b.round
        assert any(isinstance(p.coins, CountingCoins) for p in procs)
