"""The batched engine family (repro.core.batched): fixed oracle cases,
dispatch and Monte-Carlo entry points.

Same contract as ``tests/test_batched.py``, extended to the 3-state,
3-color and scheduled engines: every replica of a batched engine must
reproduce *bitwise* the trajectory of its literal reference under the
same coin stream — on a shared graph and on per-trial resampled
graphs, from clean and corrupted starts.  ``tests/test_oracle.py``
draws the runs that pin this; the fixed cases here check named ones
through the same oracle.
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
from repro.core.reference import ReferenceIndependentDaemon, ReferenceThreeState
from repro.core.schedulers import (
    AdversarialGreedyScheduler,
    IndependentScheduler,
    ScheduledTwoStateMIS,
    SingleVertexScheduler,
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

from coin_probes import CountingCoins
from oracle import (
    Fleet,
    assert_same_results,
    check_batched,
    check_fleet,
    fleet,
    reference_waves,
    run_reference,
)


class TestThreeStateEquivalence:
    def test_shared_graph(self):
        graph = gnp_random_graph(100, 0.07, rng=3)
        check_batched(fleet("3-state", [graph] * 20, seed=11))

    def test_resampled_graphs(self):
        graphs = [gnp_random_graph(70, 0.06, rng=s) for s in range(18)]
        check_batched(fleet("3-state", graphs, seed=7))

    def test_sparse_backend_graph(self):
        graph = gnp_random_graph(200, 0.02, rng=2)
        check_batched(
            fleet("3-state", [graph] * 6, blas=False, seed=17)
        )

    def test_budget_exhaustion_mixed_with_successes(self):
        spec = fleet("3-state", [complete_graph(24)] * 30, budget=2, seed=31)
        check_batched(spec)
        outcomes = {r.stabilized for r in reference_waves(spec)[0].results}
        assert False in outcomes

    def test_writeback_matches_serial_processes(self):
        check_batched(fleet("3-state", [cycle_graph(40)] * 10, seed=3))

    def test_all_init_specs(self):
        g = gnp_random_graph(40, 0.12, rng=8)
        for init in ("all_white", "all_black1", "all_black0"):
            seeds = spawn_seeds(5, 8)
            refs = [ReferenceThreeState(g, coins=s, init=init) for s in seeds]
            procs = [ThreeStateMIS(g, coins=s, init=init) for s in seeds]
            assert_same_results(
                [run_reference(r, 50_000) for r in refs],
                BatchedThreeStateMIS(procs).run(50_000),
            )


class TestThreeColorEquivalence:
    def test_shared_graph(self):
        graph = gnp_random_graph(60, 0.08, rng=5)
        check_batched(fleet("3-color", [graph] * 8, seed=13))

    def test_resampled_graphs(self):
        graphs = [gnp_random_graph(50, 0.07, rng=s) for s in range(8)]
        check_batched(fleet("3-color", graphs, seed=19))

    def test_corrupted_switch_starts(self):
        # Self-stabilization contract: arbitrary (adversarial) switch
        # levels and colors must recover identically on both paths.
        graph = gnp_random_graph(50, 0.1, rng=9)
        check_batched(fleet("3-color", [graph] * 8, corrupt=True, seed=23))

    def test_per_replica_zeta(self):
        # Replicas with different switch parameters batch together.
        graph = gnp_random_graph(40, 0.15, rng=1)
        check_batched(fleet("3-color", [graph] * 10, seed=29))

    def test_writeback_includes_switch_state(self):
        check_batched(fleet("3-color", [cycle_graph(30)] * 8, seed=37))

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
        refs = [ReferenceIndependentDaemon(g, q, coins=s) for s in seeds]
        procs = [
            ScheduledTwoStateMIS(g, scheduler=IndependentScheduler(q), coins=s)
            for s in seeds
        ]
        assert_same_results(
            [run_reference(r, 200_000) for r in refs],
            BatchedScheduledTwoStateMIS(procs).run(200_000),
        )

    def test_synchronous_scheduler(self):
        graph = gnp_random_graph(50, 0.1, rng=6)
        check_batched(fleet("synchronous", [graph] * 10, seed=43))

    def test_mixed_daemons_in_one_batch(self):
        # Synchronous and independent replicas (different q) coexist.
        graph = gnp_random_graph(40, 0.12, rng=7)
        names = ["synchronous", "independent", "independent"] * 3
        check_batched(Fleet(names, [graph] * 9, seed=47))

    def test_resampled_graphs(self):
        graphs = [gnp_random_graph(50, 0.08, rng=s) for s in range(12)]
        check_batched(fleet("independent", graphs, seed=53))

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
        # results come back in input order.
        graph = gnp_random_graph(40, 0.1, rng=2)
        names = ["2-state", "3-state", "3-color", "independent"] * 4
        check_fleet(Fleet(names, [graph] * 16, seed=59))

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


class TestRowDrawsInEngines:
    """A batch holding a counting ``SeededCoins`` subclass draws its
    rows source by source, and still matches the references bitwise —
    final coin state included."""

    @pytest.mark.parametrize(
        "family", ["two_state", "three_state", "three_color", "scheduled"]
    )
    def test_counting_subclass_batch_matches_serial(self, family):
        name = {
            "two_state": "2-state",
            "three_state": "3-state",
            "three_color": "3-color",
            "scheduled": "independent",
        }[family]
        graph = gnp_random_graph(60, 0.08, rng=12)

        def coins(seed):
            return CountingCoins(seed) if seed % 2 else SeededCoins(seed)

        check_batched(fleet(name, [graph] * 8, seed=77), coins=(coins,))
