"""Frontier-aggregate exactness, cost shapes and memoization.

The 2-state and 3-state processes keep their neighbourhood aggregates
incrementally (:mod:`repro.core.frontier`) and choose per round between
a scatter update and a full recomputation at ``DEFAULT_CROSSOVER``.
Whichever they take, every round must equal the literal references of
:mod:`repro.core.reference`; ``tests/test_oracle.py`` draws the runs
that pin this, and the fixed cases here check named ones through the
same oracle (in all three crossover regimes, every round, aggregates
audited).  The rest pins the aggregates' own contracts: the
hand-driven removal fallbacks, the black1 count that leaves ``I_t``
out, the cost of late black1 scatters, the regime switch, and the
reduction-count contract of the memoized 3-color path.
"""

import numpy as np
import pytest

from repro.core import frontier as frontier_module
from repro.core.frontier import FrontierAggregates
from repro.core.neighbor_ops import SparseNeighborOps, gather_neighbors
from repro.core.reference import ReferenceTwoState
from repro.core.states import BLACK
from repro.core.switch import RandomizedLogSwitch
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.rng import SeededCoins
from repro.sim.runner import run_until_stable

from oracle import (
    assert_observes,
    assert_same_results,
    audit_frontier,
    build_processes,
    check_serial,
    fleet,
    reference_waves,
    regime,
)

MAX_ROUNDS = 4000


class CountingOps(SparseNeighborOps):
    """Sparse backend that counts neighbourhood reductions."""

    def __init__(self, graph):
        super().__init__(graph)
        self.reductions = 0

    def count(self, mask):
        self.reductions += 1
        return super().count(mask)


def sparse_graph(seed, n=96):
    return gnp_random_graph(n, 0.05, rng=seed)


class TestEngineEquivalence:
    """Fixed oracle cases: each process, every round, every regime."""

    def test_two_state_lockstep(self):
        check_serial(fleet("2-state", [sparse_graph(1)], seed=11))

    def test_three_state_lockstep(self):
        check_serial(fleet("3-state", [sparse_graph(2)], seed=12))

    def test_two_state_eager_lockstep(self):
        check_serial(fleet("eager", [sparse_graph(3)], seed=13))

    def test_corrupt_redirties_incremental_state(self):
        # Faults land mid-run: the budget cuts every wave short.
        check_serial(
            fleet("2-state", [sparse_graph(4)], corrupt=True, waves=3,
                  flips=40, budget=3, seed=14)
        )

    def test_corrupt_three_state(self):
        check_serial(
            fleet("3-state", [sparse_graph(5)], corrupt=True, waves=3,
                  flips=40, budget=3, seed=15)
        )

    def test_run_until_stable_check_every(self):
        for check_every in (2, 3, 7):
            spec = fleet("2-state", [sparse_graph(check_every)], seed=16)
            check_serial(spec, check_every=check_every)

    def test_corrupt_vertices_dirties_counts(self):
        # Fault waves write a 2-state process's array in place.
        check_serial(
            fleet("2-state", [sparse_graph(6, n=150)], waves=2, flips=6,
                  budget=3, seed=17)
        )

    def test_batched_writeback_invalidates_aggregates(self):
        from repro.core.batched import BatchedTwoStateMIS

        spec = fleet("2-state", [gnp_random_graph(80, 0.06, rng=5)] * 6)
        procs = build_processes(spec)
        for proc in procs:
            proc.is_stabilized()  # aggregates the write-back must drop
        (wave,) = reference_waves(spec)
        assert_same_results(wave.results, BatchedTwoStateMIS(procs).run())
        for proc, final in zip(procs, wave.finals):
            assert_observes(proc, final, "written back")

    def test_trace_recording_equivalent(self):
        check_serial(fleet("2-state", [sparse_graph(9, n=200)], seed=4))


class TestBlackOneAggregate:
    """The 3-state black1 count covers ``B1_t \\ I_t`` only."""

    def test_counts_exact_every_round(self):
        check_serial(
            fleet("3-state", [sparse_graph(7)], corrupt=True, waves=3,
                  flips=3, seed=18)
        )

    def test_counts_exact_with_check_every(self):
        check_serial(fleet("3-state", [sparse_graph(8)], seed=19), check_every=4)

    def test_black1_scatter_collapses_with_unstable_set(self, monkeypatch):
        """Late black1 scatters shrink with ``V_t``, not ``I_t``.

        A stable black vertex re-draws black1/black0 every round; were
        those flips scattered, every round would cost about 0.17 of the
        directed edge volume ``2m``, and the second half of the run
        alone several times ``2m``.  A huge crossover makes every
        round scatter, so every round is logged.
        """
        monkeypatch.setattr(frontier_module, "DEFAULT_CROSSOVER", 1e18)
        n = 1 << 14
        graph = gnp_random_graph(n, 3.0 / n, rng=0)

        class ScatterLog(SparseNeighborOps):
            def __init__(self, graph):
                super().__init__(graph)
                self.proc = None
                self.black1_edges = []  # (round, edges scattered)

            def apply_count_delta(self, counts, up, down):
                touched = super().apply_count_delta(counts, up, down)
                if counts is self.proc._frontier.aux_counts:
                    self.black1_edges.append((self.proc.round, touched.size))
                return touched

        ops = ScatterLog(graph)
        proc = ThreeStateMIS(graph, coins=1, ops=ops)
        ops.proc = proc
        result = run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        assert result.stabilized
        rounds = result.rounds_executed
        assert rounds >= 8
        assert len(ops.black1_edges) == rounds
        late = sum(e for r, e in ops.black1_edges if r >= rounds // 2)
        assert late < graph.indices.size

class TestEngineParameter:
    def test_engine_kwarg_is_gone(self):
        """Each process runs one self-selecting engine; nothing selects it."""
        from repro.core.schedulers import ScheduledTwoStateMIS
        from repro.dynamic.mutations import MutationStream
        from repro.dynamic.service import MISService

        graph = Graph(4, [(0, 1)])
        for cls in (TwoStateMIS, ThreeStateMIS, ThreeColorMIS,
                    ScheduledTwoStateMIS):
            with pytest.raises(TypeError, match="engine"):
                cls(graph, coins=0, engine="auto")
        with pytest.raises(TypeError, match="adaptive"):
            FrontierAggregates(graph, SparseNeighborOps(graph), adaptive=False)
        with pytest.raises(TypeError, match="crossover"):
            FrontierAggregates(graph, SparseNeighborOps(graph), crossover=0.5)
        with pytest.raises(TypeError, match="engine"):
            MISService(graph, MutationStream(graph.n, seed=0), engine="auto")
        assert not hasattr(frontier_module, "ENGINES")
        assert not hasattr(frontier_module, "resolve_engine")

    def test_empty_and_singleton_graphs(self):
        check_serial(fleet("2-state", [Graph(0), Graph(1)]))

    def test_auto_switches_to_scatter(self):
        graph = gnp_random_graph(4096, 3.0 / 4096, rng=0)
        proc = TwoStateMIS(graph, coins=1)
        run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        frontier = proc._frontier
        assert frontier is not None
        assert frontier.scatter_rounds > 0

    def test_frontier_mode_always_scatters(self, monkeypatch):
        # A huge crossover keeps the aggregates in scatter mode.
        monkeypatch.setattr(frontier_module, "DEFAULT_CROSSOVER", 1e18)
        graph = gnp_random_graph(512, 0.02, rng=0)
        proc = TwoStateMIS(graph, coins=1)
        run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        assert proc._frontier.full_rounds == 0
        assert proc._frontier.scatter_rounds > 0


class TestFrontierAggregates:
    def test_rebuild_matches_reductions(self):
        graph = gnp_random_graph(300, 0.05, rng=1)
        ref = ReferenceTwoState(graph, coins=2)
        ops = SparseNeighborOps(graph)
        frontier = FrontierAggregates(graph, ops)
        frontier.rebuild(ref.black, token=ref.black)
        assert np.array_equal(frontier.counts, ops.count(ref.black))
        assert np.array_equal(frontier.has_black, ops.exists(ref.black))
        assert np.array_equal(frontier.stable, ref.stable_black_mask())
        covered = ref.covered_mask()
        assert np.array_equal(frontier.covered, covered)
        assert frontier.unstable_total == int(np.count_nonzero(~covered))

    def test_removal_fallback_recomputes(self):
        # Removals from I_t cannot arise from the dynamics, but the
        # tracker must stay exact if driven there by hand.
        graph = Graph(4, [(0, 1), (2, 3)])
        ops = SparseNeighborOps(graph)
        frontier = FrontierAggregates(graph, ops)
        black = np.array([True, False, True, False])
        frontier.rebuild(black, token=black)
        assert frontier.unstable_total == 0
        new_black = np.array([True, True, True, False])  # 1 joins 0
        frontier.advance(
            new_black,
            up=np.array([1]),
            down=np.array([], dtype=np.int64),
            token=new_black,
        )
        assert np.array_equal(
            frontier.stable, new_black & ~ops.exists(new_black)
        )
        stable = frontier.stable
        covered = stable | ops.exists(stable)
        assert np.array_equal(frontier.covered, covered)
        assert frontier.unstable_total == int(
            np.count_nonzero(~covered)
        )

    @pytest.mark.parametrize("isolated", [0, 60])
    def test_removal_fallback_reseeds_black1_counts(
        self, isolated, monkeypatch
    ):
        # Vertex 0 leaves I_t when 1 turns black beside it.  On 4
        # vertices the round takes the full-mask stability pass; with
        # 60 isolated vertices added it takes the candidate-set pass.
        # Either removal branch must re-seed the black1 counts from
        # black1 \ I_t.
        n = 4 + isolated
        graph = Graph(n, [(0, 1), (2, 3)])
        ops = SparseNeighborOps(graph)
        with regime(1e18):
            frontier = FrontierAggregates(graph, ops, track_aux=True)
        branches = []
        for name in ("_update_stability", "_update_stability_local"):
            method = getattr(frontier, name)

            def spy(*args, _name=name, _method=method):
                result = _method(*args)
                branches.append((_name, result is None))
                return result

            monkeypatch.setattr(frontier, name, spy)
        black = np.zeros(n, dtype=bool)
        black[[0, 2]] = True
        aux = np.zeros(n, dtype=bool)
        aux[0] = True
        frontier.rebuild(black, token=black, aux=aux)
        assert frontier.stable[[0, 2]].all()
        new_black = black.copy()
        new_black[1] = True
        new_aux = aux.copy()
        new_aux[[1, 2]] = True  # 2 stays stable: not counted at 3
        frontier.advance(
            new_black,
            up=np.array([1]),
            down=np.array([], dtype=np.int64),
            token=new_black,
            aux_mask=new_aux,
            aux_up=np.array([1, 2]),
            aux_down=np.array([], dtype=np.int64),
        )
        expected = (
            "_update_stability_local" if isolated else "_update_stability"
        )
        assert branches == [(expected, True)]
        assert not frontier.stable[0]
        audit_frontier(frontier, new_black, new_aux)

    def test_black1_flips_inside_stable_set_not_counted(self):
        graph = Graph(5, [(0, 1), (2, 3), (3, 4)])
        ops = SparseNeighborOps(graph)
        with regime(1e18):
            frontier = FrontierAggregates(graph, ops, track_aux=True)
        black = np.array([True, False, True, False, True])
        black1 = np.array([False, False, False, False, True])
        frontier.rebuild(black, token=black, aux=black1)
        assert frontier.stable.tolist() == [True, False, True, False, True]
        assert not frontier.aux_counts.any()
        # Every stable vertex re-draws: 0 and 2 turn black1, 4 black0.
        new_black1 = np.array([True, False, True, False, False])
        frontier.advance(
            black,
            up=np.array([], dtype=np.int64),
            down=np.array([], dtype=np.int64),
            token=new_black1,
            aux_mask=new_black1,
            aux_up=np.array([0, 2]),
            aux_down=np.array([4]),
        )
        assert not frontier.aux_counts.any()
        assert not frontier.aux_has.any()

    def test_newly_stable_black1_leaves_count_once(self):
        # 0 turns black1 as both its black neighbours turn white, so it
        # enters I_t and shows up twice among the candidate-set pass's
        # scatter targets; it must leave the black1 count once.
        n = 64
        graph = Graph(n, [(0, 1), (0, 2)])
        ops = SparseNeighborOps(graph)
        with regime(1e18):
            frontier = FrontierAggregates(graph, ops, track_aux=True)
        black = np.zeros(n, dtype=bool)
        black[[0, 1, 2]] = True
        frontier.rebuild(black, token=black, aux=np.zeros(n, dtype=bool))
        new_black = np.zeros(n, dtype=bool)
        new_black[0] = True
        frontier.advance(
            new_black,
            up=np.array([], dtype=np.int64),
            down=np.array([1, 2]),
            token=new_black,
            aux_mask=new_black,
            aux_up=np.array([0]),
            aux_down=np.array([], dtype=np.int64),
        )
        assert frontier.stable[0]
        audit_frontier(frontier, new_black, new_black)

    def test_gather_neighbors_matches_slices(self):
        graph = gnp_random_graph(60, 0.2, rng=2)
        rng = np.random.default_rng(0)
        for k in (0, 1, 7, 60):
            verts = rng.choice(60, size=k, replace=False)
            expected = (
                np.concatenate(
                    [
                        graph.indices[
                            graph.indptr[v]:graph.indptr[v + 1]
                        ]
                        for v in verts
                    ]
                )
                if k
                else graph.indices[:0]
            )
            got = gather_neighbors(graph.indptr, graph.indices, verts)
            assert np.array_equal(got, expected)

    def test_apply_count_delta_roundtrip(self):
        graph = gnp_random_graph(200, 0.08, rng=4)
        ops = SparseNeighborOps(graph)
        rng = np.random.default_rng(1)
        mask = rng.random(200) < 0.5
        counts = ops.count(mask).astype(np.int64)
        flip_up = rng.choice(np.flatnonzero(~mask), 40, replace=False)
        flip_down = rng.choice(np.flatnonzero(mask), 40, replace=False)
        new_mask = mask.copy()
        new_mask[flip_up] = True
        new_mask[flip_down] = False
        ops.apply_count_delta(counts, flip_up, flip_down)
        assert np.array_equal(counts, ops.count(new_mask))


class TestMemoizedFullPath:
    """The 3-color process, the one family left on the memoized full path."""

    @staticmethod
    def _three_color(graph, seed, ops):
        # The switch gets its own backend so ``ops`` counts only the
        # process's own reductions (the switch's level probes are not
        # memoized: they change every round).
        coins = SeededCoins(seed)
        switch = RandomizedLogSwitch(graph, coins=coins, zeta=4.0 / 16)
        return ThreeColorMIS(graph, coins=coins, switch=switch, ops=ops)

    def test_run_until_stable_two_reductions_per_round(self):
        """The memo kills the redundant step/is_stabilized recompute.

        Per round of the full-path run loop: ``is_stabilized`` misses
        on exists(black) and exists(I); the next ``_advance`` reuses
        the cached exists(black).  Total reductions for R rounds are
        exactly 2R + 2 (the +2 is the pre-loop stabilization check).
        """
        graph = gnp_random_graph(220, 0.04, rng=7)
        ops = CountingOps(graph)
        proc = self._three_color(graph, 3, ops)
        result = run_until_stable(proc, max_rounds=MAX_ROUNDS)
        assert result.stabilized
        assert result.rounds_executed > 0
        assert ops.reductions == 2 * result.rounds_executed + 2

    def test_aggregate_cache_invalidated_by_state_change(self):
        graph = gnp_random_graph(60, 0.1, rng=8)
        proc = ThreeColorMIS(graph, coins=2)
        before = proc.active_mask()
        colors = proc.colors.copy()
        colors[:30] = BLACK
        proc.corrupt(colors)
        after = proc.active_mask()
        fresh = ThreeColorMIS(graph, coins=0, init=colors)
        assert np.array_equal(after, fresh.active_mask())
        assert before.shape == after.shape

    def test_frontier_is_stabilized_constant_time(self):
        graph = gnp_random_graph(400, 0.02, rng=9)
        proc = TwoStateMIS(graph, coins=1)
        run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        ops = CountingOps(graph)
        proc.ops = ops
        # The frontier state is synced; the O(1) counter needs no
        # further reductions no matter how often it is polled.
        for _ in range(5):
            assert proc.is_stabilized()
        assert ops.reductions == 0
