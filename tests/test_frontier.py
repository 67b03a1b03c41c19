"""Frontier-aggregate exactness and aggregate-memoization guarantees.

The 2-state and 3-state processes keep their neighbourhood aggregates
incrementally (:mod:`repro.core.frontier`) and choose per round between
a scatter update and a full recomputation at ``DEFAULT_CROSSOVER``.
Whichever they take, they must follow the paper's rules exactly: for
every seed, every round and every observable — state vectors,
active/stable/covered masks, stabilization round, coin-stream position
— a process equals the literal per-vertex reference of
:mod:`repro.core.reference`.  This suite pins that in three regimes
(the crossover patched to 0, so every moving round recomputes; left at
its default; or huge (1e18), so every round scatters), plus the
cache-invalidation paths (``corrupt`` / ``corrupt_vertices`` /
batched-engine write-back) and the reduction-count contract of the
memoized 3-color path.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import frontier as frontier_module
from repro.core.frontier import FrontierAggregates
from repro.core.neighbor_ops import SparseNeighborOps, gather_neighbors
from repro.core.reference import ReferenceThreeState, ReferenceTwoState
from repro.core.states import BLACK, BLACK1
from repro.core.switch import RandomizedLogSwitch
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.rng import SeededCoins
from repro.sim.runner import run_until_stable

from coin_probes import CountingCoins

MAX_ROUNDS = 4000

#: Crossover values that force each regime: recompute on every round
#: that moves an edge, the shipped blend, scatter on every round.
CROSSOVERS = (0.0, frontier_module.DEFAULT_CROSSOVER, 1e18)


@contextmanager
def crossover(value):
    """Aggregates built inside the block use ``value`` as the crossover."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier_module, "DEFAULT_CROSSOVER", value)
        yield


class CountingOps(SparseNeighborOps):
    """Sparse backend that counts neighbourhood reductions."""

    def __init__(self, graph):
        super().__init__(graph)
        self.reductions = 0

    def count(self, mask):
        self.reductions += 1
        return super().count(mask)


def make_reference(cls, graph, coins, eager_white_promotion=False):
    """The literal reference of ``cls`` on ``coins``."""
    if cls is TwoStateMIS:
        return ReferenceTwoState(
            graph, coins=coins, eager_white_promotion=eager_white_promotion
        )
    return ReferenceThreeState(graph, coins=coins)


def reference_state(ref):
    return ref.black if isinstance(ref, ReferenceTwoState) else ref.states


def set_reference_state(ref, states):
    if isinstance(ref, ReferenceTwoState):
        ref.black = np.asarray(states, dtype=bool).copy()
    else:
        ref.states = np.asarray(states, dtype=np.int8).copy()


def regime_processes(cls, graph, seed, **kwargs):
    """One process per crossover regime, each on its own counting coins.

    The aggregates read the crossover when they measure the edge
    volume, so each process builds them inside its regime's block.
    """
    procs = []
    for value in CROSSOVERS:
        coins = CountingCoins(seed)
        with crossover(value):
            proc = cls(graph, coins=coins, **kwargs)
            proc.is_stabilized()
        procs.append((value, proc, coins))
    return procs


def assert_matches_reference(procs, ref, ref_coins, label):
    """Every observable of every process equals the reference's."""
    black = ref.black_mask()
    active = ref.active_mask()
    stable = ref.stable_black_mask()
    covered = ref.covered_mask()
    stabilized = bool(covered.all())
    expected = (
        reference_state(ref),
        active,
        stable,
        covered,
        ~covered,
        stabilized,
        (
            int(black.sum()),
            int(active.sum()),
            int(stable.sum()),
            ref.n - int(covered.sum()),
        ),
        ref_coins.draws,
    )
    for value, proc, coins in procs:
        observed = (
            proc.state_vector(),
            proc.active_mask(),
            proc.stable_black_mask(),
            proc.covered_mask(),
            proc.unstable_mask(),
            proc.is_stabilized(),
            proc.trajectory_counts(),
            coins.draws,
        )
        for a, b in zip(observed, expected):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), (value, label)
            else:
                assert a == b, (value, label)
    return stabilized


def run_lockstep(procs, ref, ref_coins, rounds, before_step=None):
    """Step the processes and the reference together, comparing each round."""
    for r in range(rounds):
        if assert_matches_reference(procs, ref, ref_coins, r):
            return  # stabilized — nothing changes afterwards
        if before_step is not None:
            before_step(r)
        for _, proc, _ in procs:
            proc.step()
        ref.step()


def assert_lockstep_equal(cls, graph, seed, rounds=80, corrupt_at=None, **kw):
    """Every regime's process vs the literal reference, round by round."""
    procs = regime_processes(cls, graph, seed, **kw)
    ref_coins = CountingCoins(seed)
    ref = make_reference(cls, graph, ref_coins, **kw)
    corrupt_rng = np.random.default_rng(seed + 1)
    if cls is TwoStateMIS:
        corrupt_states = corrupt_rng.random(graph.n) < 0.5
    else:
        corrupt_states = corrupt_rng.integers(0, 3, graph.n).astype(np.int8)

    def before_step(r):
        if r == corrupt_at:
            for _, proc, _ in procs:
                proc.corrupt(corrupt_states)
            set_reference_state(ref, corrupt_states)

    run_lockstep(procs, ref, ref_coins, rounds, before_step)


@st.composite
def sparse_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=120))
    density = draw(st.floats(min_value=0.0, max_value=0.35))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return gnp_random_graph(n, density, rng=seed)


class TestEngineEquivalence:
    @given(graph=sparse_graphs(), seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_two_state_lockstep(self, graph, seed):
        assert_lockstep_equal(TwoStateMIS, graph, seed)

    @given(graph=sparse_graphs(), seed=st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_three_state_lockstep(self, graph, seed):
        assert_lockstep_equal(ThreeStateMIS, graph, seed)

    @given(graph=sparse_graphs(), seed=st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_two_state_eager_lockstep(self, graph, seed):
        assert_lockstep_equal(
            TwoStateMIS, graph, seed, eager_white_promotion=True
        )

    @given(
        graph=sparse_graphs(),
        seed=st.integers(0, 2**20),
        corrupt_at=st.integers(0, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_corrupt_redirties_incremental_state(
        self, graph, seed, corrupt_at
    ):
        assert_lockstep_equal(
            TwoStateMIS, graph, seed, corrupt_at=corrupt_at
        )

    @given(
        graph=sparse_graphs(),
        seed=st.integers(0, 2**20),
        corrupt_at=st.integers(0, 12),
    )
    @settings(max_examples=15, deadline=None)
    def test_corrupt_three_state(self, graph, seed, corrupt_at):
        assert_lockstep_equal(
            ThreeStateMIS, graph, seed, corrupt_at=corrupt_at
        )

    @given(seed=st.integers(0, 2**20), check_every=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_run_until_stable_check_every(self, seed, check_every):
        graph = gnp_random_graph(96, 0.05, rng=seed)
        # The reference polls the predicate only where the runner does.
        ref = ReferenceTwoState(graph, coins=seed)
        while not ref.is_stabilized():
            ref.step()
            while ref.round % check_every:
                ref.step()
        for value, proc, _ in regime_processes(TwoStateMIS, graph, seed):
            res = run_until_stable(
                proc, max_rounds=MAX_ROUNDS, check_every=check_every
            )
            assert res.stabilization_round == ref.round, value
            assert res.rounds_executed == ref.round, value
            assert np.array_equal(res.mis, np.flatnonzero(ref.black))
            assert np.array_equal(proc.state_vector(), ref.black)

    def test_corrupt_vertices_dirties_counts(self):
        graph = gnp_random_graph(150, 0.04, rng=3)
        procs = regime_processes(TwoStateMIS, graph, 11)
        ref_coins = CountingCoins(11)
        ref = ReferenceTwoState(graph, coins=ref_coins)
        for _, proc, _ in procs:
            proc.step(3)
            proc.corrupt_vertices([0, 5, 9, 100], black=True)
            proc.corrupt_vertices([1, 6], black=False)
        for _ in range(3):
            ref.step()
        ref.black[[0, 5, 9, 100]] = True
        ref.black[[1, 6]] = False
        # ... and the subsequent trajectories still agree
        run_lockstep(procs, ref, ref_coins, MAX_ROUNDS)
        assert ref.is_stabilized()

    def test_batched_writeback_invalidates_aggregates(self):
        from repro.core.batched import BatchedTwoStateMIS

        graph = gnp_random_graph(80, 0.06, rng=5)
        procs = [TwoStateMIS(graph, coins=s) for s in range(6)]
        # Touch the frontier state before the batched run (the
        # write-back below must invalidate it, not reuse it).
        for proc in procs:
            proc.is_stabilized()
        results = BatchedTwoStateMIS(procs).run(max_rounds=MAX_ROUNDS)
        for proc, result in zip(procs, results):
            assert result.stabilized
            # The write-back rebound process.black; the stale frontier
            # aggregates must be rebuilt, not reused.
            assert proc.is_stabilized()
            ref = ReferenceTwoState(graph, coins=0, init=proc.black)
            assert np.array_equal(proc.covered_mask(), ref.covered_mask())

    def test_trace_recording_equivalent(self):
        graph = gnp_random_graph(200, 0.03, rng=9)
        ref = ReferenceTwoState(graph, coins=4)
        curves = {key: [] for key in ("black", "active", "stable_black")}
        curves["unstable"] = []
        while True:
            curves["black"].append(int(ref.black.sum()))
            curves["active"].append(int(ref.active_mask().sum()))
            curves["stable_black"].append(int(ref.stable_black_mask().sum()))
            covered = ref.covered_mask()
            curves["unstable"].append(graph.n - int(covered.sum()))
            if covered.all():
                break
            ref.step()
        for value, proc, _ in regime_processes(TwoStateMIS, graph, 4):
            res = run_until_stable(
                proc, max_rounds=MAX_ROUNDS, record_trace=True
            )
            for key, curve in res.trace.as_arrays().items():
                assert np.array_equal(curve, curves[key]), (value, key)


class AuditedThreeState(ThreeStateMIS):
    """3-state process that audits its black1 aggregate after each round."""

    def _advance(self):
        super()._advance()
        frontier = self._frontier
        if frontier is not None and frontier.token is self.states:
            assert_black1_counts_exact(frontier, self.states == BLACK1)


def assert_black1_counts_exact(frontier, black1):
    """``aux_counts`` counts the black1 neighbours outside ``I_t``."""
    expected = frontier.ops.count(black1 & ~frontier.stable)
    np.testing.assert_array_equal(frontier.aux_counts, expected)
    np.testing.assert_array_equal(frontier.aux_has, expected > 0)


class TestBlackOneAggregate:
    """The 3-state black1 count covers ``B1_t \\ I_t`` only."""

    @given(
        graph=sparse_graphs(),
        seed=st.integers(0, 2**20),
        corrupt_at=st.none() | st.integers(0, 12),
        value=st.sampled_from(CROSSOVERS),
    )
    @settings(max_examples=30, deadline=None)
    def test_counts_exact_every_round(self, graph, seed, corrupt_at, value):
        corrupt = np.random.default_rng(seed + 1).integers(0, 3, graph.n)
        with crossover(value):
            proc = AuditedThreeState(graph, coins=seed)
            for r in range(80):
                if corrupt_at is not None and r == corrupt_at:
                    proc.corrupt(corrupt.astype(np.int8))
                if proc.is_stabilized():
                    break
                proc.step()

    @given(
        seed=st.integers(0, 2**20),
        check_every=st.integers(2, 7),
        value=st.sampled_from(CROSSOVERS),
    )
    @settings(max_examples=15, deadline=None)
    def test_counts_exact_with_check_every(self, seed, check_every, value):
        graph = gnp_random_graph(96, 0.05, rng=seed)
        with crossover(value):
            proc = AuditedThreeState(graph, coins=seed)
            result = run_until_stable(
                proc, max_rounds=MAX_ROUNDS, check_every=check_every
            )
        assert result.stabilized

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
        for n in (0, 1):
            graph = Graph(n)
            for value, proc, _ in regime_processes(TwoStateMIS, graph, 0):
                res = run_until_stable(proc, max_rounds=50)
                assert res.stabilized, value

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
        with crossover(1e18):
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
        ref = FrontierAggregates(graph, ops, track_aux=True)
        ref.rebuild(new_black, token=new_black, aux=new_aux)
        assert not frontier.stable[0]
        for name in (
            "counts", "has_black", "aux_counts", "aux_has", "stable",
            "covered",
        ):
            np.testing.assert_array_equal(
                getattr(frontier, name), getattr(ref, name), err_msg=name
            )
        assert frontier.unstable_total == ref.unstable_total
        assert_black1_counts_exact(frontier, new_aux)

    def test_black1_flips_inside_stable_set_not_counted(self):
        graph = Graph(5, [(0, 1), (2, 3), (3, 4)])
        ops = SparseNeighborOps(graph)
        with crossover(1e18):
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
        with crossover(1e18):
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
        assert_black1_counts_exact(frontier, new_black)

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
