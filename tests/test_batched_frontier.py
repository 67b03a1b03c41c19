"""Batched-frontier equivalence and bookkeeping guarantees.

The batched engines (:mod:`repro.core.batched`) keep per-replica
aggregates incrementally (:mod:`repro.core.batched_frontier`) wherever
scatter can win, and choose per round between bulk, delta and pair
rounds, with a per-replica fallback to a full row reduction at
``DEFAULT_CROSSOVER``.  Whatever path a round takes, every replica must
follow the paper's rules exactly: for every seed, batched results,
final states and coin-stream positions are *bitwise-identical* to
running each replica serially through
:func:`repro.sim.runner.run_until_stable` and to the literal per-vertex
references of :mod:`repro.core.reference` — across shared and
per-trial resampled (block-diagonal) graphs, mid-run retirement, budget
exhaustion, corrupted starts, and engine reuse over fault waves, in
three regimes (the matmul backend, where the aggregates do not engage;
the CSR backend with every moving replica recomputing its row; and the
CSR backend with every round scattering).  This suite pins that, plus
the flat-scatter primitives and the O(1)-retirement reduction-count
contract.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import batched as batched_module
from repro.core import frontier as frontier_module
from repro.core.batched import (
    BatchedScheduledTwoStateMIS,
    BatchedThreeStateMIS,
    BatchedTwoStateMIS,
)
from repro.core.batched_frontier import (
    BatchedFrontierAggregates,
    RoundDelta,
    apply_flat_delta,
)
from repro.core.reference import (
    ReferenceIndependentDaemon,
    ReferenceThreeState,
    ReferenceTwoState,
)
from repro.core.schedulers import IndependentScheduler, ScheduledTwoStateMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.rng import SeededCoins, spawn_seeds
from repro.sim.runner import run_many_until_stable, run_until_stable

MAX_ROUNDS = 50_000

#: Per family: (engine class, build(graph, coins, backend),
#: reference(graph, coins)).
FAMILIES = {
    "two_state": (
        BatchedTwoStateMIS,
        lambda graph, coins, backend: TwoStateMIS(
            graph, coins=coins, backend=backend
        ),
        lambda graph, coins: ReferenceTwoState(graph, coins=coins),
    ),
    "three_state": (
        BatchedThreeStateMIS,
        lambda graph, coins, backend: ThreeStateMIS(
            graph, coins=coins, backend=backend
        ),
        lambda graph, coins: ReferenceThreeState(graph, coins=coins),
    ),
    "scheduled": (
        BatchedScheduledTwoStateMIS,
        lambda graph, coins, backend: ScheduledTwoStateMIS(
            graph,
            scheduler=IndependentScheduler(0.5),
            coins=coins,
            backend=backend,
        ),
        lambda graph, coins: ReferenceIndependentDaemon(
            graph, 0.5, coins=coins
        ),
    ),
    "eager": (
        BatchedTwoStateMIS,
        lambda graph, coins, backend: TwoStateMIS(
            graph, coins=coins, backend=backend, eager_white_promotion=True
        ),
        lambda graph, coins: ReferenceTwoState(
            graph, coins=coins, eager_white_promotion=True
        ),
    ),
}

#: Batched regimes: (backend, crossover, bulk-round fraction).  The
#: matmul backend keeps a shared graph off the aggregates; on the CSR
#: backend a zero crossover makes every moving replica recompute its
#: row, and a huge one (1e18) with no bulk threshold makes every round
#: after the first scatter.
REGIMES = {
    "matmul": ("auto", frontier_module.DEFAULT_CROSSOVER, None),
    "recompute": ("sparse", 0.0, None),
    "scatter": ("sparse", 1e18, 0),
}


@contextmanager
def regime(crossover, bulk=None):
    """Batched runs inside the block use the given crossover and bulk rule."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier_module, "DEFAULT_CROSSOVER", crossover)
        if bulk is not None:
            mp.setattr(batched_module, "BULK_ADVANCE_FRACTION", bulk)
        yield


class CountingCoins(SeededCoins):
    """Seeded coins that count draw calls (stream-position probe)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def bits(self, n):
        self.draws += 1
        return super().bits(n)

    def bernoulli(self, n, prob):
        self.draws += 1
        return super().bernoulli(n, prob)


def assert_same_results(reference, observed):
    assert len(reference) == len(observed)
    for a, b in zip(reference, observed):
        assert a.stabilized == b.stabilized
        assert a.stabilization_round == b.stabilization_round
        assert a.rounds_executed == b.rounds_executed
        if a.mis is None:
            assert b.mis is None
        else:
            assert np.array_equal(a.mis, b.mis)


def reference_state(ref):
    return ref.states if isinstance(ref, ReferenceThreeState) else ref.black


def set_reference_state(ref, states):
    if isinstance(ref, ReferenceThreeState):
        ref.states = np.asarray(states, dtype=np.int8).copy()
    else:
        ref.black = np.asarray(states, dtype=bool).copy()


def run_reference(ref, max_rounds):
    """Run ``ref`` to stabilization; ``run_until_stable``'s outcome."""
    start = ref.round
    while not ref.is_stabilized():
        if ref.round - start == max_rounds:
            return (False, None, max_rounds, None)
        ref.step()
    elapsed = ref.round - start
    return (True, elapsed, elapsed, np.flatnonzero(ref.black_mask()))


def assert_engines_match_serial(
    family,
    graphs,
    seeds,
    max_rounds=MAX_ROUNDS,
    corrupt=None,
):
    """Serial runs and batched runs in every regime vs the references.

    ``corrupt(i, n)`` (if given) returns replica ``i``'s corrupted
    start, applied to every replica and reference before running.
    Checks results, final state vectors and per-replica coin-stream
    positions.
    """
    engine_cls, build, build_ref = FAMILIES[family]
    refs, ref_coins, expected = [], [], []
    for i, (g, s) in enumerate(zip(graphs, seeds)):
        rc = CountingCoins(s)
        ref = build_ref(g, rc)
        if corrupt is not None:
            set_reference_state(ref, corrupt(i, g.n))
        expected.append(run_reference(ref, max_rounds))
        refs.append(ref)
        ref_coins.append(rc)
    for mode in ("serial",) + tuple(REGIMES):
        backend, crossover, bulk = REGIMES.get(mode, REGIMES["matmul"])
        coins = [CountingCoins(s) for s in seeds]
        procs = [build(g, c, backend) for g, c in zip(graphs, coins)]
        if corrupt is not None:
            for i, p in enumerate(procs):
                p.corrupt(corrupt(i, p.n))
        if mode == "serial":
            results = [
                run_until_stable(p, max_rounds=max_rounds) for p in procs
            ]
        else:
            with regime(crossover, bulk):
                results = engine_cls(procs).run(max_rounds)
        assert len(results) == len(expected)
        for result, want in zip(results, expected):
            stabilized, stab_round, executed, mis = want
            assert result.stabilized == stabilized, mode
            assert result.stabilization_round == stab_round, mode
            assert result.rounds_executed == executed, mode
            if mis is None:
                assert result.mis is None, mode
            else:
                assert np.array_equal(result.mis, mis), mode
        for p, c, ref, rc in zip(procs, coins, refs, ref_coins):
            assert np.array_equal(p.state_vector(), reference_state(ref)), mode
            assert c.draws == rc.draws, mode


@st.composite
def sparse_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=110))
    density = draw(st.floats(min_value=0.0, max_value=0.3))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return gnp_random_graph(n, density, rng=seed)


class TestEngineEquivalence:
    @given(graph=sparse_graphs(), seed=st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_two_state_shared_graph(self, graph, seed):
        seeds = spawn_seeds(seed, 7)
        assert_engines_match_serial("two_state", [graph] * 7, seeds)

    @given(graph=sparse_graphs(), seed=st.integers(0, 2**20))
    @settings(max_examples=15, deadline=None)
    def test_three_state_shared_graph(self, graph, seed):
        seeds = spawn_seeds(seed, 6)
        assert_engines_match_serial("three_state", [graph] * 6, seeds)

    @given(graph=sparse_graphs(), seed=st.integers(0, 2**20))
    @settings(max_examples=15, deadline=None)
    def test_scheduled_shared_graph(self, graph, seed):
        seeds = spawn_seeds(seed, 6)
        assert_engines_match_serial(
            "scheduled", [graph] * 6, seeds, max_rounds=200_000
        )

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_two_state_resampled_graphs(self, seed):
        # Per-trial resampled graphs ride the block-diagonal CSR path.
        seeds = spawn_seeds(seed, 8)
        graphs = [
            gnp_random_graph(60, 0.05, rng=s + 1) for s in seeds
        ]
        assert_engines_match_serial("two_state", graphs, seeds)

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_three_state_resampled_graphs(self, seed):
        seeds = spawn_seeds(seed, 6)
        graphs = [
            gnp_random_graph(50, 0.06, rng=s + 1) for s in seeds
        ]
        assert_engines_match_serial("three_state", graphs, seeds)

    @given(
        graph=sparse_graphs(),
        seed=st.integers(0, 2**20),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_corrupted_starts(self, graph, seed, frac):
        # Arbitrary (adversarial) initial configurations: the frontier
        # bookkeeping must recover them exactly.
        seeds = spawn_seeds(seed, 6)

        def corrupt(i, n):
            return np.random.default_rng(seed + 31 * i).random(n) < frac

        assert_engines_match_serial(
            "two_state", [graph] * 6, seeds, corrupt=corrupt
        )

    @given(seed=st.integers(0, 2**20), budget=st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_budget_exhaustion_mixed_with_retirement(self, seed, budget):
        # Replicas retire mid-run as they stabilize; the rest exhaust
        # the budget — the frontier state must compact consistently
        # through both kinds of drop.
        from repro.graphs.generators import complete_graph

        graph = complete_graph(16)
        seeds = spawn_seeds(seed, 12)
        assert_engines_match_serial(
            "two_state", [graph] * 12, seeds, max_rounds=budget
        )

    @given(graph=sparse_graphs(), seed=st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_eager_ablation_replicas_veto_pair_rounds(self, graph, seed):
        # eager_white_promotion replicas change the activity rule; the
        # engine must still be exact (pair rounds are vetoed).
        seeds = spawn_seeds(seed, 5)
        assert_engines_match_serial("eager", [graph] * 5, seeds)


class TestEngineReuse:
    def test_fault_waves_reuse_one_engine(self):
        # run() re-adopts process state, so one engine can serve a
        # whole fault-injection campaign (and, on the block path, keep
        # its block CSR across waves).
        seeds = spawn_seeds(3, 10)
        graphs = [gnp_random_graph(70, 0.05, rng=s + 9) for s in seeds]

        def faults(wave, i, n):
            rng = np.random.default_rng(1000 * wave + i)
            return rng.choice(n, size=4, replace=False)

        # The literal reference, wave by wave.
        refs = [ReferenceTwoState(g, coins=s) for g, s in zip(graphs, seeds)]
        ref_outs = [[run_reference(r, MAX_ROUNDS) for r in refs]]
        for wave in range(2):
            for i, r in enumerate(refs):
                r.black[faults(wave, i, r.n)] = True
            ref_outs.append([run_reference(r, MAX_ROUNDS) for r in refs])

        def wave_runs(mode):
            procs = [
                TwoStateMIS(g, coins=s) for g, s in zip(graphs, seeds)
            ]
            if mode == "serial":
                def run():
                    return [
                        run_until_stable(p, max_rounds=MAX_ROUNDS)
                        for p in procs
                    ]
            else:
                _, crossover, bulk = REGIMES[mode]
                engine = BatchedTwoStateMIS(procs)

                def run():
                    with regime(crossover, bulk):
                        return engine.run(MAX_ROUNDS)
            outs = [run()]
            for wave in range(2):
                for i, p in enumerate(procs):
                    p.corrupt_vertices(faults(wave, i, p.n), black=True)
                outs.append(run())
            return outs, [p.black.copy() for p in procs]

        for mode in ("serial",) + tuple(REGIMES):
            outs, state = wave_runs(mode)
            for wave_out, wave_ref in zip(outs, ref_outs):
                for result, want in zip(wave_out, wave_ref):
                    stabilized, stab_round, executed, mis = want
                    assert result.stabilized == stabilized, mode
                    assert result.stabilization_round == stab_round, mode
                    assert result.rounds_executed == executed, mode
                    assert np.array_equal(result.mis, mis), mode
            for a, ref in zip(state, refs):
                assert np.array_equal(a, ref.black), mode

    def test_mutations_between_construction_and_run_are_adopted(self):
        # run() adopts the processes' *current* state: corruption (or
        # any mutation) after the engine is constructed must not be
        # lost.
        graph = gnp_random_graph(80, 0.06, rng=2)
        seeds = spawn_seeds(7, 6)
        batch_procs = [TwoStateMIS(graph, coins=s) for s in seeds]
        engine = BatchedTwoStateMIS(batch_procs)
        serial_procs = [TwoStateMIS(graph, coins=s) for s in seeds]
        for procs in (batch_procs, serial_procs):
            for i, p in enumerate(procs):
                rng = np.random.default_rng(50 + i)
                p.corrupt(rng.random(graph.n) < 0.5)
        serial = [
            run_until_stable(p, max_rounds=MAX_ROUNDS)
            for p in serial_procs
        ]
        assert_same_results(serial, engine.run(MAX_ROUNDS))
        for sp, bp in zip(serial_procs, batch_procs):
            assert np.array_equal(sp.black, bp.black)

    def test_block_kept_across_waves(self):
        seeds = spawn_seeds(5, 6)
        graphs = [gnp_random_graph(40, 0.08, rng=s) for s in seeds]
        procs = [TwoStateMIS(g, coins=s) for g, s in zip(graphs, seeds)]
        engine = BatchedTwoStateMIS(procs)
        engine.run(MAX_ROUNDS)
        block = engine._block
        assert block is not None  # frontier runs skip compaction
        for p in procs:
            p.corrupt_vertices([0, 1], black=True)
        engine.run(MAX_ROUNDS)
        assert engine._block is block  # reused, graphs are immutable


class TestMonteCarloEntryPoints:
    def test_run_many_rejects_unknown_engine(self):
        # engine= is a parameter of no entry point.
        graph = Graph(4, [(0, 1), (2, 3)])
        procs = [TwoStateMIS(graph, coins=s) for s in range(3)]
        with pytest.raises(TypeError, match="engine"):
            run_many_until_stable(procs, engine="warp")
        with pytest.raises(TypeError, match="engine"):
            estimate_stabilization_time(
                lambda s: TwoStateMIS(graph, coins=s),
                trials=2,
                max_rounds=10,
                engine="warp",
            )
        with pytest.raises(TypeError, match="engine"):
            BatchedTwoStateMIS(procs, engine="warp")
        with pytest.raises(TypeError, match="adaptive"):
            BatchedFrontierAggregates(
                BatchedTwoStateMIS(procs), adaptive=False
            )


class TestFlatScatterPrimitives:
    def test_apply_flat_delta_matches_dense_update(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 5, size=400).astype(np.int64)
        expected = counts.copy()
        up = rng.integers(0, 400, size=90).astype(np.int64)
        down = rng.integers(0, 400, size=350).astype(np.int64)
        np.add.at(expected, up, 1)
        np.subtract.at(expected, down, 1)
        apply_flat_delta(counts, up, down)
        assert np.array_equal(counts, expected)

    def test_apply_flat_delta_one_sided_and_empty(self):
        counts = np.zeros(64, dtype=np.int64)
        apply_flat_delta(counts, np.array([3, 3, 5], dtype=np.int64), None)
        assert counts[3] == 2 and counts[5] == 1
        apply_flat_delta(counts, None, np.array([3], dtype=np.int64))
        assert counts[3] == 1
        apply_flat_delta(counts, None, None)
        assert counts.sum() == 2

    def test_flat_targets_shared_and_block_agree(self):
        # The shared-graph and block-diagonal gathers must produce the
        # same multiset of live-coordinate scatter targets.
        graph = gnp_random_graph(30, 0.2, rng=1)
        seeds = spawn_seeds(0, 4)
        shared = BatchedTwoStateMIS(
            [TwoStateMIS(graph, coins=s) for s in seeds]
        )
        # Distinct-but-equal graph objects force the block path.
        clones = [
            Graph(graph.n, list(zip(*graph.edge_arrays())))
            for _ in seeds
        ]
        blocked = BatchedTwoStateMIS(
            [TwoStateMIS(g, coins=s) for g, s in zip(clones, seeds)]
        )
        assert not blocked.shared_graph
        blocked._rebuild_block(np.arange(4))
        pos = np.arange(4)
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 4, size=10).astype(np.int64)
        verts = rng.integers(0, 30, size=10).astype(np.int64)
        a = shared._flat_targets(rows, verts, None)
        b = blocked._flat_targets(rows, verts, pos)
        assert np.array_equal(np.sort(a), np.sort(b))


class TestStabilityBookkeeping:
    def test_removal_fallback_recomputes(self):
        # Removals from I_t cannot arise from the dynamics, but the
        # tracker must stay exact if driven there by hand.
        graph = Graph(4, [(0, 1), (2, 3)])
        procs = [TwoStateMIS(graph, coins=s) for s in range(2)]
        engine = BatchedTwoStateMIS(procs)
        with regime(1e18):
            aggregates = BatchedFrontierAggregates(engine)
        black = np.array(
            [[True, False, True, False], [True, False, True, False]]
        )
        aggregates.rebuild(black, None)
        assert np.array_equal(aggregates.unstable, [0, 0])
        new_black = black.copy()
        new_black[0, 1] = True  # vertex 1 joins 0 in replica 0 only
        delta = RoundDelta(
            up_rows=np.array([0], dtype=np.int64),
            up_verts=np.array([1], dtype=np.int64),
            down_rows=np.empty(0, dtype=np.int64),
            down_verts=np.empty(0, dtype=np.int64),
        )
        aggregates.advance(new_black, delta, None)
        expected_stable = new_black & (
            engine._count_nbrs(new_black, None) == 0
        )
        assert np.array_equal(aggregates.stable, expected_stable)
        expected_covered = expected_stable | (
            engine._count_nbrs(expected_stable, None) > 0
        )
        assert np.array_equal(aggregates.covered, expected_covered)
        assert np.array_equal(
            aggregates.unstable,
            graph.n - expected_covered.sum(axis=1),
        )

    def test_recovery_needs_one_reduction_total(self):
        # The O(1)-retirement contract: a near-stable fleet recovers
        # on the scatter path with exactly one count reduction (the
        # rebuild) — no per-round reductions, no final coverage pass.
        # (The CSR backend: a shared graph on the matmul backend stays
        # on full reductions.)
        graph = gnp_random_graph(300, 0.02, rng=4)
        seeds = spawn_seeds(9, 8)

        class CountingEngine(BatchedTwoStateMIS):
            reductions = 0

            def _count_nbrs(self, masks, pos):
                type(self).reductions += 1
                return super()._count_nbrs(masks, pos)

        procs = [
            TwoStateMIS(graph, coins=s, backend="sparse") for s in seeds
        ]
        engine = CountingEngine(procs)
        engine.run(MAX_ROUNDS, verify=False)
        for i, p in enumerate(procs):
            rng = np.random.default_rng(100 + i)
            p.corrupt_vertices(
                rng.choice(p.n, size=3, replace=False), black=True
            )
        CountingEngine.reductions = 0
        results = engine.run(MAX_ROUNDS, verify=False)
        assert all(r.stabilized for r in results)
        assert CountingEngine.reductions == 1  # the rebuild, nothing else

    def test_frontier_mode_never_takes_full_rounds(self, monkeypatch):
        # A huge crossover and no bulk threshold keep a recovering
        # fleet on the scatter paths: pair and delta rounds only (a
        # near-stable fleet starts on pair rounds, so no first bulk round).
        from repro.core import batched_frontier as bf

        calls = {"full": 0, "scatter": 0}
        orig_full = bf.BatchedFrontierAggregates.full_round
        orig_adv = bf.BatchedFrontierAggregates.advance

        def full_round(self, *args, **kwargs):
            calls["full"] += 1
            return orig_full(self, *args, **kwargs)

        def advance(self, *args, **kwargs):
            calls["scatter"] += 1
            return orig_adv(self, *args, **kwargs)

        graph = gnp_random_graph(120, 0.04, rng=2)
        procs = [
            TwoStateMIS(graph, coins=s, backend="sparse") for s in range(6)
        ]
        engine = BatchedTwoStateMIS(procs)
        engine.run(MAX_ROUNDS)
        for i, p in enumerate(procs):
            rng = np.random.default_rng(200 + i)
            p.corrupt_vertices(
                rng.choice(p.n, size=3, replace=False), black=True
            )
        aggregates = bf.BatchedFrontierAggregates
        monkeypatch.setattr(aggregates, "full_round", full_round)
        monkeypatch.setattr(aggregates, "advance", advance)
        with regime(1e18, bulk=0):
            results = engine.run(MAX_ROUNDS)
        assert all(r.stabilized for r in results)
        assert calls["full"] == 0
        assert calls["scatter"] > 0
