"""Batched-frontier exactness, primitives and cost shapes.

The batched engines (:mod:`repro.core.batched`) keep per-replica
aggregates incrementally (:mod:`repro.core.batched_frontier`) wherever
scatter can win, and choose per round between bulk, delta and pair
rounds, with a per-replica fallback to a full row reduction at
``DEFAULT_CROSSOVER``; a re-run engine repairs its resident aggregates
instead of rebuilding them.  Whatever path a round takes, every replica
must follow the literal references of :mod:`repro.core.reference`
bitwise: ``tests/test_oracle.py`` draws the runs that pin this, and
the fixed cases here check named ones through the same oracle, on
every path.  The rest pins the flat-scatter primitives, the stability
bookkeeping driven by hand, and the cost shapes: O(1) retirement,
scatter-only recovery, and repair instead of rebuild.
"""

import itertools

import numpy as np
import pytest

from repro.core.batched import BatchedTwoStateMIS
from repro.core import batched_frontier as bf
from repro.core.batched_frontier import (
    BatchedFrontierAggregates,
    RoundDelta,
    apply_flat_delta,
)
from repro.core.neighbor_ops import SparseNeighborOps
from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import complete_graph
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.rng import SeededCoins, spawn_seeds
from repro.sim.runner import run_many_until_stable

from coin_probes import CountingCoins
from oracle import (
    CROSSOVERS,
    FAMILIES,
    Fleet,
    blas_batch,
    check_batched,
    check_serial,
    fleet,
    flip,
    regime,
)

MAX_ROUNDS = 50_000


def check_every_path(spec):
    """``spec`` serially, then batched: with the BLAS batch (where a
    shared graph keeps the aggregates off), on CSR with every moving
    row recomputed, and on CSR scattering every round; each batched
    path on counting coins (per-source row draws) and on plain ones."""
    check_serial(spec, (CROSSOVERS[1],))
    coins = (CountingCoins, SeededCoins)
    check_batched(spec._replace(blas=True), coins=coins)
    check_batched(
        spec._replace(blas=False),
        ((0.0, None), (1e18, 0)),
        coins,
    )


def graph(seed, n=60, p=0.08):
    return gnp_random_graph(n, p, rng=seed)


class TestEngineEquivalence:
    def test_two_state_shared_graph(self):
        check_every_path(fleet("2-state", [graph(1)] * 7, seed=1))

    def test_three_state_shared_graph(self):
        check_every_path(fleet("3-state", [graph(2)] * 6, seed=2))

    def test_scheduled_shared_graph(self):
        check_every_path(fleet("independent", [graph(3)] * 6, seed=3))

    def test_two_state_resampled_graphs(self):
        # Per-trial resampled graphs ride the block-diagonal CSR path.
        graphs = [graph(s, p=0.05) for s in range(8)]
        check_every_path(fleet("2-state", graphs, seed=4))

    def test_three_state_resampled_graphs(self):
        graphs = [graph(s, 50, 0.06) for s in range(6)]
        check_every_path(fleet("3-state", graphs, seed=5))

    def test_corrupted_starts(self):
        # Arbitrary (adversarial) initial configurations: the frontier
        # bookkeeping must recover them exactly.
        check_every_path(fleet("2-state", [graph(6)] * 6, corrupt=True, seed=6))

    def test_budget_exhaustion_mixed_with_retirement(self):
        # Replicas retire mid-run as they stabilize; the rest exhaust
        # the budget — the frontier state must compact consistently
        # through both kinds of drop.
        for budget in (0, 2, 5):
            spec = fleet("2-state", [complete_graph(16)] * 12, budget=budget)
            check_every_path(spec._replace(seed=budget))

    def test_eager_ablation_replicas_veto_pair_rounds(self):
        # Eager replicas change the activity rule; the engine must stay
        # exact, pair rounds vetoed, with plain replicas in the batch.
        check_every_path(Fleet(["eager", "2-state"] * 3, [graph(8)] * 6, seed=8))


class TestWordRounds:
    """A clean 2-state start on a shared CSR graph opens with word
    rounds, 64 replicas per word, and hands over to the frontier."""

    @pytest.mark.parametrize("budget", [10_000, 2])
    def test_word_rounds_follow_the_reference(self, monkeypatch, budget):
        forms = []
        full_round = BatchedFrontierAggregates.full_round

        def noting(self, new_black, pos, aux_mask=None):
            forms.append(self.words is not None)
            full_round(self, new_black, pos, aux_mask)

        monkeypatch.setattr(BatchedFrontierAggregates, "full_round", noting)
        # 70 replicas: two words per vertex, the second mostly padding.
        spec = fleet(
            "2-state", [graph(10, 130, 0.03)] * 70, waves=1, flips=3,
            budget=budget, seed=10, blas=False,
        )
        check_batched(spec, coins=(SeededCoins, CountingCoins))
        assert any(forms)

    def test_eager_replicas_and_resampled_graphs_take_no_word_round(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            BatchedFrontierAggregates, "start_words",
            lambda *a: pytest.fail("word round off its scope"),
        )
        check_batched(Fleet(["eager", "2-state"] * 3, [graph(8)] * 6, blas=False))
        check_batched(fleet("2-state", [graph(s) for s in range(4)], seed=4))


class TestEngineReuse:
    def test_fault_waves_reuse_one_engine(self):
        # One engine serves a whole fault-injection campaign (and, on
        # the block path, keeps its block CSR across waves).
        graphs = [graph(s + 9, 70, 0.05) for s in range(6)]
        check_every_path(fleet("2-state", graphs, waves=2, flips=4, seed=9))

    def test_mutations_between_construction_and_run_are_adopted(self):
        # The oracle builds each engine before the corrupted start: a
        # run adopts the processes' current state.
        spec = fleet("2-state", [graph(2, 80, 0.06)] * 6, corrupt=True)
        check_batched(spec._replace(seed=7))

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



def count_filters(monkeypatch) -> list:
    """Record every :meth:`BatchedFrontierAggregates.filter` call by its
    aggregates (one per run), as the oracle's hooks wrap methods."""
    calls = []
    filter_ = bf.BatchedFrontierAggregates.filter

    def counted(self, keep):
        calls.append(self)  # the reference keeps each run's id unique
        return filter_(self, keep)

    monkeypatch.setattr(bf.BatchedFrontierAggregates, "filter", counted)
    return calls


def per_run(calls) -> list[int]:
    counts = {}
    for aggregates in calls:
        counts[id(aggregates)] = counts.get(id(aggregates), 0) + 1
    return list(counts.values())


class TestSlotStableRows:
    """Retired rows keep their slots until at most half still run."""

    @pytest.mark.parametrize("name", ["2-state", "3-state"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_idle_slots_follow_the_reference(self, monkeypatch, name, shared):
        # 20 replicas: the run compacts at least twice (at 10 running or
        # fewer, and once none runs), idle slots riding every round in
        # between, then again after a fault wave on the same engine.
        if shared:
            graphs = [graph(11, 70, 0.05)] * 20
        else:
            graphs = [graph(s + 11, 70, 0.05) for s in range(20)]
        spec = fleet(
            name, graphs, blas=False, waves=1, flips=3,
            seed=11,
        )
        calls = count_filters(monkeypatch)
        check_batched(spec, ((CROSSOVERS[1], None), (1e18, 0)))
        runs = per_run(calls)
        assert len(runs) == 4  # two modes, a clean start and one wave each
        assert min(runs) >= 2

    @pytest.mark.parametrize("shared", [True, False])
    def test_filter_runs_logarithmically_often(self, monkeypatch, shared):
        # Cost shape, no timing: with retirement staggered over many
        # rounds, a run compacts at most ceil(log2 R) + 2 times, not
        # once per retiring round.
        replicas = 64
        if shared:
            graphs = [gnp_random_graph(300, 0.01, rng=12)] * replicas
        else:
            graphs = [
                gnp_random_graph(300, 0.01, rng=s) for s in range(replicas)
            ]
        ops = {id(g): SparseNeighborOps(g) for g in graphs}
        procs = [
            TwoStateMIS(g, coins=s, ops=ops[id(g)])
            for s, g in zip(spawn_seeds(12, replicas), graphs)
        ]
        engine = BatchedTwoStateMIS(procs)
        calls = count_filters(monkeypatch)
        rng = np.random.default_rng(12)
        for wave in range(2):
            if wave:
                for p in procs:
                    p.corrupt(flip(rng, p.black, 4))
            results = engine.run(MAX_ROUNDS)
            assert all(r.stabilized for r in results)
            rounds = {r.stabilization_round for r in results}
            assert len(rounds) >= 8, "retirement is not staggered"
        runs = per_run(calls)
        assert len(runs) == 2
        assert max(runs) <= int(np.ceil(np.log2(replicas))) + 2
        assert min(runs) >= 1


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
    #: int32 is what the batched engines scatter into (the backends'
    #: native count dtype); int64 is the serial engines' dtype.
    DTYPES = (np.int64, np.int32)

    def test_apply_flat_delta_matches_dense_update(self):
        # 1000 down targets on 400 entries pass the histogram switch.
        for dtype, down_size in itertools.product(self.DTYPES, (350, 1000)):
            rng = np.random.default_rng(7)
            counts = rng.integers(0, 5, size=400).astype(dtype)
            expected = counts.astype(np.int64)
            up = rng.integers(0, 400, size=90).astype(np.int64)
            down = rng.integers(0, 400, size=down_size).astype(np.int64)
            np.add.at(expected, up, 1)
            np.subtract.at(expected, down, 1)
            apply_flat_delta(counts, up, down)
            assert counts.dtype == dtype
            assert np.array_equal(counts, expected)

    def test_apply_flat_delta_one_sided_and_empty(self):
        for dtype in self.DTYPES:
            counts = np.zeros(64, dtype=dtype)
            apply_flat_delta(counts, np.array([3, 3, 5], dtype=np.int64), None)
            assert counts[3] == 2 and counts[5] == 1
            apply_flat_delta(counts, None, np.array([3], dtype=np.int64))
            assert counts[3] == 1
            apply_flat_delta(counts, None, None)
            apply_flat_delta(counts, np.zeros(0, dtype=np.int64), None)
            assert counts.sum() == 2
            assert counts.dtype == dtype

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
        # (The BLAS batch is off: with it a shared graph stays on full
        # reductions.)  A fresh engine takes the cold path; a re-run
        # engine needs none at all (TestResidentRepair).
        graph = gnp_random_graph(300, 0.02, rng=4)
        seeds = spawn_seeds(9, 8)
        with blas_batch(False):
            ops = SparseNeighborOps(graph)

        class CountingEngine(BatchedTwoStateMIS):
            reductions = 0

            def _count_nbrs(self, masks, pos):
                type(self).reductions += 1
                return super()._count_nbrs(masks, pos)

        procs = [TwoStateMIS(graph, coins=s, ops=ops) for s in seeds]
        BatchedTwoStateMIS(procs).run(MAX_ROUNDS, verify=False)
        for i, p in enumerate(procs):
            rng = np.random.default_rng(100 + i)
            p.corrupt_vertices(
                rng.choice(p.n, size=3, replace=False), black=True
            )
        results = CountingEngine(procs).run(MAX_ROUNDS, verify=False)
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
        with blas_batch(False):  # else the shared graph stays off the frontier
            ops = SparseNeighborOps(graph)
        procs = [TwoStateMIS(graph, coins=s, ops=ops) for s in range(6)]
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


class TestResidentRepair:
    """A re-run engine repairs its resident aggregates; repair == rebuild."""

    def test_repair_equals_rebuild(self):
        # The oracle audits each repaired start against a recomputation.
        for name in ("2-state", "3-state", "independent"):
            for graphs in ([graph(10, 70, 0.05)] * 4,
                           [graph(s, 70, 0.05) for s in range(4)]):
                spec = fleet(name, graphs, blas=False,
                             waves=2, flips=3, seed=10)
                check_batched(spec)

    @pytest.mark.parametrize("family", ["two_state", "three_state", "scheduled"])
    def test_rerun_after_three_flips_skips_rebuild_and_reductions(
        self, monkeypatch, family
    ):
        # Cost shape, no timing: the re-run repairs, and its first round
        # takes its regime from the repaired delta, so it calls neither
        # the rebuild nor a count reduction (a bulk round).  Later
        # rounds pick their own regime: a 2-state recovery never goes
        # bulk, while a 3-state one may, when many black vertices
        # redraw their black0/black1 bit at once.
        name = {
            "two_state": "2-state",
            "three_state": "3-state",
            "scheduled": "independent",
        }[family]
        graph = gnp_random_graph(800, 0.005, rng=6)
        procs = [
            FAMILIES[name].build(graph, s, SparseNeighborOps(graph), 0)
            for s in spawn_seeds(4, 8)
        ]
        engine = FAMILIES[name].engine(procs)
        engine.run(MAX_ROUNDS)
        for i, p in enumerate(procs):
            rng = np.random.default_rng(300 + i)
            p.corrupt(flip(rng, p.state_vector(), 3))
        start = engine._rounds.copy()
        calls = []

        def recorded(name, method):
            def call(*args, **kwargs):
                calls.append((name, int((engine._rounds - start).max())))
                return method(*args, **kwargs)
            return call

        aggregates = bf.BatchedFrontierAggregates
        monkeypatch.setattr(
            aggregates, "rebuild", recorded("rebuild", aggregates.rebuild)
        )
        monkeypatch.setattr(
            SparseNeighborOps,
            "count_batch",
            recorded("count_batch", SparseNeighborOps.count_batch),
        )
        results = engine.run(MAX_ROUNDS)
        assert all(r.stabilized for r in results)
        assert [c for c in calls if c[1] <= 1] == []
        if family != "three_state":
            assert calls == []

    def test_large_delta_falls_back_to_rebuild(self, monkeypatch):
        graph = gnp_random_graph(200, 0.02, rng=8)
        with blas_batch(False):  # else the shared graph stays off the frontier
            ops = SparseNeighborOps(graph)
        procs = [TwoStateMIS(graph, coins=s, ops=ops) for s in spawn_seeds(2, 4)]
        engine = BatchedTwoStateMIS(procs)
        engine.run(MAX_ROUNDS)
        rebuilds = []
        rebuild = bf.BatchedFrontierAggregates.rebuild

        def counted(self, *args, **kwargs):
            rebuilds.append(1)
            return rebuild(self, *args, **kwargs)

        monkeypatch.setattr(bf.BatchedFrontierAggregates, "rebuild", counted)
        rng = np.random.default_rng(1)
        k = graph.n // bf.REPAIR_FRACTION + 1  # just above the bound
        for p in procs:
            p.corrupt(flip(rng, p.black, k))
        engine.run(MAX_ROUNDS)
        assert rebuilds == [1]
        for p in procs:
            p.corrupt(flip(rng, p.black, 1))
        engine.run(MAX_ROUNDS)
        assert rebuilds == [1]  # back under the bound: repaired

