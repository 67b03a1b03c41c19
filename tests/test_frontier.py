"""Frontier-engine equivalence and aggregate-memoization guarantees.

The incremental frontier engine (:mod:`repro.core.frontier`) must be a
pure performance transformation: for every seed, every round and every
observable — state vectors, active/stable/covered masks, stabilization
round, coin-stream position — ``engine="frontier"`` and
``engine="auto"`` are bitwise-identical to ``engine="full"``.  This
suite pins that, plus the cache-invalidation paths (``corrupt`` /
``corrupt_vertices`` / batched-engine write-back) and the
reduction-count contract of the memoized full path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frontier import ENGINES, FrontierAggregates, resolve_engine
from repro.core.neighbor_ops import SparseNeighborOps, gather_neighbors
from repro.core.states import BLACK1
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.rng import SeededCoins
from repro.sim.runner import run_until_stable

MAX_ROUNDS = 4000


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


class CountingOps(SparseNeighborOps):
    """Sparse backend that counts neighbourhood reductions."""

    def __init__(self, graph):
        super().__init__(graph)
        self.reductions = 0

    def count(self, mask):
        self.reductions += 1
        return super().count(mask)


def make_pair(cls, graph, seed, engine, **kwargs):
    coins = CountingCoins(seed)
    return cls(graph, coins=coins, engine=engine, **kwargs), coins


def assert_lockstep_equal(cls, graph, seed, rounds=80, corrupt_at=None, **kw):
    """Advance one process per engine in lockstep; compare everything."""
    procs = {}
    coins = {}
    for engine in ENGINES:
        procs[engine], coins[engine] = make_pair(
            cls, graph, seed, engine, **kw
        )
    corrupt_rng = np.random.default_rng(seed + 1)
    corrupt_states = None
    if corrupt_at is not None:
        if cls is TwoStateMIS:
            corrupt_states = corrupt_rng.random(graph.n) < 0.5
        else:
            corrupt_states = corrupt_rng.integers(
                0, 3, graph.n
            ).astype(np.int8)
    for r in range(rounds):
        reference = None
        for engine in ENGINES:
            proc = procs[engine]
            observed = (
                proc.state_vector(),
                proc.active_mask(),
                proc.stable_black_mask(),
                proc.covered_mask(),
                proc.unstable_mask(),
                proc.is_stabilized(),
                proc.trajectory_counts(),
                coins[engine].draws,
            )
            if reference is None:
                reference = observed
            else:
                for a, b in zip(observed, reference):
                    if isinstance(a, np.ndarray):
                        assert np.array_equal(a, b), (engine, r)
                    else:
                        assert a == b, (engine, r)
        if reference[5]:  # stabilized — nothing changes afterwards
            break
        if corrupt_at is not None and r == corrupt_at:
            for proc in procs.values():
                proc.corrupt(corrupt_states)
        for proc in procs.values():
            proc.step()


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
        results = {}
        for engine in ENGINES:
            proc = TwoStateMIS(graph, coins=seed, engine=engine)
            results[engine] = (
                run_until_stable(
                    proc, max_rounds=MAX_ROUNDS, check_every=check_every
                ),
                proc.state_vector(),
            )
        ref, ref_state = results["full"]
        for engine in ("frontier", "auto"):
            res, state = results[engine]
            assert res.stabilization_round == ref.stabilization_round
            assert res.rounds_executed == ref.rounds_executed
            assert np.array_equal(res.mis, ref.mis)
            assert np.array_equal(state, ref_state)

    def test_corrupt_vertices_dirties_counts(self):
        graph = gnp_random_graph(150, 0.04, rng=3)
        procs = {
            e: TwoStateMIS(graph, coins=11, engine=e) for e in ENGINES
        }
        for proc in procs.values():
            proc.step(3)
            proc.corrupt_vertices([0, 5, 9, 100], black=True)
            proc.corrupt_vertices([1, 6], black=False)
        ref = None
        for engine, proc in procs.items():
            observed = (
                proc.covered_mask(),
                proc.stable_black_mask(),
                proc.is_stabilized(),
            )
            if ref is None:
                ref = observed
            else:
                assert np.array_equal(observed[0], ref[0]), engine
                assert np.array_equal(observed[1], ref[1]), engine
                assert observed[2] == ref[2]
        # and the subsequent trajectories still agree
        finals = {
            e: run_until_stable(p, max_rounds=MAX_ROUNDS)
            for e, p in procs.items()
        }
        for engine in ("frontier", "auto"):
            assert (
                finals[engine].stabilization_round
                == finals["full"].stabilization_round
            )
            assert np.array_equal(finals[engine].mis, finals["full"].mis)

    def test_batched_writeback_invalidates_aggregates(self):
        from repro.core.batched import BatchedTwoStateMIS

        graph = gnp_random_graph(80, 0.06, rng=5)
        procs = [
            TwoStateMIS(graph, coins=s, engine="auto") for s in range(6)
        ]
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
            fresh = TwoStateMIS(
                graph, coins=0, engine="full", init=proc.black
            )
            assert np.array_equal(
                proc.covered_mask(), fresh.covered_mask()
            )

    def test_trace_recording_equivalent(self):
        graph = gnp_random_graph(200, 0.03, rng=9)
        traces = {}
        for engine in ENGINES:
            proc = TwoStateMIS(graph, coins=4, engine=engine)
            res = run_until_stable(
                proc, max_rounds=MAX_ROUNDS, record_trace=True
            )
            traces[engine] = res.trace.as_arrays()
        for engine in ("frontier", "auto"):
            for key, curve in traces["full"].items():
                assert np.array_equal(traces[engine][key], curve), (
                    engine,
                    key,
                )


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
        engine=st.sampled_from(("frontier", "auto")),
    )
    @settings(max_examples=30, deadline=None)
    def test_counts_exact_every_round(self, graph, seed, corrupt_at, engine):
        proc = AuditedThreeState(graph, coins=seed, engine=engine)
        corrupt = np.random.default_rng(seed + 1).integers(0, 3, graph.n)
        for r in range(80):
            if corrupt_at is not None and r == corrupt_at:
                proc.corrupt(corrupt.astype(np.int8))
            if proc.is_stabilized():
                break
            proc.step()

    @given(
        seed=st.integers(0, 2**20),
        check_every=st.integers(2, 7),
        engine=st.sampled_from(("frontier", "auto")),
    )
    @settings(max_examples=15, deadline=None)
    def test_counts_exact_with_check_every(self, seed, check_every, engine):
        graph = gnp_random_graph(96, 0.05, rng=seed)
        proc = AuditedThreeState(graph, coins=seed, engine=engine)
        result = run_until_stable(
            proc, max_rounds=MAX_ROUNDS, check_every=check_every
        )
        assert result.stabilized

    def test_black1_scatter_collapses_with_unstable_set(self):
        """Late black1 scatters shrink with ``V_t``, not ``I_t``.

        A stable black vertex re-draws black1/black0 every round; were
        those flips scattered, every round would cost about 0.17 of the
        directed edge volume ``2m``, and the second half of the run
        alone several times ``2m``.
        """
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
        proc = ThreeStateMIS(graph, coins=1, engine="frontier", ops=ops)
        ops.proc = proc
        result = run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        assert result.stabilized
        rounds = result.rounds_executed
        assert rounds >= 8
        assert len(ops.black1_edges) == rounds
        late = sum(e for r, e in ops.black1_edges if r >= rounds // 2)
        assert late < graph.indices.size


class TestEngineParameter:
    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")
        with pytest.raises(ValueError):
            TwoStateMIS(Graph(4, [(0, 1)]), coins=0, engine="warp")
        with pytest.raises(ValueError):
            ThreeStateMIS(Graph(4, [(0, 1)]), coins=0, engine="warp")

    def test_engines_accepted(self):
        graph = Graph(5, [(0, 1), (1, 2), (3, 4)])
        for engine in ENGINES:
            proc = TwoStateMIS(graph, coins=0, engine=engine)
            assert proc.engine == engine
            run_until_stable(proc, max_rounds=MAX_ROUNDS)

    def test_empty_and_singleton_graphs(self):
        for n in (0, 1):
            graph = Graph(n)
            for engine in ENGINES:
                proc = TwoStateMIS(graph, coins=0, engine=engine)
                res = run_until_stable(proc, max_rounds=50)
                assert res.stabilized

    def test_auto_switches_to_scatter(self):
        graph = gnp_random_graph(4096, 3.0 / 4096, rng=0)
        proc = TwoStateMIS(graph, coins=1, engine="auto")
        run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        frontier = proc._frontier
        assert frontier is not None
        assert frontier.scatter_rounds > 0

    def test_frontier_mode_always_scatters(self):
        graph = gnp_random_graph(512, 0.02, rng=0)
        proc = TwoStateMIS(graph, coins=1, engine="frontier")
        run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        assert proc._frontier.full_rounds == 0


class TestFrontierAggregates:
    def test_rebuild_matches_reductions(self):
        graph = gnp_random_graph(300, 0.05, rng=1)
        proc = TwoStateMIS(graph, coins=2, engine="full")
        frontier = FrontierAggregates(graph, proc.ops)
        frontier.rebuild(proc.black, token=proc.black)
        assert np.array_equal(
            frontier.counts, proc.ops.count(proc.black)
        )
        assert np.array_equal(
            frontier.has_black, proc.ops.exists(proc.black)
        )
        assert np.array_equal(frontier.stable, proc.stable_black_mask())
        assert np.array_equal(frontier.covered, proc.covered_mask())
        assert frontier.unstable_total == int(
            np.count_nonzero(proc.unstable_mask())
        )

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
        frontier = FrontierAggregates(
            graph, ops, adaptive=False, track_aux=True
        )
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
        frontier = FrontierAggregates(
            graph, ops, adaptive=False, track_aux=True
        )
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
        frontier = FrontierAggregates(
            graph, ops, adaptive=False, track_aux=True
        )
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
    def test_run_until_stable_two_reductions_per_round(self):
        """The memo kills the redundant step/is_stabilized recompute.

        Per round of the full-path run loop: ``is_stabilized`` misses
        on exists(black) and exists(I); the next ``_advance`` reuses
        the cached exists(black).  Total reductions for R rounds are
        exactly 2R + 2 (the +2 is the pre-loop stabilization check).
        """
        graph = gnp_random_graph(220, 0.04, rng=7)
        ops = CountingOps(graph)
        proc = TwoStateMIS(graph, coins=3, engine="full")
        proc.ops = ops
        result = run_until_stable(proc, max_rounds=MAX_ROUNDS)
        assert result.stabilized
        assert ops.reductions == 2 * result.rounds_executed + 2

    def test_aggregate_cache_invalidated_by_state_change(self):
        graph = gnp_random_graph(60, 0.1, rng=8)
        proc = TwoStateMIS(graph, coins=2, engine="full")
        before = proc.active_mask()
        proc.corrupt_vertices(range(30), black=True)
        after = proc.active_mask()
        fresh = TwoStateMIS(
            graph, coins=0, engine="full", init=proc.black
        )
        assert np.array_equal(after, fresh.active_mask())
        assert before.shape == after.shape

    def test_frontier_is_stabilized_constant_time(self):
        graph = gnp_random_graph(400, 0.02, rng=9)
        proc = TwoStateMIS(graph, coins=1, engine="frontier")
        run_until_stable(proc, max_rounds=MAX_ROUNDS, verify=False)
        ops = CountingOps(graph)
        proc.ops = ops
        # The frontier state is synced; the O(1) counter needs no
        # further reductions no matter how often it is polled.
        for _ in range(5):
            assert proc.is_stabilized()
        assert ops.reductions == 0
