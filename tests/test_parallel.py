"""Tests for the multi-core fleet sharding layer (:mod:`repro.parallel`).

The load-bearing guarantees under test:

* **Bitwise identity** — sharded fleets produce exactly the serial
  results and final process states for any worker count and shard
  boundaries (shared graphs, per-trial resampled graphs, corrupted
  starts, resumed runs, mixed stabilization times).
* **Shared-memory hygiene** — no ``/dev/shm`` segment survives a pool
  shutdown, an exception, a dropped owner, or a worker crash mid-job.
* **Dispatch plumbing** — ``n_jobs`` resolution/clamping, the
  process-wide default, sweep routing, and supervised-pool reuse.
"""

import gc
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.neighbor_ops import SparseNeighborOps
from repro.core.replica import ReplicaState
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.parallel import (
    SharedGraphStore,
    SupervisedPool,
    WorkerCrashError,
    cpu_count,
    default_n_jobs,
    fleet_shards,
    get_default_n_jobs,
    leaked_segments,
    resolve_n_jobs,
    set_default_n_jobs,
    shard_ranges,
    unshippable,
)
from repro.sim.montecarlo import (
    estimate_stabilization_time,
    sweep_stabilization_times,
)
from repro.sim.runner import run_many_until_stable


def _assert_no_leaks():
    assert leaked_segments() == []


def _two_state_fleet(size, shared, *, n=60, p=0.08, graph_seed=7, coin_base=100):
    graph = gnp_random_graph(n, p, rng=graph_seed)
    fleet = []
    for i in range(size):
        g = graph if shared else gnp_random_graph(n, p, rng=graph_seed + 1 + i)
        fleet.append(TwoStateMIS(g, coins=coin_base + i))
    return fleet


def _assert_fleets_identical(serial, parallel, serial_results, parallel_results):
    assert len(serial_results) == len(parallel_results)
    for a, b in zip(serial_results, parallel_results):
        assert a.stabilized == b.stabilized
        assert a.stabilization_round == b.stabilization_round
        assert a.rounds_executed == b.rounds_executed
        assert (a.mis is None) == (b.mis is None)
        if a.mis is not None:
            assert np.array_equal(a.mis, b.mis)
    for a, b in zip(serial, parallel):
        assert a.round == b.round
        assert np.array_equal(a.state_vector(), b.state_vector())
        # The coin streams advanced in lockstep: the next draws agree.
        assert np.array_equal(a.coins.bits(8), b.coins.bits(8))


# ---------------------------------------------------------------------------
# Bitwise identity: serial vs sharded
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("n_jobs", [2, 3, 4])
def test_fleet_identical_to_serial(shared, n_jobs):
    serial = _two_state_fleet(9, shared)
    parallel = _two_state_fleet(9, shared)
    rs = run_many_until_stable(serial, max_rounds=400)
    rp = run_many_until_stable(parallel, max_rounds=400, n_jobs=n_jobs)
    _assert_fleets_identical(serial, parallel, rs, rp)
    for a, b in zip(serial, parallel):
        # Writeback preserved object and graph identity.
        assert b.graph is a.graph or b.graph.n == a.graph.n
    _assert_no_leaks()


def test_fleet_identical_with_explicit_pool():
    serial = _two_state_fleet(8, True)
    parallel = _two_state_fleet(8, True)
    rs = run_many_until_stable(serial, max_rounds=400)
    with SupervisedPool(2) as pool:
        rp = run_many_until_stable(parallel, max_rounds=400, pool=pool)
    _assert_fleets_identical(serial, parallel, rs, rp)
    _assert_no_leaks()


def test_fleet_preserves_graph_identity():
    graph = gnp_random_graph(40, 0.1, rng=3)
    fleet = [TwoStateMIS(graph, coins=i) for i in range(4)]
    run_many_until_stable(fleet, max_rounds=400, n_jobs=2)
    for process in fleet:
        assert process.graph is graph
        assert process.ops.graph is graph


def test_fleet_three_state_identical():
    graph = gnp_random_graph(50, 0.08, rng=11)
    serial = [ThreeStateMIS(graph, coins=200 + i) for i in range(6)]
    parallel = [ThreeStateMIS(graph, coins=200 + i) for i in range(6)]
    rs = run_many_until_stable(serial, max_rounds=600)
    rp = run_many_until_stable(parallel, max_rounds=600, n_jobs=3)
    _assert_fleets_identical(serial, parallel, rs, rp)
    _assert_no_leaks()


def test_fleet_mixed_graph_sizes_and_retirement():
    # Replicas on different graphs stabilize at very different rounds;
    # early finishers retire from their shard's batch mid-run.
    def fleet():
        out = []
        for i in range(6):
            g = gnp_random_graph(20 + 15 * i, 0.1, rng=50 + i)
            out.append(TwoStateMIS(g, coins=300 + i))
        return out

    serial, parallel = fleet(), fleet()
    rs = run_many_until_stable(serial, max_rounds=500)
    rp = run_many_until_stable(parallel, max_rounds=500, n_jobs=4)
    _assert_fleets_identical(serial, parallel, rs, rp)
    _assert_no_leaks()


def test_fleet_resume_after_corruption():
    # Partial run, targeted corruption, then a resumed run — state and
    # round counters must cross the process boundary bitwise-intact.
    serial = _two_state_fleet(6, True)
    parallel = _two_state_fleet(6, True)
    rs = run_many_until_stable(serial, max_rounds=2)
    rp = run_many_until_stable(parallel, max_rounds=2, n_jobs=3)
    _assert_fleets_identical(serial, parallel, rs, rp)
    for fleet in (serial, parallel):
        for process in fleet:
            process.corrupt_vertices([0, 1, 2], black=True)
    rs = run_many_until_stable(serial, max_rounds=400)
    rp = run_many_until_stable(parallel, max_rounds=400, n_jobs=2)
    _assert_fleets_identical(serial, parallel, rs, rp)
    _assert_no_leaks()


@st.composite
def small_fleets(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=30))
    size = draw(st.integers(min_value=2, max_value=5))
    coin_base = draw(st.integers(min_value=0, max_value=2**16))
    shared = draw(st.booleans())
    return n, tuple(edges), size, coin_base, shared


@settings(max_examples=15, deadline=None)
@given(small_fleets(), st.integers(min_value=2, max_value=4))
def test_fleet_identity_property(spec, n_jobs):
    n, edges, size, coin_base, shared = spec

    def fleet():
        base = Graph(n, list(edges))
        out = []
        for i in range(size):
            g = base if shared else Graph(n, list(edges))
            out.append(TwoStateMIS(g, coins=coin_base + i))
        return out

    serial, parallel = fleet(), fleet()
    rs = run_many_until_stable(serial, max_rounds=300)
    rp = run_many_until_stable(parallel, max_rounds=300, n_jobs=n_jobs)
    _assert_fleets_identical(serial, parallel, rs, rp)


def test_estimate_stabilization_time_parallel_identical():
    def factory(seed):
        return TwoStateMIS(gnp_random_graph(40, 0.1, rng=seed), coins=seed)

    a = estimate_stabilization_time(factory, trials=8, max_rounds=400, seed=5)
    b = estimate_stabilization_time(
        factory, trials=8, max_rounds=400, seed=5, n_jobs=2
    )
    assert np.array_equal(a.times, b.times)
    assert a.failures == b.failures
    _assert_no_leaks()


# ---------------------------------------------------------------------------
# Sweep dispatch
# ---------------------------------------------------------------------------


def test_sweep_fleet_dispatch_handles_lambdas():
    make = lambda n: (  # noqa: E731 - the point is an unpicklable factory
        lambda seed: TwoStateMIS(gnp_random_graph(n, 0.1, rng=seed), coins=seed)
    )
    serial = sweep_stabilization_times(
        make, grid=[20, 30], trials=4, max_rounds=300, seed=2
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fleet path must not warn
        parallel = sweep_stabilization_times(
            make, grid=[20, 30], trials=4, max_rounds=300, seed=2, n_jobs=2
        )
    for (pa, sa), (pb, sb) in zip(serial.entries, parallel.entries):
        assert pa == pb
        assert np.array_equal(sa.times, sb.times)
        assert sa.failures == sb.failures
    _assert_no_leaks()


# ---------------------------------------------------------------------------
# Shared-memory hygiene
# ---------------------------------------------------------------------------


def test_store_close_unlinks_segment():
    graph = gnp_random_graph(30, 0.1, rng=1)
    store = SharedGraphStore([graph])
    assert store.handle.segment in leaked_segments()
    store.close()
    _assert_no_leaks()
    store.close()  # idempotent


def test_store_context_manager_unlinks_on_exception():
    graph = gnp_random_graph(30, 0.1, rng=1)
    with pytest.raises(RuntimeError, match="boom"):
        with SharedGraphStore([graph]):
            raise RuntimeError("boom")
    _assert_no_leaks()


def test_store_finalizer_backstop_unlinks_dropped_owner():
    store = SharedGraphStore([gnp_random_graph(30, 0.1, rng=1)])
    assert leaked_segments() == [store.handle.segment]
    del store
    gc.collect()
    _assert_no_leaks()


def _check_view(original, view):
    # A helper so view references die on return: the attached store
    # must be able to unmap cleanly once the caller is done.
    assert view.n == original.n
    assert view.m == original.m
    assert np.array_equal(view.indptr, original.indptr)
    assert np.array_equal(view.indices, original.indices)
    assert not view.indices.flags.writeable


def test_attached_store_roundtrips_graphs():
    graphs = [gnp_random_graph(25, 0.15, rng=s) for s in (1, 2)]
    with SharedGraphStore(graphs) as store:
        with store.handle.attach() as attached:
            assert len(attached.graphs) == 2
            for i, original in enumerate(graphs):
                _check_view(original, attached.graphs[i])
    _assert_no_leaks()


def _crash_on_build(self, graph, ops=None):
    os._exit(3)


def test_worker_crash_raises_and_leaks_nothing(monkeypatch):
    # Workers fork after the patch: rebuilding a replica from its
    # record kills every worker outright, on every attempt.
    monkeypatch.setattr(ReplicaState, "build", _crash_on_build)
    graph = gnp_random_graph(30, 0.1, rng=1)
    fleet = [TwoStateMIS(graph, coins=i) for i in range(4)]
    with pytest.raises(WorkerCrashError, match="died"):
        run_many_until_stable(fleet, max_rounds=100, n_jobs=2)
    _assert_no_leaks()


def test_unshippable_fleet_runs_in_process():
    class Custom(TwoStateMIS):
        pass

    graph = gnp_random_graph(30, 0.1, rng=1)
    serial = [Custom(graph, coins=i) for i in range(4)]
    parallel = [Custom(graph, coins=i) for i in range(4)]
    assert "record family" in unshippable(parallel[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a worker's n_jobs=1 never warns
        sr = run_many_until_stable(serial, max_rounds=400, n_jobs=1)
    with pytest.warns(RuntimeWarning, match="record family") as caught:
        pr = run_many_until_stable(parallel, max_rounds=400, n_jobs=2)
    assert len(caught) == 1  # one warning per call, not per process
    _assert_fleets_identical(serial, parallel, sr, pr)


def test_pool_survives_python_level_job_errors():
    graph = gnp_random_graph(30, 0.1, rng=1)
    with SupervisedPool(2) as pool:
        bad = [TwoStateMIS(graph, coins=i) for i in range(2)]
        with pytest.raises(RuntimeError, match="max_rounds"):
            run_many_until_stable(bad, max_rounds=-1, n_jobs=2, pool=pool)
        # The workers caught the exception and keep serving the next
        # fleet; the other shard's late error result is dropped as stale.
        serial = [TwoStateMIS(graph, coins=i) for i in range(4)]
        good = [TwoStateMIS(graph, coins=i) for i in range(4)]
        rs = run_many_until_stable(serial, max_rounds=400)
        rp = run_many_until_stable(good, max_rounds=400, pool=pool)
        _assert_fleets_identical(serial, good, rs, rp)
        assert pool.respawns == 0
    _assert_no_leaks()


def test_pool_reuse_across_different_graph_stores():
    # Each call publishes a fresh segment; every worker must drop its
    # cached attachment and re-attach (what a sweep relies on).
    with SupervisedPool(2) as pool:
        for seed in (1, 2, 3):
            graph = gnp_random_graph(30, 0.1, rng=seed)
            serial = [TwoStateMIS(graph, coins=10 * seed + i) for i in range(4)]
            parallel = [
                TwoStateMIS(graph, coins=10 * seed + i) for i in range(4)
            ]
            rs = run_many_until_stable(serial, max_rounds=400)
            rp = run_many_until_stable(parallel, max_rounds=400, pool=pool)
            _assert_fleets_identical(serial, parallel, rs, rp)
    _assert_no_leaks()


# ---------------------------------------------------------------------------
# Resident engines: fault waves on one persistent pool
# ---------------------------------------------------------------------------


def _wave_campaign(run, waves=3, replicas=12, n=300, flips=4):
    """A clean start plus ``waves`` fault waves; per call, the results
    and the processes' final states, rounds and coin positions."""
    graph = gnp_random_graph(n, 3.0 / n, rng=21)
    fleet = [
        TwoStateMIS(graph, coins=500 + i, ops=SparseNeighborOps(graph))
        for i in range(replicas)
    ]
    rng = np.random.default_rng(9)
    calls = []
    for wave in range(1 + waves):
        if wave:
            for process in fleet:
                state = process.black.copy()
                idx = rng.choice(n, size=flips, replace=False)
                state[idx] = ~state[idx]
                process.corrupt(state)
        results = run(fleet)
        calls.append(
            (
                [
                    (r.stabilized, r.stabilization_round, r.rounds_executed,
                     None if r.mis is None else r.mis.tolist())
                    for r in results
                ],
                [
                    (p.round, p.black.tobytes(), dict(p.coins.state))
                    for p in fleet
                ],
            )
        )
    return calls


def _serial_waves():
    return _wave_campaign(
        lambda fleet: run_many_until_stable(fleet, max_rounds=10_000, n_jobs=1)
    )


@pytest.mark.parametrize("shards", [2, 3])
def test_fault_waves_on_resident_engines_match_serial(shards):
    # Two shards stay with their workers (hits every wave); three on
    # two workers rotate, so workers miss and hit stale entries.
    with SupervisedPool(2) as pool:
        got = _wave_campaign(
            lambda fleet: run_many_until_stable(
                fleet, max_rounds=10_000, n_jobs=shards, pool=pool
            )
        )
        assert pool.respawns == 0
    assert got == _serial_waves()
    _assert_no_leaks()


def test_fault_waves_survive_a_worker_killed_in_wave_two():
    # Wave 2's attempt 0 of the first shard dies with its resident
    # engines; the retry runs on a worker whose cache lacks the shard.
    from repro.parallel import WaveChaosPolicy

    chaos = WaveChaosPolicy.scripted({((0, 6), 2): "kill"})
    with SupervisedPool(2, chaos=chaos) as pool:
        got = _wave_campaign(
            lambda fleet: run_many_until_stable(
                fleet, max_rounds=10_000, n_jobs=2, pool=pool
            )
        )
        kinds = [event.kind for event in pool.events]
        assert pool.respawns == 1
        assert kinds == ["respawn", "retry"]
    assert got == _serial_waves()
    _assert_no_leaks()


def test_run_shard_repairs_its_resident_entry_on_the_next_wave(monkeypatch):
    # In-process, no pool: the second wave over a shard finds the
    # entry the first one cached and repairs it, never rebuilding.
    from dataclasses import replace

    from repro.core.batched_frontier import BatchedFrontierAggregates
    from repro.parallel.jobs import GraphRegistry, ShardJob
    from repro.parallel.worker import run_shard

    graph = gnp_random_graph(300, 3.0 / 300, rng=21)
    fleet = [
        TwoStateMIS(graph, coins=700 + i, ops=SparseNeighborOps(graph))
        for i in range(6)
    ]
    twins = [
        TwoStateMIS(graph, coins=700 + i, ops=SparseNeighborOps(graph))
        for i in range(6)
    ]
    registry = GraphRegistry([graph])

    def wave(resident, lo=0, hi=len(fleet)):
        job = ShardJob(
            indices=(lo, hi),
            payload=registry.encode_shard(fleet[lo:hi]),
            handle=None,
            max_rounds=10_000,
            verify=True,
            batch="auto",
        )
        records = registry.loads(run_shard(registry, job, resident).payload)
        for process, record in zip(fleet[lo:hi], records):
            process.restore(record)
        return records

    resident = {}
    wave(resident)
    run_many_until_stable(twins, max_rounds=10_000, batch=None)
    (key, (processes, plan)), = resident.items()
    rng = np.random.default_rng(3)
    for process, twin in zip(fleet, twins):
        state = process.black.copy()
        idx = rng.choice(graph.n, size=3, replace=False)
        state[idx] = ~state[idx]
        process.corrupt(state)
        twin.corrupt(state)
    want = run_many_until_stable(twins, max_rounds=10_000, batch=None)

    def forbidden(*args, **kwargs):
        raise AssertionError("rebuild called on a resident hit")

    monkeypatch.setattr(BatchedFrontierAggregates, "rebuild", forbidden)
    records = wave(resident)
    assert list(resident) == [key]
    assert resident[key][0] is processes  # the same resident processes
    for record, result, twin in zip(records, want, twins):
        assert record.outcome == (
            result.stabilized,
            result.stabilization_round,
            result.rounds_executed,
        )
        assert replace(record, outcome=None) == twin.replica_state()

    # A job over an overlapping range replaces the entry (a miss).
    monkeypatch.undo()
    wave(resident, 2, 5)
    assert [k[0] for k in resident] == [(2, 5)]


def test_wave_chaos_counts_dispatches_per_shard():
    from repro.parallel import WaveChaosPolicy

    policy = WaveChaosPolicy.scripted({((0, 4), 1): "kill"})
    assert policy.fault_for((0, 4), 0) is None
    assert policy.fault_for((4, 8), 0) is None
    assert policy.fault_for((0, 4), 0) == "kill"  # its second dispatch
    assert policy.fault_for((0, 4), 1) is None


def test_persistent_pool_keeps_its_store_while_the_graphs_come_back():
    graph = gnp_random_graph(40, 0.1, rng=4)
    other = gnp_random_graph(40, 0.1, rng=5)
    with SupervisedPool(2) as pool:
        run_many_until_stable(
            [TwoStateMIS(graph, coins=i) for i in range(4)], pool=pool
        )
        first = leaked_segments()
        assert len(first) == 1  # the pool's store, alive between calls
        run_many_until_stable(
            [TwoStateMIS(graph, coins=i) for i in range(4, 8)], pool=pool
        )
        assert leaked_segments() == first  # same graph: one publication
        run_many_until_stable(
            [TwoStateMIS(other, coins=i) for i in range(4)], pool=pool
        )
        second = leaked_segments()
        assert len(second) == 1 and second != first  # old one unlinked
    _assert_no_leaks()


# ---------------------------------------------------------------------------
# Plumbing: n_jobs resolution, sharding, config default
# ---------------------------------------------------------------------------


def test_resolve_n_jobs():
    assert resolve_n_jobs(None) == 1
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs("auto") == cpu_count()
    assert resolve_n_jobs(10**6) == cpu_count()  # clamped pool width
    assert resolve_n_jobs(10**6, clamp=False) == 10**6  # verbatim shards
    for bad in (0, -1, True, False, "many", 1.5):
        with pytest.raises((ValueError, TypeError)):
            resolve_n_jobs(bad)


def test_fleet_shards_resolution():
    assert fleet_shards(None, None) == 1
    assert fleet_shards(4, None) == 4  # unclamped: machine-independent
    assert fleet_shards("auto", None) == cpu_count()
    with default_n_jobs(3):
        assert fleet_shards(None, None) == 3  # the installed default
        assert fleet_shards(1, None) == 1  # explicit n_jobs wins
    with SupervisedPool(2) as pool:
        assert fleet_shards(None, pool) == 2
        assert fleet_shards(3, pool) == 3  # explicit n_jobs wins
        with default_n_jobs(3):
            assert fleet_shards(None, pool) == 2  # a pool beats the default


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=32),
)
def test_shard_ranges_properties(count, shards):
    ranges = shard_ranges(count, shards)
    if count == 0:
        assert ranges == []
        return
    assert len(ranges) == min(shards, count)
    assert ranges[0][0] == 0
    assert ranges[-1][1] == count
    sizes = []
    for (lo, hi), nxt in zip(ranges, ranges[1:] + [(count, None)]):
        assert lo < hi  # never empty
        assert hi == nxt[0]  # contiguous
        sizes.append(hi - lo)
    assert max(sizes) - min(sizes) <= 1  # near-equal


def test_default_n_jobs_config():
    assert get_default_n_jobs() is None
    with default_n_jobs(2):
        assert get_default_n_jobs() == 2
        serial = _two_state_fleet(4, True)
        parallel = _two_state_fleet(4, True)
        rp = run_many_until_stable(parallel, max_rounds=400)  # fleet path
        rs = run_many_until_stable(serial, max_rounds=400, n_jobs=1)
        _assert_fleets_identical(serial, parallel, rs, rp)
    assert get_default_n_jobs() is None
    with pytest.raises(ValueError):
        set_default_n_jobs(0)
    assert get_default_n_jobs() is None
    _assert_no_leaks()


def test_single_replica_or_single_shard_stays_serial():
    graph = gnp_random_graph(30, 0.1, rng=1)
    lone = [TwoStateMIS(graph, coins=0)]
    results = run_many_until_stable(lone, max_rounds=400, n_jobs=4)
    assert len(results) == 1
    serial = [TwoStateMIS(graph, coins=i) for i in range(3)]
    results = run_many_until_stable(serial, max_rounds=400, n_jobs=1)
    assert len(results) == 3
    _assert_no_leaks()
