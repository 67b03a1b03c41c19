"""Tests for the multi-core fleet sharding layer (:mod:`repro.parallel`).

The load-bearing guarantees under test:

* **Bitwise identity** — sharded fleets produce exactly the results
  and final process states of the literal references for any worker
  count and shard boundaries (shared graphs, per-trial resampled
  graphs, corrupted starts, resumed runs, mixed stabilization times,
  fault waves on resident engines).  ``tests/test_oracle.py`` draws
  the fleets that pin this; the fixed cases here check named ones
  through the same oracle.
* **Shared-memory hygiene** — no ``/dev/shm`` segment survives a pool
  shutdown, an exception, a dropped owner, or a worker crash mid-job.
* **Dispatch plumbing** — ``n_jobs`` resolution/clamping, the
  process-wide default, and supervised-pool reuse.
"""

import gc
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.neighbor_ops import SparseNeighborOps
from repro.core.replica import ReplicaState
from repro.core.two_state import TwoStateMIS
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
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.runner import run_many_until_stable

from oracle import (
    assert_observes,
    assert_same_results,
    check_fleet,
    fleet,
    random_graph,
    reference_waves,
)


def _assert_no_leaks():
    assert leaked_segments() == []


def _graphs(size, shared, n=60, p=0.08, seed=7):
    if shared:
        return [gnp_random_graph(n, p, rng=seed)] * size
    return [gnp_random_graph(n, p, rng=seed + 1 + i) for i in range(size)]


# ---------------------------------------------------------------------------
# Bitwise identity: fixed oracle cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("n_jobs", [2, 3, 4])
def test_fleet_identical_to_serial(shared, n_jobs):
    check_fleet(fleet("2-state", _graphs(9, shared), seed=100), n_jobs=n_jobs)
    _assert_no_leaks()


def test_fleet_identical_with_explicit_pool():
    with SupervisedPool(2) as pool:
        check_fleet(fleet("2-state", _graphs(8, True), seed=100), pool)
    _assert_no_leaks()


def test_fleet_preserves_graph_identity():
    graph = gnp_random_graph(40, 0.1, rng=3)
    fleet = [TwoStateMIS(graph, coins=i) for i in range(4)]
    run_many_until_stable(fleet, max_rounds=400, n_jobs=2)
    for process in fleet:
        assert process.graph is graph
        assert process.ops.graph is graph


def test_fleet_three_state_identical():
    graphs = _graphs(6, True, n=50, seed=11)
    check_fleet(fleet("3-state", graphs, seed=200), n_jobs=3)
    _assert_no_leaks()


def test_fleet_mixed_graph_sizes_and_retirement():
    # Replicas on different graphs stabilize at very different rounds;
    # early finishers retire from their shard's batch mid-run.
    graphs = [gnp_random_graph(20 + 15 * i, 0.1, rng=50 + i) for i in range(6)]
    check_fleet(fleet("2-state", graphs, seed=300), n_jobs=4)
    _assert_no_leaks()


def test_fleet_resume_after_corruption():
    # Partial runs, then targeted corruption — state and round counters
    # must cross the process boundary bitwise-intact.
    spec = fleet("2-state", _graphs(6, True), budget=2, waves=2, flips=3)
    check_fleet(spec._replace(seed=100), n_jobs=3)
    _assert_no_leaks()


def test_fleet_identity_property():
    # Small graphs with isolated vertices, on uneven shard boundaries.
    for n_jobs in (2, 3, 4):
        graphs = [random_graph(12, 2, 3.0, 0.2, n_jobs)] * 5
        check_fleet(fleet("2-state", graphs, seed=n_jobs), n_jobs=n_jobs)


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
    (wave,) = reference_waves(fleet("2-state", [graph] * 4))
    serial = [Custom(graph, coins=i) for i in range(4)]
    parallel = [Custom(graph, coins=i) for i in range(4)]
    assert "record family" in unshippable(parallel[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a worker's n_jobs=1 never warns
        sr = run_many_until_stable(serial, max_rounds=400, n_jobs=1)
    with pytest.warns(RuntimeWarning, match="record family") as caught:
        pr = run_many_until_stable(parallel, max_rounds=400, n_jobs=2)
    assert len(caught) == 1  # one warning per call, not per process
    for results, procs in ((sr, serial), (pr, parallel)):
        assert_same_results(wave.results, results)
        for proc, final in zip(procs, wave.finals):
            assert_observes(proc, final, "in-process")


def test_unshippable_refuses_instrumented_or_foreign_ops():
    # Workers rebuild plain SparseNeighborOps over the replica's own
    # graph, so a subclass or an ops bound to another graph stays home.
    class CountingOps(SparseNeighborOps):
        pass

    graph = gnp_random_graph(30, 0.1, rng=1)
    other = gnp_random_graph(30, 0.1, rng=2)
    assert unshippable(TwoStateMIS(graph, coins=1)) is None
    assert unshippable(
        TwoStateMIS(graph, coins=1, ops=SparseNeighborOps(graph))
    ) is None
    subclassed = TwoStateMIS(graph, coins=1, ops=CountingOps(graph))
    assert "CountingOps is not the stock" in unshippable(subclassed)
    foreign = TwoStateMIS(graph, coins=1, ops=SparseNeighborOps(other))
    assert "another graph" in unshippable(foreign)


def test_pool_survives_python_level_job_errors():
    graph = gnp_random_graph(30, 0.1, rng=1)
    with SupervisedPool(2) as pool:
        bad = [TwoStateMIS(graph, coins=i) for i in range(2)]
        with pytest.raises(RuntimeError, match="max_rounds"):
            run_many_until_stable(bad, max_rounds=-1, n_jobs=2, pool=pool)
        # The workers caught the exception and keep serving the next
        # fleet; the other shard's late error result is dropped as stale.
        check_fleet(fleet("2-state", [graph] * 4), pool)
        assert pool.respawns == 0
    _assert_no_leaks()


def test_pool_reuse_across_different_graph_stores():
    # Each call publishes a fresh segment; every worker must drop its
    # cached attachment and re-attach.
    with SupervisedPool(2) as pool:
        for seed in (1, 2, 3):
            graphs = [gnp_random_graph(30, 0.1, rng=seed)] * 4
            check_fleet(fleet("2-state", graphs, seed=10 * seed), pool)
    _assert_no_leaks()


# ---------------------------------------------------------------------------
# Resident engines: fault waves on one persistent pool
# ---------------------------------------------------------------------------


def _resident_waves():
    """A clean start plus three 4-vertex fault waves on 10 replicas.

    The graph's density (just under 2%) keeps its batches off BLAS, so
    workers run the batched frontier and keep its engines resident."""
    graph = gnp_random_graph(150, 3.0 / 150, rng=21)
    return fleet("2-state", [graph] * 10, waves=3, flips=4, seed=500)


@pytest.mark.parametrize("shards", [2, 3])
def test_fault_waves_on_resident_engines_match_serial(shards):
    # Two shards stay with their workers (hits every wave); three on
    # two workers rotate, so workers miss and hit stale entries.
    with SupervisedPool(2) as pool:
        check_fleet(_resident_waves(), pool, n_jobs=shards)
        assert pool.respawns == 0
    _assert_no_leaks()


def test_fault_waves_survive_a_worker_killed_in_wave_two():
    # Wave 2's attempt 0 of the first shard dies with its resident
    # engines; the retry runs on a worker whose cache lacks the shard.
    from repro.parallel import WaveChaosPolicy

    chaos = WaveChaosPolicy.scripted({((0, 5), 2): "kill"})
    with SupervisedPool(2, chaos=chaos) as pool:
        check_fleet(_resident_waves(), pool, n_jobs=2)
        kinds = [event.kind for event in pool.events]
        assert pool.respawns == 1
        assert kinds == ["respawn", "retry"]
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
        payload = registry.encode_shard(fleet[lo:hi])
        # A payload item is (graph index, ReplicaState): no backend name.
        items = registry.loads(payload)
        assert all(len(item) == 2 for item in items)
        assert [index for index, _ in items] == [0] * (hi - lo)
        assert all(isinstance(record, ReplicaState) for _, record in items)
        job = ShardJob(
            indices=(lo, hi),
            payload=payload,
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
        check_fleet(fleet("2-state", _graphs(4, True), seed=100))  # fleet path
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
