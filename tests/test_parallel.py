"""Tests for the multi-core fleet sharding layer (:mod:`repro.parallel`).

The load-bearing guarantees under test:

* **Bitwise identity** — sharded fleets produce exactly the serial
  results and final process states for any worker count and shard
  boundaries (shared graphs, per-trial resampled graphs, corrupted
  starts, resumed runs, mixed stabilization times).
* **Shared-memory hygiene** — no ``/dev/shm`` segment survives a pool
  shutdown, an exception, a dropped owner, or a worker crash mid-job.
* **Dispatch plumbing** — ``n_jobs`` resolution/clamping, the
  process-wide default, sweep fleet-vs-points routing, and pool reuse.
"""

import gc
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replica import ReplicaState
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.parallel import (
    SharedGraphStore,
    WorkerCrashError,
    WorkerPool,
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
    with WorkerPool(2) as pool:
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
# Sweep dispatch: fleet vs legacy points
# ---------------------------------------------------------------------------


def _module_level_make_factory(n):
    def factory(seed):
        return TwoStateMIS(gnp_random_graph(n, 0.1, rng=seed), coins=seed)

    return factory


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


def test_sweep_points_dispatch_warns_on_unpicklable_factory():
    make = lambda n: (  # noqa: E731
        lambda seed: TwoStateMIS(gnp_random_graph(n, 0.1, rng=seed), coins=seed)
    )
    serial = sweep_stabilization_times(
        make, grid=[20], trials=4, max_rounds=300, seed=2
    )
    with pytest.warns(RuntimeWarning, match="fleet"):
        fallback = sweep_stabilization_times(
            make,  # repro-lint: disable=parallel-safety (the legacy path's degradation is the behavior under test)
            grid=[20],
            trials=4,
            max_rounds=300,
            seed=2,
            n_jobs=2,
            dispatch="points",
        )
    assert np.array_equal(serial[20].times, fallback[20].times)


def test_sweep_rejects_unknown_dispatch():
    with pytest.raises(ValueError, match="dispatch"):
        sweep_stabilization_times(
            _module_level_make_factory,
            grid=[10],
            trials=2,
            max_rounds=100,
            dispatch="banana",
        )


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
    sr = run_many_until_stable(serial, max_rounds=400)
    pr = run_many_until_stable(parallel, max_rounds=400, n_jobs=2)
    _assert_fleets_identical(serial, parallel, sr, pr)


def test_pool_survives_python_level_job_errors():
    graph = gnp_random_graph(30, 0.1, rng=1)
    with WorkerPool(1) as pool:
        bad = [TwoStateMIS(graph, coins=i) for i in range(2)]
        with pytest.raises(RuntimeError, match="max_rounds"):
            run_many_until_stable(bad, max_rounds=-1, n_jobs=2, pool=pool)
        # The worker caught the exception and keeps serving jobs.
        good = [TwoStateMIS(graph, coins=i) for i in range(2)]
        results = run_many_until_stable(good, max_rounds=400, pool=pool)
        assert len(results) == 2
    _assert_no_leaks()


def test_pool_reuse_across_different_graph_stores():
    with WorkerPool(2) as pool:
        for seed in (1, 2, 3):  # each call publishes a fresh segment
            graph = gnp_random_graph(30, 0.1, rng=seed)
            serial = [TwoStateMIS(graph, coins=10 * seed + i) for i in range(4)]
            parallel = [
                TwoStateMIS(graph, coins=10 * seed + i) for i in range(4)
            ]
            rs = run_many_until_stable(serial, max_rounds=400)
            rp = run_many_until_stable(parallel, max_rounds=400, pool=pool)
            _assert_fleets_identical(serial, parallel, rs, rp)
    _assert_no_leaks()


def test_closed_pool_rejects_submission():
    pool = WorkerPool(1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(None)


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
    with WorkerPool(2) as pool:
        assert fleet_shards(None, pool) == 2
        assert fleet_shards(3, pool) == 3  # explicit n_jobs wins


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
