"""Tests for the self-healing supervision layer (PR 9).

The resilience contract under test:

* **Chaos equivalence** — under any deterministic fault schedule
  (worker kills, hangs past the deadline, poisoned results, seeded
  mixes) a supervised campaign's results are bitwise-identical to the
  fault-free run, including final process state and coin streams: each
  chaos case is a fixed oracle case (``tests/oracle.py``), checked
  against the literal references.
* **Bounded retries** — a shard that keeps failing exhausts its
  budget and raises :class:`ShardFailedError` carrying the witness
  shard range, the attempt count, and the chaos seed; shards that
  completed first were already delivered (and journaled).
* **Degradation** — a deadline-expired shard is killed and re-run
  in-process when the dispatcher provides a local runner, retried
  otherwise.
* **Hygiene** — close() is idempotent and reports zombies; interrupts
  mid-campaign leak no ``/dev/shm`` segments; chaos-killed workers
  leak nothing either.
"""

import numpy as np
import pytest

from repro.core.two_state import TwoStateMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.parallel import (
    ChaosPolicy,
    RetryPolicy,
    ShardFailedError,
    SupervisedPool,
    iter_chaos_fault_plan,
    leaked_segments,
    shard_ranges,
    supervised_pool_for,
)
from repro.parallel.config import default_supervision, get_default_supervision
from repro.parallel.jobs import GraphRegistry, ShardJob
from repro.parallel.shared_graph import SharedGraphStore
from repro.sim.montecarlo import sweep_stabilization_times
from repro.sim.runner import run_many_until_stable

from oracle import check_fleet, fleet


def _assert_no_leaks():
    assert leaked_segments() == []


def _fleet(size, *, n=48, p=0.1, graph_seed=11, coin_base=1000):
    graph = gnp_random_graph(n, p, rng=graph_seed)
    return [TwoStateMIS(graph, coins=coin_base + i) for i in range(size)]


def _spec(size, *, n=48, p=0.1):
    """The oracle's view of ``_fleet(size, n=n, p=p)``."""
    return fleet("2-state", [gnp_random_graph(n, p, rng=11)] * size, seed=1000)


def _event_kinds(pool):
    return [event.kind for event in pool.events]


# ---------------------------------------------------------------------------
# Chaos equivalence: every recovery path is invisible in the results
# ---------------------------------------------------------------------------


def test_kill_every_shard_respawns_and_matches_serial():
    size, workers = 12, 2
    plan = iter_chaos_fault_plan(
        shard_ranges(size, workers), ["kill"] * workers
    )
    with SupervisedPool(
        workers,
        chaos=ChaosPolicy.scripted(plan),
        retry=RetryPolicy(backoff_base=0.01),
    ) as pool:
        check_fleet(_spec(size), pool)
        assert pool.respawns >= workers
        kinds = _event_kinds(pool)
        assert "respawn" in kinds and "retry" in kinds
    _assert_no_leaks()


def test_poisoned_results_quarantined_and_matches_serial():
    size, workers = 12, 3
    plan = iter_chaos_fault_plan(
        shard_ranges(size, workers), ["poison"] * workers
    )
    with SupervisedPool(
        workers,
        chaos=ChaosPolicy.scripted(plan),
        retry=RetryPolicy(backoff_base=0.0),
    ) as pool:
        check_fleet(_spec(size), pool)
        kinds = _event_kinds(pool)
        assert kinds.count("quarantine") == workers
        assert "retry" in kinds
    _assert_no_leaks()


def test_hang_past_deadline_degrades_in_process():
    size, workers = 8, 2
    ranges = shard_ranges(size, workers)
    plan = iter_chaos_fault_plan(ranges, ["hang"])
    with SupervisedPool(
        workers,
        chaos=ChaosPolicy.scripted(plan, hang_seconds=30.0),
        deadline=0.4,
    ) as pool:
        check_fleet(_spec(size), pool)
        kinds = _event_kinds(pool)
        assert "deadline-kill" in kinds and "degrade" in kinds
        hung = next(e for e in pool.events if e.kind == "deadline-kill")
        assert hung.shard == tuple(ranges[0])
    _assert_no_leaks()


def test_seeded_chaos_mix_matches_serial():
    # Seeded mode: rates draw faults pseudo-randomly, but only on
    # first attempts (max_faulty_attempts=1), so convergence is
    # guaranteed and the whole schedule replays from the seed.
    chaos = ChaosPolicy(seed=42, kill=0.4, poison=0.3, slow=0.2)
    with SupervisedPool(
        3, chaos=chaos, retry=RetryPolicy(backoff_base=0.01)
    ) as pool:
        check_fleet(_spec(24), pool, n_jobs=6)
    _assert_no_leaks()


def test_acceptance_256_replica_fleet_under_seeded_chaos():
    # A 256-replica fleet under a seeded ChaosPolicy completes
    # bitwise-identical to the fault-free references.
    chaos = ChaosPolicy(seed=9, kill=0.3, poison=0.2)
    with SupervisedPool(
        4, chaos=chaos, retry=RetryPolicy(backoff_base=0.01)
    ) as pool:
        check_fleet(_spec(256, n=32, p=0.12), pool, n_jobs=8)
    _assert_no_leaks()


def test_acceptance_sweep_under_chaos_matches_serial():
    # ISSUE 9 acceptance: a 12-point sweep dispatched under a seeded
    # ChaosPolicy produces the exact SweepResult of the serial path.
    grid = [0.04 + 0.01 * i for i in range(12)]

    def make_factory(p):
        def factory(trial_seed):
            return TwoStateMIS(
                gnp_random_graph(30, p, rng=trial_seed),
                coins=trial_seed,
            )

        return factory

    baseline = sweep_stabilization_times(
        make_factory, grid, trials=6, max_rounds=400, seed=5
    )
    chaos = ChaosPolicy(seed=7, kill=0.35, poison=0.25)
    with default_supervision(
        chaos=chaos, retry=RetryPolicy(backoff_base=0.01)
    ):
        chaotic = sweep_stabilization_times(
            make_factory, grid, trials=6, max_rounds=400, seed=5,
            n_jobs=2,
        )
    for a, b in zip(baseline.entries, chaotic.entries):
        assert a[0] == b[0]
        assert np.array_equal(a[1].times, b[1].times)
        assert a[1].failures == b[1].failures
    _assert_no_leaks()


# ---------------------------------------------------------------------------
# Bounded retries and terminal failure
# ---------------------------------------------------------------------------


def test_retry_exhaustion_raises_with_witness_and_seed():
    size, workers = 8, 2
    fleet = _fleet(size)
    ranges = shard_ranges(size, workers)
    doomed = tuple(ranges[1])
    # Kill *every* attempt of the second shard; the first runs clean.
    plan = {(doomed, attempt): "kill" for attempt in range(10)}
    completed = []
    with SupervisedPool(
        workers,
        chaos=ChaosPolicy.scripted(plan, seed=99),
        retry=RetryPolicy(max_retries=2, backoff_base=0.0),
    ) as pool:
        registry, store, jobs = _make_jobs(fleet, ranges)
        with store:
            with pytest.raises(ShardFailedError) as excinfo:
                pool.run_jobs(
                    jobs,
                    on_result=lambda key, result: completed.append(key),
                )
    err = excinfo.value
    assert err.indices == doomed
    assert err.attempts == 3  # max_retries=2 -> at most 3 attempts
    assert err.chaos_seed == 99
    assert "died" in str(err) and "chaos seed 99" in str(err)
    # The healthy shard completed (and was delivered) first.
    assert completed == [tuple(ranges[0])]
    _assert_no_leaks()


def _make_jobs(fleet, ranges, max_rounds=400):
    """Shard jobs over a single-graph fleet (mirrors run_fleet_sharded)."""
    graphs = [fleet[0].graph]
    registry = GraphRegistry(graphs)
    for process in fleet:
        registry.register_ops(process.ops)
    store = SharedGraphStore(graphs)
    jobs = [
        ShardJob(
            indices=(lo, hi),
            payload=registry.encode_shard(fleet[lo:hi]),
            handle=store.handle,
            max_rounds=max_rounds,
            verify=False,
            batch="auto",
        )
        for lo, hi in ranges
    ]
    return registry, store, jobs


def test_deadline_without_local_runner_consumes_a_retry():
    size, workers = 6, 2
    fleet = _fleet(size)
    ranges = shard_ranges(size, workers)
    plan = iter_chaos_fault_plan(ranges, ["hang"])
    with SupervisedPool(
        workers,
        chaos=ChaosPolicy.scripted(plan, hang_seconds=30.0),
        deadline=0.4,
        retry=RetryPolicy(backoff_base=0.0),
    ) as pool:
        registry, store, jobs = _make_jobs(fleet, ranges)
        with store:
            done = pool.run_jobs(jobs)  # no local_runner
        kinds = _event_kinds(pool)
        assert "deadline-kill" in kinds
        assert "degrade" not in kinds
        assert "retry" in kinds
    assert set(done) == {tuple(r) for r in ranges}
    _assert_no_leaks()


def test_python_level_job_errors_stay_fail_fast():
    # A deterministic in-job bug must not burn retries: it raises
    # RuntimeError immediately.
    fleet = _fleet(4)
    with SupervisedPool(2) as pool:
        with pytest.raises(RuntimeError, match="max_rounds"):
            run_many_until_stable(fleet, max_rounds=-1, pool=pool)
        assert "retry" not in _event_kinds(pool)
    _assert_no_leaks()


def test_shard_failed_error_is_a_worker_crash_error():
    from repro.parallel import WorkerCrashError

    err = ShardFailedError((0, 8), 4, "worker died (exit code 86)")
    assert isinstance(err, WorkerCrashError)
    assert err.chaos_seed is None
    assert "chaos seed" not in str(err)


# ---------------------------------------------------------------------------
# Pool lifecycle and hygiene
# ---------------------------------------------------------------------------


def test_close_is_idempotent_and_reports_no_zombies():
    pool = SupervisedPool(2)
    assert pool.close() == []
    assert pool.close() == []
    with pytest.raises(RuntimeError, match="closed"):
        pool.run_jobs([])


def test_run_jobs_rejects_duplicate_indices():
    fleet = _fleet(4)
    ranges = [(0, 2), (0, 2)]
    with SupervisedPool(1) as pool:
        registry, store, jobs = _make_jobs(fleet, ranges)
        with store:
            with pytest.raises(ValueError, match="distinct"):
                pool.run_jobs(jobs)
    _assert_no_leaks()


def test_interrupt_mid_campaign_leaks_nothing(monkeypatch):
    # Satellite 1 regression: Ctrl-C while shards are in flight must
    # unlink the published /dev/shm segment and leave the pool
    # closeable with no zombies.
    fleet = _fleet(8)
    with SupervisedPool(2) as pool:
        def bomb(timeout):
            raise KeyboardInterrupt

        monkeypatch.setattr(pool, "_drain", bomb)
        with pytest.raises(KeyboardInterrupt):
            run_many_until_stable(fleet, max_rounds=400, pool=pool)
        monkeypatch.undo()
        assert pool.close() == []
    _assert_no_leaks()


def test_chaos_killed_workers_leak_nothing():
    size, workers = 8, 2
    fleet = _fleet(size)
    plan = iter_chaos_fault_plan(
        shard_ranges(size, workers), ["kill", "kill"]
    )
    with SupervisedPool(
        workers,
        chaos=ChaosPolicy.scripted(plan),
        retry=RetryPolicy(backoff_base=0.0),
    ) as pool:
        run_many_until_stable(fleet, max_rounds=400, pool=pool)
    _assert_no_leaks()


def test_constructor_validation():
    with pytest.raises(ValueError, match="workers"):
        SupervisedPool(0)
    with pytest.raises(ValueError, match="deadline"):
        SupervisedPool(1, deadline=0.0)


def test_supervised_pool_for_clamps_to_jobs():
    from repro.parallel.pool import resolve_n_jobs

    pool = supervised_pool_for(2, 16)
    try:
        # Width = min(shard count, usable CPUs), never below 1.
        assert pool.workers == max(1, min(2, resolve_n_jobs(16)))
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# Process-wide supervision defaults
# ---------------------------------------------------------------------------


def test_default_supervision_context():
    chaos = ChaosPolicy(seed=1, kill=0.1)
    retry = RetryPolicy(max_retries=7)
    with default_supervision(retry=retry, deadline=2.5, chaos=chaos):
        pool = SupervisedPool(1)
        try:
            assert pool.retry == retry
            assert pool.deadline == 2.5
            assert pool.chaos == chaos
        finally:
            pool.close()
    defaults = get_default_supervision()
    assert defaults.retry is None
    assert defaults.deadline is None
    assert defaults.chaos is None
    pool = SupervisedPool(1)
    try:
        assert pool.retry == RetryPolicy()
        assert pool.deadline is None
        assert pool.chaos is None
    finally:
        pool.close()


def test_explicit_args_beat_defaults():
    with default_supervision(retry=RetryPolicy(max_retries=9)):
        pool = SupervisedPool(1, retry=RetryPolicy(max_retries=0))
        try:
            assert pool.retry.max_retries == 0
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Chaos policy semantics
# ---------------------------------------------------------------------------


def test_chaos_policy_validates_rates_and_plans():
    with pytest.raises(ValueError, match="fault rates"):
        ChaosPolicy(kill=0.9, hang=0.9)
    with pytest.raises(ValueError, match="fault rates"):
        ChaosPolicy(kill=-0.1)
    with pytest.raises(ValueError, match="unknown fault"):
        ChaosPolicy.scripted({((0, 4), 0): "meteor"})


def test_chaos_fault_for_is_deterministic_and_bounded():
    policy = ChaosPolicy(seed=3, kill=0.5, poison=0.3)
    draws = [policy.fault_for((0, 64), 0) for _ in range(5)]
    assert len(set(draws)) == 1  # pure function of (seed, key, attempt)
    # Default max_faulty_attempts=1: retries never fault again.
    assert policy.fault_for((0, 64), 1) is None
    assert policy.fault_for((0, 64), 7) is None
    # Scripted mode: exactly the plan, nothing else.
    scripted = ChaosPolicy.scripted({((0, 4), 0): "kill"})
    assert scripted.fault_for((0, 4), 0) == "kill"
    assert scripted.fault_for((0, 4), 1) is None
    assert scripted.fault_for((4, 8), 0) is None


def test_iter_chaos_fault_plan_zips_ranges():
    plan = iter_chaos_fault_plan([(0, 4), (4, 8), (8, 12)], ["kill", "hang"])
    assert plan == {((0, 4), 0): "kill", ((4, 8), 0): "hang"}


def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(1) == pytest.approx(0.2)
    assert policy.delay(2) == pytest.approx(0.3)  # capped
    assert policy.delay(9) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
