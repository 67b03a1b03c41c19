"""Run-until-stable engine.

Executes a process until stabilization (``N+[I_t] = V``, see §2) or a
round budget runs out, optionally recording a trajectory and verifying
the resulting MIS.  The stabilization *time* reported is the earliest
round at the end of which all vertices are stable — exactly the paper's
definition — found by checking the predicate after every round.

The per-round predicate is cheap: processes memoize their
neighbourhood reductions per state version (so ``step()`` and
``is_stabilized()`` share one computation instead of recomputing —
see :meth:`repro.core.process.MISProcess._aggregate`), and processes
with incremental frontier aggregates (:mod:`repro.core.frontier`: the
2-state, 3-state and scheduled families) answer it from an O(1)
unstable-vertex counter, with trace snapshots served from the same
maintained aggregates.

For Monte-Carlo campaigns, :func:`run_many_until_stable` runs a whole
list of independent processes, routing batchable ones (2-state,
3-state, 3-color and independently-scheduled processes — see the
dispatch table in :mod:`repro.core.batched`) through the matching
vectorized engine and everything else through the serial loop, with
results bitwise-identical either way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.verify import assert_valid_mis
from repro.sim.trace import Trace, TraceRecorder

if TYPE_CHECKING:
    from repro.core.batched import _BatchedMISEngine
    from repro.core.process import MISProcess
    from repro.parallel.supervisor import SupervisedPool
    from repro.sim.checkpoint import CheckpointView


@dataclass
class RunResult:
    """Outcome of one run.

    Attributes
    ----------
    stabilized:
        Whether stabilization was reached within the budget.
    stabilization_round:
        The stabilization time (paper's definition), or ``None`` if the
        budget ran out.  A process that starts stable has time 0.
    rounds_executed:
        Rounds actually simulated.
    mis:
        The final MIS as a sorted vertex array (``None`` if not
        stabilized).
    trace:
        The recorded trajectory, when requested.
    """

    stabilized: bool
    stabilization_round: int | None
    rounds_executed: int
    mis: np.ndarray | None
    trace: Trace | None = None


def run_until_stable(
    process: MISProcess,
    max_rounds: int = 1_000_000,
    record_trace: bool = False,
    record_states: bool = False,
    check_every: int = 1,
    verify: bool = True,
) -> RunResult:
    """Run ``process`` until it stabilizes or ``max_rounds`` elapse.

    Parameters
    ----------
    process:
        Any :class:`~repro.core.process.MISProcess`.
    max_rounds:
        Round budget (counted from the process's current round).
    record_trace:
        Record the aggregate trajectory (|B_t|, |A_t|, |I_t|, |V_t|).
    record_states:
        Additionally record full state vectors (implies record_trace).
    check_every:
        Check the stabilization predicate every this many rounds.  With
        values > 1, the reported stabilization round may overshoot by up
        to ``check_every - 1`` rounds (trade exactness for speed on huge
        runs); the default 1 is exact.
    verify:
        Assert the final black set is a valid MIS (cheap; on by default).

    Returns
    -------
    RunResult
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    recorder = (
        TraceRecorder(record_states=record_states)
        if (record_trace or record_states)
        else None
    )
    start_round = process.round
    if recorder is not None:
        recorder.snapshot(process)

    stabilization_round: int | None = None
    if process.is_stabilized():
        stabilization_round = process.round - start_round
    else:
        while process.round - start_round < max_rounds:
            process.step()
            if recorder is not None:
                recorder.snapshot(process)
            rounds_done = process.round - start_round
            if rounds_done % check_every == 0 and process.is_stabilized():
                stabilization_round = rounds_done
                break
        # Budget may end between check points; settle the verdict.
        if stabilization_round is None and process.is_stabilized():
            stabilization_round = process.round - start_round

    stabilized = stabilization_round is not None
    mis = None
    if stabilized:
        mis = process.mis()
        if verify:
            assert_valid_mis(process.graph, mis)
    return RunResult(
        stabilized=stabilized,
        stabilization_round=stabilization_round,
        rounds_executed=process.round - start_round,
        mis=mis,
        trace=recorder.trace if recorder is not None else None,
    )


#: Replicas simulated together per batch under ``batch="auto"`` —
#: bounds how much live process/adjacency state exists at once.
AUTO_BATCH_CHUNK = 128


def validate_batch(batch: str | int | None) -> None:
    """Validate a trial-batching strategy: ``"auto"``, positive int, or None."""
    if batch is not None and batch != "auto":
        if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
            raise ValueError(
                f"batch must be 'auto', a positive int, or None; got {batch!r}"
            )


def run_many_until_stable(
    processes: Sequence[MISProcess],
    max_rounds: int = 1_000_000,
    verify: bool = True,
    batch: str | int | None = "auto",
    n_jobs: int | str | None = None,
    pool: SupervisedPool | None = None,
    journal: "CheckpointView | None" = None,
) -> list[RunResult]:
    """Run many independent processes to stabilization, batching when possible.

    Batchable processes (see :func:`repro.core.batched.batchable`) are
    grouped by engine family and common vertex count — via the dispatch
    table of :mod:`repro.core.batched`, so 2-state, 3-state, 3-color and
    independently-scheduled processes each ride their own ``(R, n)``
    lockstep engine — and everything else goes through
    :func:`run_until_stable` one at a time.  Every process produces the
    exact trajectory it would have produced serially, so the two paths
    are interchangeable.

    Parameters
    ----------
    processes:
        Processes to run; each is advanced in place.
    max_rounds, verify:
        As in :func:`run_until_stable` (shared by all processes).
    batch:
        ``"auto"`` (group batchable processes in chunks of
        :data:`AUTO_BATCH_CHUNK`, bounding peak memory), an ``int`` cap
        on replicas per batch, or ``None`` (serial loop for everything).
        A batch group of size 1 — a lone process of its family and
        ``n``, the last chunk's remainder, or every group under
        ``batch=1`` — runs serially.
    n_jobs:
        Multi-core fleet sharding (see :mod:`repro.parallel`): ``None``
        defers to the process-wide default
        (:func:`repro.parallel.config.get_default_n_jobs`, itself
        ``None`` = serial), ``"auto"`` uses every usable core, an int
        requests that many shards (pool width is clamped to the CPU
        count; the shard count is honored verbatim).  Replicas are
        split into contiguous ranges, each executed by a persistent
        worker against shared-memory graph views — results and final
        process states are **bitwise-identical to the serial path for
        any worker count**, because every replica's coin stream is
        independent.  Replicas travel as packed
        :class:`~repro.core.replica.ReplicaState` records; a fleet with
        any process that has none (a subclass, scripted coins, a custom
        switch, scheduler or NeighborOps — see
        :func:`repro.parallel.jobs.unshippable`) runs in-process, with
        one :class:`RuntimeWarning` naming the first offender's reason.
    pool:
        An existing :class:`repro.parallel.supervisor.SupervisedPool`
        to reuse (amortizes worker startup across calls); implies
        parallel dispatch with one shard per worker unless ``n_jobs``
        says otherwise.  Without one, the fleet path builds a private
        pool; either way worker crashes, stragglers, and poisoned
        results self-heal.
    journal:
        A :class:`repro.sim.checkpoint.CheckpointView` for the fleet
        path: completed shards are persisted the moment they land and
        journaled shards are not re-dispatched, so an interrupted
        campaign resumes bitwise-identically.  Ignored by the
        in-process paths (they have no shard granularity to persist).

    Returns
    -------
    list[RunResult] in input order (no traces; use
    :func:`run_until_stable` directly to record trajectories).
    """
    processes = list(processes)
    validate_batch(batch)

    from repro.parallel.fleet import fleet_shards, run_fleet_sharded
    from repro.parallel.jobs import unshippable

    if len(processes) >= 2 and fleet_shards(n_jobs, pool) >= 2:
        reason = next(filter(None, map(unshippable, processes)), None)
        if reason is None:
            return run_fleet_sharded(
                processes,
                max_rounds=max_rounds,
                verify=verify,
                batch=batch,
                n_jobs=n_jobs,
                pool=pool,
                journal=journal,
            )
        warnings.warn(
            f"a process cannot ship to a worker ({reason}); running "
            "the fleet in-process, n_jobs ignored",
            RuntimeWarning,
            stacklevel=2,
        )

    return run_planned(
        processes,
        plan_batches(processes, batch),
        max_rounds=max_rounds,
        verify=verify,
    )


#: A batch plan: each batched engine with the indices of its processes.
BatchPlan = list[tuple[list[int], "_BatchedMISEngine"]]


def plan_batches(
    processes: Sequence[MISProcess], batch: str | int | None
) -> BatchPlan:
    """The batched engines the in-process path runs ``processes`` on.

    Batchable processes are grouped by engine family and ``n`` and cut
    into chunks of at most ``batch`` (:data:`AUTO_BATCH_CHUNK` for
    ``"auto"``); a chunk of one is left out and runs serially.  The
    plan can be run again and again (:func:`run_planned`): engines
    re-adopt their processes' states on every run, which is how a
    fleet worker keeps a shard's engines resident across fault waves.
    """
    from repro.core.batched import engine_for

    groups: dict[tuple[type, int], list[int]] = {}
    if batch is not None:
        for idx, process in enumerate(processes):
            engine_cls = engine_for(process)
            if engine_cls is not None:
                groups.setdefault((engine_cls, process.n), []).append(idx)
    plan: BatchPlan = []
    for (engine_cls, _n), indices in groups.items():
        cap = AUTO_BATCH_CHUNK if batch == "auto" else int(batch)
        for lo in range(0, len(indices), cap):
            chunk = indices[lo:lo + cap]
            if len(chunk) > 1:  # a singleton gains nothing from batching
                plan.append((chunk, engine_cls([processes[i] for i in chunk])))
    return plan


def run_planned(
    processes: Sequence[MISProcess],
    plan: BatchPlan,
    *,
    max_rounds: int,
    verify: bool,
) -> list[RunResult]:
    """Run ``processes`` in-process: ``plan``'s engines, then the rest serially."""
    results: list[RunResult | None] = [None] * len(processes)
    for chunk, engine in plan:
        for i, result in zip(chunk, engine.run(max_rounds, verify=verify)):
            results[i] = result
    for idx, process in enumerate(processes):
        if results[idx] is None:
            results[idx] = run_until_stable(
                process, max_rounds=max_rounds, verify=verify
            )
    return results  # type: ignore[return-value]
