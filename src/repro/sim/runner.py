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
running the incremental frontier engine (:mod:`repro.core.frontier`,
the 2-/3-state default) answer it from an O(1) unstable-vertex
counter, with trace snapshots served from the same maintained
aggregates.

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
    engine: str = "auto",
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
    engine:
        Aggregate engine for the *batched* groups (see
        :mod:`repro.core.batched_frontier`): ``"full"`` recomputes the
        ``(R, n)`` neighbour reductions every round, ``"frontier"``
        scatter-updates persistent per-replica counts along only the
        changed pairs' edges, and ``"auto"`` (default) decides per
        replica per round at the volume crossover.  A pure performance
        knob — results are bitwise-identical.  Processes on the serial
        fallback use their own ``engine`` setting.
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
    from repro.core.batched import engine_for
    from repro.core.frontier import resolve_engine

    processes = list(processes)
    validate_batch(batch)
    resolve_engine(engine)

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
                engine=engine,
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

    results: list[RunResult | None] = [None] * len(processes)

    groups: dict[tuple[type, int], list[int]] = {}
    if batch is not None:
        for idx, process in enumerate(processes):
            engine_cls = engine_for(process)
            if engine_cls is not None:
                groups.setdefault((engine_cls, process.n), []).append(idx)
    batched_indices = set()
    for (engine_cls, _n), indices in groups.items():
        if len(indices) < 2:
            continue  # a singleton gains nothing from the batch machinery
        cap = AUTO_BATCH_CHUNK if batch == "auto" else int(batch)
        for lo in range(0, len(indices), cap):
            chunk = indices[lo:lo + cap]
            if len(chunk) == 1:
                continue
            runner = engine_cls(
                [processes[i] for i in chunk], engine=engine
            )
            for i, result in zip(chunk, runner.run(max_rounds, verify=verify)):
                results[i] = result
            batched_indices.update(chunk)

    for idx, process in enumerate(processes):
        if idx not in batched_indices:
            results[idx] = run_until_stable(
                process, max_rounds=max_rounds, verify=verify
            )
    return results
