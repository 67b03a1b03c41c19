"""Worker-process entry point.

In the Ganeti-jqueue mold, a worker holds no policy: it loops on the
task queue, runs each shard with the in-process engines, and ships
results back.  Sharding, shared-memory lifecycle, result writeback and
retry/deadline supervision all live with the master.

What a worker does keep is *state*: the shard processes and batched
engines of its recent jobs, one per shard key, over disjoint replica
ranges (see :func:`run_shard`).  A fault wave over a fleet it has
already run then restores the new records into the resident processes,
and each engine repairs its aggregates from the pairs that changed
instead of rebuilding them.  The cache belongs to the attached graph
segment and is dropped with it.  Hits and misses give the same
results, because a repair equals a rebuild exactly; a respawned worker,
a retry on another worker or a shard degraded to the master only runs
slower.

:func:`worker_main` is a module-level function taking only its queues
and spawn-time configuration (no closure captures, no module-global
mutation; the cache is one of its locals), as the repro-lint
``parallel-safety`` rule requires of pool entry points.  The optional
:class:`~repro.parallel.chaos.ChaosPolicy` is that configuration's
fault-injection hook: consulted once per job, it can kill the worker
before it reports, make it hang or start slow, or poison its result —
each a deterministic function of ``(shard, attempt)`` so the
supervisor's recovery paths are reproducibly testable.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.parallel.chaos import ChaosPolicy


def _resident_key(job: Any, items: list) -> tuple:
    """The cache key of a shard job's decoded payload ``items``.

    A resident shard fits a job when the range, the batching, and each
    replica's graph index, family and config all match;
    the records' states, coins and rounds are then restored into it.
    """
    return (
        tuple(job.indices),
        job.batch,
        tuple(
            (index, record.family, tuple(sorted(record.config.items())))
            for index, record in items
        ),
    )


def run_shard(
    registry: Any, job: Any, resident: dict[tuple, Any] | None = None
) -> Any:
    """Run one shard job against an attached (or master) registry.

    Rebuilds the shard's processes from their replica records, runs
    them, and returns one record per replica with its outcome set.
    The supervisor's deadline-degradation path calls this too, against
    the *master's* registry: the records round-trip the same way either
    way, so a degraded shard is bitwise-identical to a worker-run one.

    ``resident`` is a worker's cache (see the module docs).  On a hit
    the records are restored into the cached processes and their
    engines run again; on a miss the shard is built fresh and cached.
    Every other entry whose replica range overlaps the job's is dropped
    first, so the cached ranges stay disjoint: a worker keeps at most
    one replica per index of the fleets on its segment.  The job's own
    entry is taken out while its shard runs, so a job that raises
    leaves nothing half-run behind.  Without a cache every job builds
    fresh, and every reference to the shard's processes — whose arrays
    view the shared mapping — dies on return.
    """
    from dataclasses import replace

    from repro.parallel.jobs import ShardResult
    from repro.sim.runner import plan_batches, run_planned

    items = registry.loads(job.payload)
    key = _resident_key(job, items)
    entry = None
    if resident is not None:
        entry = resident.pop(key, None)
        lo, hi = job.indices  # free overlapping entries before running
        for other in [k for k in resident if k[0][0] < hi and lo < k[0][1]]:
            del resident[other]
    if entry is None:
        processes = [
            record.build(registry.graphs[index], registry.ops(index))
            for index, record in items
        ]
        plan = plan_batches(processes, job.batch)
    else:
        processes, plan = entry
        for process, (_, record) in zip(processes, items):
            process.restore(record)
    shard_results = run_planned(
        processes, plan, max_rounds=job.max_rounds, verify=job.verify
    )
    records = [
        replace(
            process.replica_state(),
            outcome=(
                result.stabilized,
                result.stabilization_round,
                result.rounds_executed,
            ),
        )
        for process, result in zip(processes, shard_results)
    ]
    if resident is not None:
        resident[key] = (processes, plan)
    return ShardResult(job.indices, registry.dumps(records))


def worker_main(
    tasks: Any, results: Any, chaos: "ChaosPolicy | None" = None
) -> None:
    """Execute shard jobs from ``tasks`` until a ``None`` sentinel.

    The worker caches one attached graph store: consecutive jobs
    against the same published segment — every shard of a fleet, every
    wave of a campaign on one pool — share a single mmap, and the
    resident shards of :func:`run_shard` live exactly as long as it.
    Exceptions are caught and
    shipped back as ``(job_id, "error", traceback)`` so the worker
    survives bad jobs; only a hard death (signal, ``os._exit``) kills
    it, which the master's liveness polling detects.

    With a ``chaos`` policy, each job first consults
    ``chaos.fault_for(job.indices, job.attempt)``: ``"kill"`` exits
    the process with :data:`~repro.parallel.chaos.CHAOS_KILL_EXIT`
    before touching the job, ``"hang"``/``"slow"`` sleep before
    running (the former long enough for a supervisor deadline to
    fire), and ``"poison"`` reports an unpicklable payload instead of
    running — exercising the master's quarantine-and-retry path.
    """
    from repro.parallel.chaos import CHAOS_KILL_EXIT, POISON_PAYLOAD
    from repro.parallel.jobs import GraphRegistry, ShardResult

    store = None
    registry = None
    resident: dict[tuple, Any] = {}
    while True:
        task = tasks.get()
        if task is None:
            break
        job_id, job = task
        if chaos is not None:
            fault = chaos.fault_for(
                tuple(job.indices), getattr(job, "attempt", 0)
            )
            if fault == "kill":
                # Flush buffered results first: dying while this
                # worker's queue feeder holds the shared write lock
                # would deadlock every sibling's put().  The chaos
                # kill semantic is "die before touching *this* job",
                # not "corrupt transport of the previous one".
                results.close()
                results.join_thread()
                os._exit(CHAOS_KILL_EXIT)
            elif fault == "hang":
                time.sleep(chaos.hang_seconds)
            elif fault == "slow":
                time.sleep(chaos.slow_seconds)
            elif fault == "poison":
                results.put(
                    (job_id, "ok", ShardResult(job.indices, POISON_PAYLOAD))
                )
                continue
        try:
            if store is None or store.handle.segment != job.handle.segment:
                resident.clear()  # release view refs before unmapping
                registry = None
                if store is not None:
                    store.close()
                store = job.handle.attach()
                registry = GraphRegistry(store.graphs)
            results.put((job_id, "ok", run_shard(registry, job, resident)))
        except Exception:
            results.put((job_id, "error", traceback.format_exc()))
    resident.clear()
    registry = None
    if store is not None:
        store.close()
