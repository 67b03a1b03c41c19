"""Master-side fleet sharding.

This is the one parallel dispatch path, behind
``run_many_until_stable(..., n_jobs=...)`` and so behind every
Monte-Carlo estimate and sweep: split a fleet of R independent
replicas into contiguous per-worker ranges, publish the distinct
graphs once (:class:`~repro.parallel.shared_graph.SharedGraphStore`),
run the shards under a self-healing
:class:`~repro.parallel.supervisor.SupervisedPool`, and graft each
worker's final process state back onto the caller's original objects.

Resilience contract (PR 9): a crashed worker is respawned and its
shard re-dispatched with bounded backoff; a shard past its deadline is
degraded to an in-process run; a poisoned result is quarantined and
retried; and with a checkpoint journal attached, every completed shard
is persisted *before* any later shard can fail, so an interrupted or
exhausted campaign resumes from its last completed shard.

Determinism contract: every replica owns an independent coin stream
and the batched engines guarantee per-replica trajectories independent
of groupmates, so the results are **bitwise-identical to the serial
path for any worker count, any shard boundaries, and any fault
schedule** — sharding stays a pure wall-clock knob even under chaos.
The shard count equals the *requested* ``n_jobs``
(machine-independent, resolved by :func:`fleet_shards`); only the pool
width is clamped to the usable CPUs
(:func:`~repro.parallel.supervisor.supervised_pool_for`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.replica import ReplicaState
from repro.graphs.graph import Graph
from repro.parallel.jobs import GraphRegistry, ShardJob, ShardResult
from repro.parallel.pool import resolve_n_jobs
from repro.parallel.shared_graph import SharedGraphStore
from repro.parallel.supervisor import SupervisedPool, supervised_pool_for
from repro.parallel.worker import run_shard
from repro.sim.runner import RunResult

if TYPE_CHECKING:
    from repro.core.process import MISProcess
    from repro.sim.checkpoint import CheckpointView


def shard_ranges(count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``count`` items into at most ``shards`` contiguous ranges.

    Ranges are near-equal (sizes differ by at most one), cover
    ``[0, count)`` in order, and are never empty — fewer than ``shards``
    ranges come back when there are fewer items than shards.
    """
    if count <= 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def fleet_shards(
    n_jobs: int | str | None, pool: SupervisedPool | None
) -> int:
    """Shard count implied by an ``n_jobs`` spec and/or an explicit pool.

    An explicit ``n_jobs`` wins (unclamped — shard shapes are
    machine-independent); with only a pool given, one shard per worker;
    with neither, the process-wide default of
    :mod:`repro.parallel.config` (itself ``None`` = one shard, serial).
    This is the one place a dispatch consults that default.
    """
    if n_jobs is None and pool is None:
        from repro.parallel.config import get_default_n_jobs

        n_jobs = get_default_n_jobs()
    if n_jobs is not None:
        return resolve_n_jobs(n_jobs, clamp=False)
    return int(pool.workers) if pool is not None else 1


def shard_key(lo: int, hi: int) -> str:
    """Journal key of the ``[lo, hi)`` shard's checkpointed result."""
    return f"shard:{lo}:{hi}"


def decode_results(
    registry: GraphRegistry,
    payload: bytes,
    processes: Sequence[MISProcess],
) -> list[ReplicaState] | None:
    """A shard result's records, or ``None`` if they do not fit.

    The records must be one finished :class:`ReplicaState` per process
    of ``processes``, of its family and vertex count — anything else (a
    poisoned or foreign payload) is refused, not restored.
    """
    try:
        records = registry.loads(payload)
    except Exception:
        return None
    if not isinstance(records, list) or len(records) != len(processes):
        return None
    for record, process in zip(records, processes):
        if (
            not isinstance(record, ReplicaState)
            or record.outcome is None
            or record.family != process.name
            or record.n != process.n
        ):
            return None
    return records


def _adopt(process: MISProcess, record: ReplicaState) -> RunResult:
    """Restore ``record`` into ``process``; the run's result."""
    process.restore(record)
    assert record.outcome is not None
    stabilized, stabilization_round, rounds_executed = record.outcome
    return RunResult(
        stabilized=stabilized,
        stabilization_round=stabilization_round,
        rounds_executed=rounds_executed,
        mis=np.flatnonzero(process.black_mask()) if stabilized else None,
    )


def _distinct_graphs(processes: Sequence[MISProcess]) -> list[Graph]:
    graphs: list[Graph] = []
    seen: set[int] = set()  # id()-dedup: Graph.__eq__ is O(m)
    for process in processes:
        if id(process.graph) not in seen:
            seen.add(id(process.graph))
            graphs.append(process.graph)
    return graphs


def run_fleet_sharded(
    processes: Sequence[MISProcess],
    *,
    max_rounds: int,
    verify: bool,
    batch: str | int | None,
    n_jobs: int | str | None,
    pool: SupervisedPool | None = None,
    journal: "CheckpointView | None" = None,
) -> list[RunResult]:
    """Run a fleet sharded across supervised worker processes.

    The parallel twin of :func:`~repro.sim.runner.run_many_until_stable`
    (which is the only intended caller): identical signature semantics,
    identical results, with replicas advanced in worker processes.  On
    return, every process in ``processes`` holds its post-run state
    exactly as the serial path would have left it.  Every process must
    pass :func:`~repro.parallel.jobs.unshippable`: replicas travel as
    :class:`~repro.core.replica.ReplicaState` records, and each final
    record is restored into the caller's own object, whose identity,
    graph and ops are kept.

    ``pool=None`` spins up a private :class:`SupervisedPool` sized by
    :func:`~repro.parallel.supervisor.supervised_pool_for` (one worker
    per pending shard, clamped to the usable CPUs) and closes it before
    returning; passing a persistent pool amortizes worker startup
    across calls (the sweep path does).  The published graph store is
    unlinked on every exit path, including worker crashes and retry
    exhaustion.

    With a ``journal``, each completed shard is persisted under
    ``shard:{lo}:{hi}`` the moment it lands — before any later shard
    can fail — and shards already journaled are not re-dispatched; an
    interrupted campaign therefore resumes from its last completed
    shard with bitwise-identical results.  A journaled shard whose
    records do not fit the fleet is re-run.
    """
    processes = list(processes)
    shards = fleet_shards(n_jobs, pool)
    ranges = shard_ranges(len(processes), shards)
    graphs = _distinct_graphs(processes)
    registry = GraphRegistry(graphs)
    for process in processes:
        registry.register_ops(process.ops)

    records: dict[tuple[int, int], list[ReplicaState]] = {}
    pending: list[tuple[int, int]] = []
    for lo, hi in ranges:
        restored = (
            journal.get_bytes(shard_key(lo, hi))
            if journal is not None
            else None
        )
        shard = (
            decode_results(registry, restored, processes[lo:hi])
            if restored is not None
            else None
        )
        if shard is not None:
            records[(lo, hi)] = shard
        else:
            pending.append((lo, hi))

    own_pool = pool is None
    if pending:
        with SharedGraphStore(graphs) as store:
            try:
                if pool is None:
                    pool = supervised_pool_for(len(pending), shards)
                jobs = [
                    ShardJob(
                        indices=(lo, hi),
                        payload=registry.encode_shard(processes[lo:hi]),
                        handle=store.handle,
                        max_rounds=max_rounds,
                        verify=verify,
                        batch=batch,
                    )
                    for lo, hi in pending
                ]
                records.update(
                    _run_supervised(pool, jobs, registry, processes, journal)
                )
            finally:
                if own_pool and pool is not None:
                    pool.close()

    results: list[RunResult | None] = [None] * len(processes)
    for (lo, hi), shard in records.items():
        for offset, record in enumerate(shard):
            results[lo + offset] = _adopt(processes[lo + offset], record)
    missing = [i for i, result in enumerate(results) if result is None]
    if missing:  # pragma: no cover - dispatch already raises
        raise RuntimeError(f"shard results missing for replicas {missing}")
    return [result for result in results if result is not None]


def _shard_records(
    registry: GraphRegistry,
    processes: Sequence[MISProcess],
    key: tuple[int, int],
    result: ShardResult,
) -> list[ReplicaState]:
    """Decode a trusted (unvalidated) shard result, or raise."""
    shard = decode_results(registry, result.payload, processes[key[0]:key[1]])
    if shard is None:
        raise RuntimeError(f"shard {key} returned records that do not fit")
    return shard


def _run_supervised(
    pool: SupervisedPool,
    jobs: list[ShardJob],
    registry: GraphRegistry,
    processes: Sequence[MISProcess],
    journal: "CheckpointView | None",
) -> dict[tuple[int, int], list[ReplicaState]]:
    """Dispatch shard jobs under supervision; records by shard.

    Wires the three master-side hooks: *validation* (a result must
    carry the right indices and decode to one finished record per
    replica — the poisoned-result quarantine; the decode is kept, so
    each result is decoded once), *degradation* (a deadline-killed
    shard re-runs in-process against the master's own registry), and
    *journaling* (each completed shard is persisted immediately, so
    partial progress survives a later ``ShardFailedError`` or
    interrupt).
    """
    decoded: dict[tuple[int, int], list[ReplicaState]] = {}

    def validate(job: ShardJob, result: ShardResult) -> bool:
        if tuple(result.indices) != tuple(job.indices):
            return False
        lo, hi = job.indices
        shard = decode_results(registry, result.payload, processes[lo:hi])
        if shard is None:
            return False
        decoded[(lo, hi)] = shard
        return True

    def on_result(key: tuple[int, int], result: ShardResult) -> None:
        if journal is not None:
            journal.put_bytes(shard_key(*key), result.payload)

    outcomes = pool.run_jobs(
        jobs,
        local_runner=lambda job: run_shard(registry, job),
        validate=validate,
        on_result=on_result,
    )
    # Degraded (in-process) shards skip validation: decode them here.
    return {
        key: decoded.get(key)
        or _shard_records(registry, processes, key, result)
        for key, result in outcomes.items()
    }
