"""Self-healing worker pool: supervision, retry, deadlines, degradation.

:class:`SupervisedPool` is the repository's one worker pool.  It makes
the execution substrate as self-stabilizing as the algorithm it
simulates: instead of aborting a campaign when a worker dies, it
respawns the worker and re-dispatches its in-flight shard with bounded,
exponentially backed-off retries; shards that out-live a per-shard
deadline get their straggler killed and gracefully degrade to
in-process execution; poisoned results are quarantined and retried.
All of it is reproducibly testable through the deterministic
:class:`~repro.parallel.chaos.ChaosPolicy` fault injector.

Supervision state machine (per shard)::

    READY ──dispatch──▶ IN-FLIGHT ──ok+valid──────────▶ DONE
      ▲                    │ worker died ──┐
      │                    │ invalid result┴─▶ RETRY-WAIT (backoff)
      │                    │                     │ attempts left
      │                    │ deadline expired    └─▶ READY
      │                    ▼                     │ exhausted
      │               kill straggler             ▼
      │                    │ local_runner   ShardFailedError
      └────(respawn is a   ▼
       worker-side event) DONE (in-process degradation)

Master-side scheduling makes this race-free: each worker owns a
private task queue and holds at most one in-flight shard, so the
supervisor always knows exactly which attempt died with which worker —
no started-message handshake, no lost-job window.

Determinism contract: a re-dispatched or degraded shard re-runs from
the *original* job payload, and every replica owns an independent coin
stream, so campaign results under any fault schedule are
bitwise-identical to the fault-free serial run.  Retry backoff is
deterministic (no jitter); only wall clock varies.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass, replace
from types import TracebackType
from typing import Any, Callable, Iterable, Sequence

from repro.graphs.graph import Graph
from repro.parallel.chaos import ChaosPolicy, ShardKey
from repro.parallel.jobs import ShardJob, ShardResult
from repro.parallel.pool import (
    _LIVE_POOLS,
    _POLL_INTERVAL,
    WORKER_NAME_PREFIX,
    _report_zombies,
    shutdown_processes,
)
from repro.parallel.retry import RetryPolicy, ShardFailedError
from repro.parallel.shared_graph import SharedGraphStore
from repro.parallel.worker import worker_main

#: Floor on poll timeouts so deadline/backoff wakeups never busy-spin.
_MIN_WAIT = 0.005


@dataclass(frozen=True)
class SupervisionEvent:
    """One supervision decision, for tests, ``repro.doctor``, and logs.

    ``kind`` is one of ``"respawn"`` (a dead worker was replaced),
    ``"retry"`` (an attempt was re-dispatched), ``"quarantine"`` (a
    result failed validation), ``"deadline-kill"`` (a straggler was
    killed), or ``"degrade"`` (a shard ran in-process).
    """

    kind: str
    shard: ShardKey | None
    attempt: int
    detail: str


class _Slot:
    """One supervised worker: private task queue + current assignment."""

    __slots__ = ("proc", "tasks", "index", "generation", "job", "job_id",
                 "started")

    def __init__(
        self, proc: Any, tasks: Any, index: int, generation: int
    ) -> None:
        self.proc = proc
        self.tasks = tasks
        self.index = index
        self.generation = generation
        self.job: ShardJob | None = None
        self.job_id: int | None = None
        self.started = 0.0


class SupervisedPool:
    """A fixed-width pool of supervised, respawnable worker processes.

    Parameters
    ----------
    workers:
        Pool width, taken verbatim (callers clamp via
        :func:`~repro.parallel.pool.resolve_n_jobs`).
    retry:
        Re-dispatch policy for crashed/poisoned shards; ``None`` means
        ``RetryPolicy()``.
    deadline:
        Per-shard wall-clock deadline in seconds.  On expiry the
        straggling worker is killed and the shard degrades to
        in-process execution (when the dispatcher provides a local
        runner) or is retried.  ``None`` (the default) disables
        deadlines.
    chaos:
        Deterministic fault injector threaded into every worker;
        ``None`` (the default) injects no faults.
    start_method:
        ``multiprocessing`` start method; default is ``"fork"`` where
        available (cheap, inherits imports) and ``"spawn"`` elsewhere.

    Use as a context manager or call :meth:`close` in a ``finally``;
    the atexit/SIGTERM backstop of :mod:`repro.parallel.pool` catches
    owners that never get there.

    The pool also owns the graph store its fleets last published
    (:meth:`graph_store`): it lives until a call brings other graphs
    or the pool closes, so workers keep their resident shards across
    the calls of a campaign.
    """

    def __init__(
        self,
        workers: int,
        *,
        retry: RetryPolicy | None = None,
        deadline: float | None = None,
        chaos: ChaosPolicy | None = None,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        self.retry = retry or RetryPolicy()
        self.deadline = deadline
        self.chaos = chaos
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self._results: Any = self._ctx.Queue()
        self._next_id = 0
        self._closed = False
        self.respawns = 0
        #: Supervision decisions, in order — ``repro.doctor``'s evidence.
        self.events: list[SupervisionEvent] = []
        self._store: SharedGraphStore | None = None
        self._slots = [self._spawn(i, 0) for i in range(workers)]
        _LIVE_POOLS.add(self)

    def graph_store(self, graphs: Sequence[Graph]) -> SharedGraphStore:
        """The published store of ``graphs``, kept while they come back.

        Reused when ``graphs`` are the very objects of the last call, in
        order (the store holds them, so their ids stay theirs); else the
        old segment is unlinked and a new one published.  :meth:`close`
        unlinks the last one.
        """
        if self._closed:
            raise RuntimeError("cannot publish on a closed SupervisedPool")
        store = self._store
        if (
            store is not None
            and len(store.graphs) == len(graphs)
            and all(a is b for a, b in zip(store.graphs, graphs))
        ):
            return store
        self._store = None
        if store is not None:
            store.close()
        self._store = SharedGraphStore(graphs)
        return self._store

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int, generation: int) -> _Slot:
        tasks = self._ctx.Queue()
        proc = self._ctx.Process(
            target=worker_main,
            args=(tasks, self._results, self.chaos),
            daemon=True,
            name=f"{WORKER_NAME_PREFIX}{index}g{generation}",
        )
        proc.start()
        return _Slot(proc, tasks, index, generation)

    def _respawn(self, index: int, detail: str) -> None:
        """Replace a dead slot with a fresh worker (fresh queue too —
        the dead worker's queue may still hold its undelivered job)."""
        slot = self._slots[index]
        slot.tasks.close()
        slot.tasks.cancel_join_thread()
        slot.proc.join(timeout=1.0)
        self.respawns += 1
        self._slots[index] = self._spawn(index, slot.generation + 1)
        self._event("respawn", None, 0, detail)

    def _kill_slot(self, index: int) -> None:
        """Forcibly stop one straggling worker (terminate → kill)."""
        proc = self._slots[index].proc
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - terminate nearly always
            proc.kill()
            proc.join(timeout=1.0)

    @property
    def workers(self) -> int:
        """The pool width."""
        return len(self._slots)

    def _event(
        self, kind: str, shard: ShardKey | None, attempt: int, detail: str
    ) -> None:
        self.events.append(SupervisionEvent(kind, shard, attempt, detail))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _drain(self, timeout: float) -> tuple[int, str, Any] | None:
        """One results-queue read; ``None`` on timeout.

        A seam for the interrupt-hygiene tests, which patch it to
        raise :class:`KeyboardInterrupt` mid-campaign.
        """
        try:
            item: tuple[int, str, Any] = self._results.get(timeout=timeout)
            return item
        except queue_mod.Empty:
            return None

    def run_jobs(
        self,
        jobs: Sequence[ShardJob],
        *,
        local_runner: Callable[[ShardJob], ShardResult] | None = None,
        validate: Callable[[ShardJob, ShardResult], bool] | None = None,
        on_result: Callable[[ShardKey, ShardResult], None] | None = None,
    ) -> dict[ShardKey, ShardResult]:
        """Run shard jobs to completion under supervision.

        Parameters
        ----------
        jobs:
            Shard jobs with pairwise-distinct ``indices`` (payloads
            are pre-pickled bytes; the callables below all stay on the
            master side — no pickle boundary, see the repro-lint
            ``parallel-safety`` exemption).
        local_runner:
            In-process executor for a job whose deadline expired (the
            graceful-degradation path).  Without one, deadline expiry
            consumes a retry instead.
        validate:
            Master-side result check; a failing result is quarantined
            and the shard retried (the poisoned-result path).
        on_result:
            Called with ``(shard, result)`` the moment each shard
            completes — the checkpoint-journal hook, invoked *before*
            any later shard can fail, so partial results are always
            persisted first.

        Returns
        -------
        ``{shard indices: ShardResult}`` for every job.

        Raises
        ------
        ShardFailedError
            When a shard exhausts ``retry.max_retries``; completed
            shards have already been delivered through ``on_result``.
        RuntimeError
            For Python-level worker exceptions (deterministic job
            bugs; retrying cannot help, so they stay fail-fast).
        """
        if self._closed:
            raise RuntimeError("cannot dispatch on a closed SupervisedPool")
        pending = list(jobs)
        keys = [tuple(job.indices) for job in pending]
        if len(set(keys)) != len(keys):
            raise ValueError("shard jobs must have distinct indices")
        ready: deque[ShardJob] = deque(pending)
        sleeping: list[tuple[float, int, ShardJob]] = []
        seq = 0
        done: dict[ShardKey, ShardResult] = {}
        inflight: dict[int, _Slot] = {}

        def record(key: ShardKey, result: ShardResult) -> None:
            done[key] = result
            if on_result is not None:
                on_result(key, result)

        def retry_or_fail(job: ShardJob, reason: str) -> None:
            nonlocal seq
            attempts = job.attempt + 1
            if job.attempt >= self.retry.max_retries:
                raise ShardFailedError(
                    tuple(job.indices),
                    attempts,
                    reason,
                    chaos_seed=(
                        self.chaos.seed if self.chaos is not None else None
                    ),
                )
            delay = self.retry.delay(job.attempt)
            self._event(
                "retry",
                tuple(job.indices),
                attempts,
                f"{reason}; re-dispatching attempt {attempts} "
                f"after {delay:.3g}s",
            )
            next_job = replace(job, attempt=attempts)
            if delay <= 0:
                ready.append(next_job)
            else:
                seq += 1
                heapq.heappush(
                    sleeping, (time.monotonic() + delay, seq, next_job)
                )

        try:
            while len(done) < len(pending):
                now = time.monotonic()
                while sleeping and sleeping[0][0] <= now:
                    _, _, job = heapq.heappop(sleeping)
                    ready.append(job)
                for slot in self._slots:
                    if slot.job is None and ready:
                        job = ready.popleft()
                        job_id = self._next_id
                        self._next_id += 1
                        slot.job = job
                        slot.job_id = job_id
                        slot.started = time.monotonic()
                        inflight[job_id] = slot
                        slot.tasks.put((job_id, job))
                timeout = _POLL_INTERVAL
                if sleeping:
                    timeout = min(timeout, sleeping[0][0] - now)
                if self.deadline is not None:
                    for slot in self._slots:
                        if slot.job is not None:
                            timeout = min(
                                timeout,
                                slot.started + self.deadline - now,
                            )
                item = self._drain(max(timeout, _MIN_WAIT))
                if item is not None:
                    job_id, status, value = item
                    slot_or_none = inflight.pop(job_id, None)
                    if slot_or_none is not None:
                        slot = slot_or_none
                        finished = slot.job
                        assert finished is not None
                        slot.job = None
                        slot.job_id = None
                        key = tuple(finished.indices)
                        if status == "error":
                            raise RuntimeError(
                                f"worker job {job_id} raised:\n{value}"
                            )
                        if validate is not None and not validate(
                            finished, value
                        ):
                            self._event(
                                "quarantine",
                                key,
                                finished.attempt,
                                "result failed validation; quarantined",
                            )
                            retry_or_fail(finished, "poisoned result")
                        else:
                            record(key, value)
                    # else: stale result from an abandoned attempt
                for index in range(len(self._slots)):
                    slot = self._slots[index]
                    exitcode = slot.proc.exitcode
                    if exitcode is None:
                        continue
                    died_job, died_id = slot.job, slot.job_id
                    self._respawn(
                        index, f"worker died (exit code {exitcode})"
                    )
                    if died_job is not None:
                        if died_id is not None:
                            inflight.pop(died_id, None)
                        retry_or_fail(
                            died_job, f"worker died (exit code {exitcode})"
                        )
                if self.deadline is not None:
                    now = time.monotonic()
                    for index in range(len(self._slots)):
                        slot = self._slots[index]
                        late_job = slot.job
                        if (
                            late_job is None
                            or now - slot.started <= self.deadline
                        ):
                            continue
                        if slot.job_id is not None:
                            inflight.pop(slot.job_id, None)
                        key = tuple(late_job.indices)
                        self._event(
                            "deadline-kill",
                            key,
                            late_job.attempt,
                            f"shard exceeded {self.deadline}s deadline; "
                            "killing straggler",
                        )
                        self._kill_slot(index)
                        self._respawn(index, "deadline straggler replaced")
                        if local_runner is not None:
                            self._event(
                                "degrade",
                                key,
                                late_job.attempt,
                                "running shard in-process",
                            )
                            record(key, local_runner(late_job))
                        else:
                            retry_or_fail(late_job, "deadline expired")
        finally:
            # Abandon whatever is still in flight (exception paths):
            # late results are dropped as stale, and a busy worker
            # simply runs its backlog before the next dispatch.
            for slot in self._slots:
                slot.job = None
                slot.job_id = None
        return done

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> list[int]:
        """Stop the workers and release the queues (idempotent).

        Live workers get a stop sentinel, then the join → terminate →
        kill escalation of
        :func:`~repro.parallel.pool.shutdown_processes`; workers that
        survive even ``kill()`` are reported with a
        :class:`RuntimeWarning` and returned as a pid list (a clean
        shutdown returns ``[]``).
        """
        if self._closed:
            return []
        self._closed = True
        _LIVE_POOLS.discard(self)
        if self._store is not None:
            self._store.close()
            self._store = None
        for slot in self._slots:
            try:
                slot.tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue gone
                pass
        zombies = _report_zombies(
            shutdown_processes([slot.proc for slot in self._slots])
        )
        for slot in self._slots:
            slot.tasks.close()
            slot.tasks.cancel_join_thread()
        self._results.close()
        self._results.cancel_join_thread()
        return zombies

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def supervised_pool_for(
    jobs: int, n_jobs: int | str | None, **kwargs: Any
) -> SupervisedPool:
    """A SupervisedPool sized for ``jobs`` shards under an ``n_jobs`` spec.

    The one pool-width rule: ``min(jobs, resolve_n_jobs(n_jobs))``
    workers, at least one — never wider than the shard count or the
    usable CPUs.  ``n_jobs`` may be a shard count from
    :func:`~repro.parallel.fleet.fleet_shards`.
    """
    from repro.parallel.pool import resolve_n_jobs

    return SupervisedPool(
        max(1, min(jobs, resolve_n_jobs(n_jobs))), **kwargs
    )


def iter_chaos_fault_plan(
    ranges: Iterable[ShardKey], faults: Sequence[str]
) -> dict[tuple[ShardKey, int], str]:
    """Zip shard ranges with first-attempt faults (smoke-test helper).

    Builds a scripted :class:`~repro.parallel.chaos.ChaosPolicy` plan
    injecting ``faults[i]`` into attempt 0 of the i-th range; ranges
    beyond ``faults`` run clean.
    """
    plan: dict[tuple[ShardKey, int], str] = {}
    for key, fault in zip(ranges, faults):
        plan[(tuple(key), 0)] = fault
    return plan
