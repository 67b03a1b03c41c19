"""Persistent worker pool: the master side of the master/worker split.

Deliberately *not* a ``concurrent.futures`` pool:

* workers are long-lived — a published graph store amortizes over every
  shard of every job of a whole sweep, instead of re-shipping state per
  task;
* the task payloads are packed replica records
  (:mod:`repro.parallel.jobs`) whose graph indices only mean something
  against a worker's attached graph store;
* a worker that dies mid-job (segfault, OOM kill, ``os._exit``) is
  detected by liveness polling and surfaced as
  :class:`WorkerCrashError` instead of hanging the master — the
  failure mode that makes the shared-memory cleanup guarantees
  testable.

:func:`resolve_n_jobs` is the single interpretation point for the
``n_jobs`` knob that :func:`~repro.sim.runner.run_many_until_stable`
and the Monte-Carlo layer expose.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import queue as queue_mod
import signal
import warnings
import weakref
from types import TracebackType
from typing import Any, Iterable

from repro.parallel.jobs import ShardJob, ShardResult
from repro.parallel.worker import worker_main

#: Seconds between liveness checks while awaiting results.
_POLL_INTERVAL = 0.1
#: Seconds to wait for a worker to honor its stop sentinel.
_JOIN_TIMEOUT = 5.0

#: Prefix of every worker process name — filterable in ``ps`` output
#: and ``multiprocessing.active_children()`` (the doctor CLI and the
#: interrupt-hygiene regression tests rely on it).
WORKER_NAME_PREFIX = "repro-worker-"

#: Every open pool (WorkerPool and SupervisedPool alike) registers
#: here so the atexit/SIGTERM backstop can close stragglers — the
#: Ctrl-C hygiene contract: no teardown path may strand workers or
#: queues, even when the owner never reaches its ``finally``.
_LIVE_POOLS: "weakref.WeakSet[Any]" = weakref.WeakSet()


class WorkerCrashError(RuntimeError):
    """A worker died without returning its job's result."""


def shutdown_processes(
    procs: Iterable[Any], join_timeout: float = _JOIN_TIMEOUT
) -> list[Any]:
    """Stop processes with escalation: join → terminate → kill.

    Each stage waits ``join_timeout`` seconds before escalating; the
    returned list holds processes that out-lived even ``kill()`` (on
    Linux effectively only unreapable zombies stuck in the kernel) —
    callers report them instead of silently leaking.
    """
    procs = list(procs)
    for proc in procs:
        proc.join(timeout=join_timeout)
    survivors = [p for p in procs if p.is_alive()]
    for proc in survivors:
        proc.terminate()
    for proc in survivors:
        proc.join(timeout=join_timeout)
    survivors = [p for p in survivors if p.is_alive()]
    for proc in survivors:
        proc.kill()
    for proc in survivors:
        proc.join(timeout=1.0)
    return [p for p in survivors if p.is_alive()]


def _report_zombies(zombies: list[Any]) -> list[int]:
    """Warn about workers that survived the full escalation ladder."""
    pids = [p.pid for p in zombies if p.pid is not None]
    if zombies:
        warnings.warn(
            f"{len(zombies)} worker(s) out-lived the shutdown "
            f"escalation (join -> terminate -> kill); pids {pids}",
            RuntimeWarning,
            stacklevel=3,
        )
    return pids


def _emergency_cleanup() -> None:
    """Close every live pool and unlink every live graph store.

    The atexit/SIGTERM backstop behind the Ctrl-C hygiene guarantees:
    an interpreter going down must not strand worker processes (their
    queues' feeder threads can deadlock exit) or ``/dev/shm``
    segments.  Idempotent — pools and stores de-register on close.
    """
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    from repro.parallel.shared_graph import unlink_all_stores

    unlink_all_stores()


atexit.register(_emergency_cleanup)


def install_signal_backstop(
    signals: Iterable[int] = (signal.SIGTERM,),
) -> None:
    """Chain pool/segment cleanup in front of fatal-signal handlers.

    A SIGTERM'd campaign (batch scheduler preemption, ``timeout(1)``)
    never runs ``atexit``; this installs a handler that closes live
    pools, unlinks live shared-memory stores, restores the previous
    handler, and re-raises the signal so the process still dies with
    the expected status.  Idempotent; entry-point CLIs install it.
    """
    for sig in signals:
        previous = signal.getsignal(sig)
        if getattr(previous, "_repro_backstop", False):
            continue

        def _handler(
            signum: int, frame: Any, _previous: Any = previous
        ) -> None:
            _emergency_cleanup()
            restore = (
                _previous
                if callable(_previous)
                or _previous in (signal.SIG_DFL, signal.SIG_IGN)
                else signal.SIG_DFL
            )
            signal.signal(signum, restore)
            signal.raise_signal(signum)

        setattr(_handler, "_repro_backstop", True)
        signal.signal(sig, _handler)


def cpu_count() -> int:
    """Usable CPU count (scheduler affinity when the OS exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_n_jobs(n_jobs: int | str | None, clamp: bool = True) -> int:
    """Resolve an ``n_jobs`` spec to a positive integer.

    ``None`` means 1 (serial); ``"auto"`` means the usable CPU count;
    a positive int is taken literally.  With ``clamp`` (the default —
    used for *pool widths*), explicit requests are clamped to the CPU
    count, since extra workers only add scheduling overhead.
    ``clamp=False`` returns the request verbatim — used for *shard
    counts*, which are machine-independent job shapes (they never
    affect results, which are bitwise-identical for any sharding, but
    keeping them deterministic keeps job logs comparable).
    """
    if n_jobs is None:
        return 1
    if isinstance(n_jobs, str):
        if n_jobs != "auto":
            raise ValueError(
                f"n_jobs must be a positive int, 'auto', or None; "
                f"got {n_jobs!r}"
            )
        return cpu_count()
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, int) or n_jobs < 1:
        raise ValueError(
            f"n_jobs must be a positive int, 'auto', or None; got {n_jobs!r}"
        )
    return min(int(n_jobs), cpu_count()) if clamp else int(n_jobs)


class WorkerPool:
    """A fixed-width pool of persistent worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes, taken verbatim (callers clamp via
        :func:`resolve_n_jobs`; tests deliberately oversubscribe).
    start_method:
        ``multiprocessing`` start method; default is ``"fork"`` where
        available (cheap, inherits imports) and ``"spawn"`` elsewhere.

    Use as a context manager, or call :meth:`close` in a ``finally`` —
    workers are daemonic, so even a crashed master cannot strand them,
    but an explicit close is what drains the queues deterministically.
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = mp.get_context(start_method)
        self._tasks: Any = ctx.Queue()
        self._results: Any = ctx.Queue()
        self._next_id = 0
        self._closed = False
        self._procs = [
            ctx.Process(
                target=worker_main,
                args=(self._tasks, self._results),
                daemon=True,
                name=f"{WORKER_NAME_PREFIX}{i}",
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        _LIVE_POOLS.add(self)

    @property
    def workers(self) -> int:
        """The pool width."""
        return len(self._procs)

    def submit(self, job: ShardJob) -> int:
        """Enqueue one job; returns its id (FIFO among idle workers)."""
        if self._closed:
            raise RuntimeError("cannot submit to a closed WorkerPool")
        job_id = self._next_id
        self._next_id += 1
        self._tasks.put((job_id, job))
        return job_id

    def collect(self, job_ids: Iterable[int]) -> dict[int, ShardResult]:
        """Await the given jobs; returns ``{job id: ShardResult}``.

        Raises
        ------
        WorkerCrashError
            If a worker process dies while results are outstanding (a
            job's execution can then never complete — surviving workers
            keep draining the task queue, but the in-flight job died
            with its worker).
        RuntimeError
            If a worker reports a Python-level exception; the worker
            itself survives and keeps serving (the traceback is
            embedded in the message).
        """
        pending = set(job_ids)
        out: dict[int, ShardResult] = {}
        while pending:
            try:
                job_id, status, value = self._results.get(
                    timeout=_POLL_INTERVAL
                )
            except queue_mod.Empty:
                dead = [
                    proc.exitcode
                    for proc in self._procs
                    if proc.exitcode not in (None, 0)
                ]
                if dead:
                    raise WorkerCrashError(
                        f"{len(dead)} worker(s) died (exit codes "
                        f"{sorted(set(dead))}) with {len(pending)} "
                        f"job(s) outstanding"
                    )
                continue
            if job_id not in pending:
                continue  # stale result from an abandoned batch
            pending.discard(job_id)
            if status == "error":
                raise RuntimeError(
                    f"worker job {job_id} raised:\n{value}"
                )
            out[job_id] = value
        return out

    def close(self) -> list[int]:
        """Stop the workers and release the queues (idempotent).

        Live workers get a stop sentinel and a grace period, then the
        full escalation ladder (join → terminate → kill).  Workers
        that survive even ``kill()`` are reported with a
        :class:`RuntimeWarning` and returned as a pid list instead of
        being silently left as zombies; a clean shutdown returns
        ``[]``.
        """
        if self._closed:
            return []
        self._closed = True
        _LIVE_POOLS.discard(self)
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue gone
                break
        zombies = _report_zombies(shutdown_processes(self._procs))
        for q in (self._tasks, self._results):
            q.close()
            # Unsent buffered items (e.g. after a crash) must not block
            # interpreter exit on the queue's feeder thread.
            q.cancel_join_thread()
        return zombies

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
