"""Worker lifecycle machinery shared by the supervised pool.

The pool itself is :class:`~repro.parallel.supervisor.SupervisedPool`;
this module holds what any owner of worker processes needs:

* :func:`shutdown_processes` — the join → terminate → kill escalation,
  with zombie reporting;
* ``_LIVE_POOLS`` plus the atexit/SIGTERM backstop
  (:func:`install_signal_backstop`), which close pools and unlink
  shared-memory stores whose owner never reached its ``finally``;
* :class:`WorkerCrashError`, the base of
  :class:`~repro.parallel.retry.ShardFailedError`;
* :func:`cpu_count` and :func:`resolve_n_jobs`, the single
  interpretation point for the ``n_jobs`` knob that
  :func:`~repro.sim.runner.run_many_until_stable` and the Monte-Carlo
  layer expose.
"""

from __future__ import annotations

import atexit
import os
import signal
import warnings
import weakref
from typing import Any, Iterable

#: Seconds between liveness checks while awaiting results.
_POLL_INTERVAL = 0.1
#: Seconds to wait for a worker to honor its stop sentinel.
_JOIN_TIMEOUT = 5.0

#: Prefix of every worker process name — filterable in ``ps`` output
#: and ``multiprocessing.active_children()`` (the interrupt-hygiene
#: regression tests rely on it).
WORKER_NAME_PREFIX = "repro-worker-"

#: Every open pool registers here so the atexit/SIGTERM backstop can
#: close stragglers — the Ctrl-C hygiene contract: no teardown path may
#: strand workers or queues, even when the owner never reaches its
#: ``finally``.
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
