"""Process-wide default parallelism.

A tiny settings shim so entry points (the experiments CLI's ``--jobs``
flag, scripts) can install a default ``n_jobs`` that every fleet
dispatch picks up — fault campaigns and experiments ride
:func:`~repro.sim.runner.run_many_until_stable`, so one installed
default parallelizes them all without threading a parameter through
every call site.  Explicit ``n_jobs=`` arguments always win; worker
processes never consult the default (they pin ``n_jobs=1``), so a
forked worker cannot recurse into a pool of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_default_n_jobs: int | str | None = None


def get_default_n_jobs() -> int | str | None:
    """The installed process-wide default (``None`` = serial)."""
    return _default_n_jobs


def set_default_n_jobs(n_jobs: int | str | None) -> None:
    """Install a process-wide default ``n_jobs`` spec.

    Accepts what :func:`~repro.parallel.pool.resolve_n_jobs` accepts
    (validated eagerly); ``None`` restores serial execution.
    """
    global _default_n_jobs
    if n_jobs is not None:
        from repro.parallel.pool import resolve_n_jobs

        resolve_n_jobs(n_jobs)
    _default_n_jobs = n_jobs


@contextmanager
def default_n_jobs(n_jobs: int | str | None) -> Iterator[None]:
    """Scoped :func:`set_default_n_jobs` (restores the previous value)."""
    previous = get_default_n_jobs()
    set_default_n_jobs(n_jobs)
    try:
        yield
    finally:
        set_default_n_jobs(previous)
