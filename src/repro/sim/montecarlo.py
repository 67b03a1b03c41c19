"""Monte-Carlo estimation of stabilization times.

Every w.h.p. theorem in the paper is validated empirically by repeated
independent trials.  :func:`estimate_stabilization_time` runs a process
factory over independent seeds and summarizes the stabilization-time
distribution; :func:`sweep_stabilization_times` maps that over a
parameter grid (the engine behind every n-sweep experiment).

Trials are independent, so by default (``batch="auto"``) they execute on
the vectorized batched engine family of :mod:`repro.core.batched`: the
factory's processes are built in seed order exactly as the serial loop
would build them, then all batchable ones (2-state, 3-state, 3-color
with the randomized switch, independently-scheduled — see the dispatch
table) advance together as one state matrix.  Per-trial results are
bitwise-identical to ``batch=None``; non-batchable processes (oracle
switches, single-vertex daemons, reference implementations, ...)
silently take the serial path.

Multi-core execution goes through :mod:`repro.parallel`:
``estimate_stabilization_time(n_jobs=...)`` shards each trial fleet
into per-worker replica ranges against shared-memory graph views
(statistics bitwise-identical to serial for any worker count), and
``sweep_stabilization_times`` evaluates grid points in order, sharding
each point's fleet through one supervised pool kept for the whole
sweep — the factory never crosses a process boundary, so lambdas and
closures parallelize like everything else.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
from scipy import stats as scipy_stats

from repro.sim.checkpoint import CheckpointJournal, CheckpointView
from repro.sim.rng import COIN_STREAM, spawn_seeds
from repro.sim.runner import (
    AUTO_BATCH_CHUNK,
    run_many_until_stable,
    run_until_stable,
    validate_batch,
)

if TYPE_CHECKING:
    from repro.parallel.supervisor import SupervisedPool


@dataclass
class TrialStats:
    """Summary of a stabilization-time sample.

    ``times`` holds the stabilization rounds of the trials that
    stabilized; ``failures`` counts trials that exhausted the budget
    (these are *not* included in the quantile statistics — check
    ``success_rate`` before interpreting them).
    """

    times: np.ndarray
    failures: int
    max_rounds: int

    @property
    def trials(self) -> int:
        """Total number of trials (successes + failures)."""
        return len(self.times) + self.failures

    @property
    def success_rate(self) -> float:
        """Fraction of trials that stabilized within the budget."""
        if self.trials == 0:
            return 0.0
        return len(self.times) / self.trials

    @property
    def mean(self) -> float:
        """Mean stabilization time of successful trials."""
        return float(np.mean(self.times)) if len(self.times) else float("nan")

    @property
    def std(self) -> float:
        """Sample standard deviation of successful trials."""
        if len(self.times) < 2:
            return 0.0
        return float(np.std(self.times, ddof=1))

    @property
    def median(self) -> float:
        """Median stabilization time."""
        return (
            float(np.median(self.times)) if len(self.times) else float("nan")
        )

    @property
    def max(self) -> int:
        """Worst stabilization time observed."""
        return int(self.times.max()) if len(self.times) else -1

    @property
    def min(self) -> int:
        """Best stabilization time observed."""
        return int(self.times.min()) if len(self.times) else -1

    def quantile(self, q: float) -> float:
        """Empirical quantile of the stabilization time."""
        if not len(self.times):
            return float("nan")
        return float(np.quantile(self.times, q))

    def mean_ci(self, confidence: float = 0.95) -> tuple[float, float]:
        """Student-t confidence interval for the mean."""
        k = len(self.times)
        if k < 2:
            return (self.mean, self.mean)
        sem = self.std / np.sqrt(k)
        half = sem * scipy_stats.t.ppf(0.5 + confidence / 2.0, df=k - 1)
        return (self.mean - half, self.mean + half)

    def summary(self) -> str:
        """One-line human-readable summary."""
        if not len(self.times):
            return f"0/{self.trials} trials stabilized (budget {self.max_rounds})"
        lo, hi = self.mean_ci()
        return (
            f"mean={self.mean:.1f} [{lo:.1f}, {hi:.1f}]  "
            f"median={self.median:.0f}  p90={self.quantile(0.9):.0f}  "
            f"max={self.max}  success={self.success_rate:.0%} "
            f"({self.trials} trials)"
        )


def _stats_to_json(stats: TrialStats) -> dict:
    """Serialize a TrialStats for the checkpoint journal."""
    return {
        "times": stats.times.tolist(),
        "failures": stats.failures,
        "max_rounds": stats.max_rounds,
    }


def _stats_from_json(obj: Mapping) -> TrialStats:
    """Rebuild a journaled TrialStats."""
    return TrialStats(
        times=np.asarray(obj["times"], dtype=np.int64),
        failures=int(obj["failures"]),
        max_rounds=int(obj["max_rounds"]),
    )


def _open_checkpoint(
    checkpoint: "str | Path | CheckpointJournal | CheckpointView | None",
    fingerprint: Mapping[str, Any],
    resume: bool,
) -> tuple["CheckpointJournal | CheckpointView | None", bool]:
    """Resolve a ``checkpoint=`` argument to a journal (or view).

    A path is opened here — fingerprint-verified against the campaign
    when resuming — and the ``True`` second element tells the caller it
    owns the close.  An already-open journal or scoped view passes
    through untouched and unverified: its opener did the verification
    (this is how a sweep hands each grid point a ``p{i}:`` view whose
    enclosing fingerprint is the *sweep's*, not the point's).  The coin
    stream's identity is part of every fingerprint, so a journal of
    results drawn from another stream is refused.
    """
    fingerprint = {**fingerprint, "coins": COIN_STREAM}
    if checkpoint is None:
        from repro.sim.checkpoint import open_default_journal

        journal = open_default_journal(fingerprint)
        return journal, journal is not None
    if isinstance(checkpoint, (str, Path)):
        return (
            CheckpointJournal(checkpoint, fingerprint, resume=resume),
            True,
        )
    return checkpoint, False


def estimate_stabilization_time(
    process_factory: Callable[[int], object],
    trials: int,
    max_rounds: int,
    seed: int | None = 0,
    batch: str | int | None = "auto",
    n_jobs: int | str | None = None,
    pool: "SupervisedPool | None" = None,
    checkpoint: "str | Path | CheckpointJournal | CheckpointView | None" = (
        None
    ),
    resume: bool = True,
) -> TrialStats:
    """Run independent trials and collect stabilization times.

    Parameters
    ----------
    process_factory:
        Called as ``process_factory(trial_seed)``; must return a fresh
        process.  The factory owns graph construction, so resampling the
        graph per trial (as G(n,p) experiments require) or fixing it is
        the caller's choice.  Factories must not share mutable random
        state *across* calls (each call derives everything from its
        ``trial_seed``) — all in-repo factories satisfy this, and it is
        what makes the batched fast path trial-for-trial identical to
        the serial loop.
    trials:
        Number of independent trials.
    max_rounds:
        Per-trial round budget.
    seed:
        Master seed; per-trial seeds are spawned from it.
    batch:
        Trial-execution strategy: ``"auto"`` (default) simulates up to
        :data:`AUTO_BATCH_CHUNK` trials at a time on the batched engine,
        an ``int`` sets that chunk size explicitly, and ``None`` forces
        the serial trial loop.  All three produce identical statistics.
        Factories producing non-batchable processes (oracle-switch
        3-color, single-vertex daemons, reference implementations, ...)
        are detected from the first trial and routed to the serial loop
        without up-front chunk construction; batchable families (see
        :mod:`repro.core.batched`) ride their engine automatically.
    n_jobs, pool:
        Multi-core fleet sharding, forwarded to
        :func:`~repro.sim.runner.run_many_until_stable`: the whole
        trial fleet is built up front (the in-process chunked path
        instead bounds live state at one ``batch`` chunk) and its
        replicas are sharded across persistent workers.  Statistics
        are bitwise-identical for any worker count.  Factories that
        produce non-batchable processes ignore ``n_jobs`` and stay on
        the in-process serial loop.
    checkpoint, resume:
        Campaign checkpointing (see :mod:`repro.sim.checkpoint`): a
        journal path — opened here, fingerprint-verified when
        ``resume=True`` (the default), truncated otherwise — or an
        already-open journal/scoped view.  Completed units of work
        (fleet shards, in-process chunks, serial trials, and the final
        summary) are persisted atomically as they finish, and a
        resumed campaign skips them, producing statistics
        bitwise-identical to an uninterrupted run.  The fingerprint
        covers the campaign *shape* (trials, budget, seed, batching);
        the factory itself cannot be fingerprinted — resume with the
        factory you started with.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    validate_batch(batch)
    journal, own_journal = _open_checkpoint(
        checkpoint,
        {
            "kind": "estimate",
            "trials": trials,
            "max_rounds": max_rounds,
            "seed": seed,
            "batch": batch,
        },
        resume,
    )
    try:
        return _estimate_journaled(
            process_factory,
            trials,
            max_rounds,
            seed,
            batch,
            n_jobs,
            pool,
            journal,
        )
    finally:
        if own_journal and journal is not None:
            journal.close()  # type: ignore[union-attr]


def _estimate_journaled(
    process_factory: Callable[[int], object],
    trials: int,
    max_rounds: int,
    seed: int | None,
    batch: str | int | None,
    n_jobs: int | str | None,
    pool: "SupervisedPool | None",
    journal: "CheckpointJournal | CheckpointView | None",
) -> TrialStats:
    """The estimate body, with an optional journal threaded through."""
    from repro.core.batched import batchable

    if journal is not None:
        cached = journal.get("stats")
        if cached is not None:
            return _stats_from_json(cached)
    seeds = spawn_seeds(seed, trials)
    times = []
    failures = 0

    def record(results) -> None:
        nonlocal failures
        for result in results:
            if result.stabilized:
                times.append(result.stabilization_round)
            else:
                failures += 1

    def record_raw(pairs) -> None:
        nonlocal failures
        for stabilized, stabilization_round in pairs:
            if stabilized:
                times.append(stabilization_round)
            else:
                failures += 1

    probe = None
    if batch is not None:
        probe = process_factory(seeds[0])
        if not batchable(probe):
            batch = None  # the batched engine cannot help this factory

    use_fleet = False
    if batch is not None and trials >= 2:
        from repro.parallel.fleet import fleet_shards

        use_fleet = fleet_shards(n_jobs, pool) >= 2
    if use_fleet:
        processes = [probe] + [process_factory(s) for s in seeds[1:]]
        record(
            run_many_until_stable(
                processes,
                max_rounds=max_rounds,
                batch=batch,
                n_jobs=n_jobs,
                pool=pool,
                journal=journal,
            )
        )
    elif batch is None:
        for i, trial_seed in enumerate(seeds):
            key = f"trial:{i}"
            if journal is not None:
                cached_trial = journal.get(key)
                if cached_trial is not None:
                    record_raw([cached_trial])
                    continue
            process = probe if i == 0 and probe is not None else (
                process_factory(trial_seed)
            )
            result = run_until_stable(process, max_rounds=max_rounds)
            if journal is not None:
                journal.put(
                    key, [result.stabilized, result.stabilization_round]
                )
            record([result])
    else:
        chunk_size = AUTO_BATCH_CHUNK if batch == "auto" else int(batch)
        for lo in range(0, trials, chunk_size):
            key = f"chunk:{lo}"
            if journal is not None:
                cached_chunk = journal.get(key)
                if cached_chunk is not None:
                    record_raw(cached_chunk)
                    continue
            chunk_seeds = seeds[lo:lo + chunk_size]
            if lo == 0:
                processes = [probe] + [
                    process_factory(s) for s in chunk_seeds[1:]
                ]
            else:
                processes = [process_factory(s) for s in chunk_seeds]
            chunk_results = run_many_until_stable(
                processes,
                max_rounds=max_rounds,
                batch=batch,
            )
            if journal is not None:
                journal.put(
                    key,
                    [
                        [r.stabilized, r.stabilization_round]
                        for r in chunk_results
                    ],
                )
            record(chunk_results)
    stats = TrialStats(
        times=np.array(times, dtype=np.int64),
        failures=failures,
        max_rounds=max_rounds,
    )
    if journal is not None:
        journal.put("stats", _stats_to_json(stats))
    return stats


class SweepResult(Mapping):
    """Grid-aligned results of :func:`sweep_stabilization_times`.

    Behaves like the mapping ``{grid point: TrialStats}`` (``keys`` /
    ``values`` / ``items`` / ``[]`` over the *distinct* points, in grid
    order), while :attr:`entries` preserves one ``(point, TrialStats)``
    pair per grid entry even when points repeat — the plain-``dict``
    return of earlier versions silently collapsed duplicates, dropping
    whole trial campaigns.  With duplicate points, mapping lookups
    return the first occurrence's stats and a :class:`UserWarning` is
    emitted at construction.
    """

    def __init__(self, points: list, stats: list) -> None:
        #: One ``(point, TrialStats)`` pair per grid entry, in grid order.
        self.entries: list[tuple] = list(zip(points, stats))
        self._map: dict = {}
        duplicates = []
        for point, point_stats in self.entries:
            if point in self._map:
                duplicates.append(point)
            else:
                self._map[point] = point_stats
        if duplicates:
            # stacklevel 3: __init__ → sweep_stabilization_times (the
            # only in-repo constructor) → the user's sweep call.
            warnings.warn(
                f"duplicate grid points {sorted(set(duplicates))!r}: "
                "mapping lookups return the first occurrence; iterate "
                ".entries for the full per-grid-entry results",
                UserWarning,
                stacklevel=3,
            )

    def stats_for(self, point) -> list:
        """All :class:`TrialStats` recorded for ``point``, in grid order."""
        return [s for p, s in self.entries if p == point]

    def __getitem__(self, point):
        return self._map[point]

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return f"SweepResult({self.entries!r})"


def sweep_stabilization_times(
    make_factory: Callable[[object], Callable[[int], object]],
    grid: list,
    trials: int,
    max_rounds: int | Callable[[object], int],
    seed: int | None = 0,
    batch: str | int | None = "auto",
    n_jobs: int | str | None = None,
    checkpoint: "str | Path | CheckpointJournal | CheckpointView | None" = (
        None
    ),
    resume: bool = True,
) -> SweepResult:
    """Estimate stabilization times over a parameter grid.

    Parameters
    ----------
    make_factory:
        Maps a grid point to a ``process_factory(trial_seed)``.
    grid:
        Parameter values (e.g. a list of n).  Repeated points are
        evaluated independently (each grid entry gets its own derived
        seed) and all results are preserved in the returned
        :attr:`SweepResult.entries`; a warning flags the ambiguity of
        mapping-style lookups.
    trials, seed:
        Passed to :func:`estimate_stabilization_time` (the seed is
        re-derived per grid point for independence).
    max_rounds:
        Either a constant budget or a callable of the grid point.
    batch:
        Per-point trial execution strategy (see
        :func:`estimate_stabilization_time`).
    n_jobs:
        Multi-core width (``"auto"`` = every usable core).  ``None``
        defers to the process-wide default of
        :mod:`repro.parallel.config`; ``1`` (or a resolved 1) runs
        fully in-process.  With ``n_jobs >= 2`` grid points are still
        evaluated in order, each point's *trial fleet* sharded across
        one supervised pool reused for the whole sweep —
        ``make_factory`` never crosses a process boundary, so lambdas
        and closures parallelize.  Results are identical in every
        mode.
    checkpoint, resume:
        Campaign checkpointing (see :mod:`repro.sim.checkpoint`): a
        journal path or open journal.  Each finished grid point is
        persisted under ``point:{i}`` the moment it completes, and
        each point additionally journals its own shards/chunks under a
        ``p{i}:`` scope — so an interrupted sweep resumes mid-point,
        not merely mid-grid, and produces a bitwise-identical
        :class:`SweepResult`.

    Returns
    -------
    SweepResult — a mapping from grid point to :class:`TrialStats`,
    with ``.entries`` carrying one result per grid entry.
    """
    from repro.parallel.fleet import fleet_shards
    from repro.parallel.supervisor import supervised_pool_for

    point_seeds = spawn_seeds(seed, len(grid))
    budgets = [
        max_rounds(point) if callable(max_rounds) else max_rounds
        for point in grid
    ]
    journal, own_journal = _open_checkpoint(
        checkpoint,
        {
            "kind": "sweep",
            "grid": [repr(point) for point in grid],
            "trials": trials,
            "budgets": budgets,
            "seed": seed,
            "batch": batch,
        },
        resume,
    )
    pool: SupervisedPool | None = None
    try:
        stats: list[TrialStats | None] = [None] * len(grid)
        if journal is not None:
            for i in range(len(grid)):
                cached = journal.get(f"point:{i}")
                if cached is not None:
                    stats[i] = _stats_from_json(cached)
        todo = [i for i, done in enumerate(stats) if done is None]
        shards = fleet_shards(n_jobs, None)
        if todo and shards >= 2:
            # One pool serves every point: each point's trial fleet is
            # sharded through it, so factories stay on this side.
            pool = supervised_pool_for(shards, shards)
        for i in todo:
            point_stats = estimate_stabilization_time(
                make_factory(grid[i]),
                trials=trials,
                max_rounds=budgets[i],
                seed=point_seeds[i],
                batch=batch,
                n_jobs=shards,
                pool=pool,
                checkpoint=(
                    journal.scoped(f"p{i}:") if journal is not None else None
                ),
            )
            if journal is not None:
                journal.put(f"point:{i}", _stats_to_json(point_stats))
            stats[i] = point_stats
    finally:
        if pool is not None:
            pool.close()
        if own_journal and journal is not None:
            journal.close()  # type: ignore[union-attr]
    return SweepResult(list(grid), stats)
