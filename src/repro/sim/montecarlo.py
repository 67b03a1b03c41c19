"""Monte-Carlo estimation of stabilization times.

Every w.h.p. theorem in the paper is validated empirically by repeated
independent trials.  :func:`estimate_stabilization_time` runs a process
factory over independent seeds and summarizes the stabilization-time
distribution.  Experiments that sweep n or p call it once per grid
point, in a plain loop.

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
(statistics bitwise-identical to serial for any worker count).  The
factory never crosses a process boundary, so lambdas and closures
parallelize like everything else.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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
    through untouched and unverified: its opener did the verification.
    The coin stream's identity is part of every fingerprint, so a
    journal of results drawn from another stream is refused.
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
    n_jobs:
        Multi-core fleet sharding, forwarded to
        :func:`~repro.sim.runner.run_many_until_stable`: the whole
        trial fleet is built up front (the in-process chunked path
        instead bounds live state at one ``batch`` chunk) and its
        replicas are sharded across a supervised pool that lives for
        this call.  Statistics are bitwise-identical for any worker
        count.  Factories that produce non-batchable processes ignore
        ``n_jobs`` and stay on the in-process serial loop.
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

        use_fleet = fleet_shards(n_jobs, None) >= 2
    if use_fleet:
        processes = [probe] + [process_factory(s) for s in seeds[1:]]
        record(
            run_many_until_stable(
                processes,
                max_rounds=max_rounds,
                batch=batch,
                n_jobs=n_jobs,
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
