"""Retry policy and terminal failure for supervised shard dispatch.

A shard that dies with its worker (or comes back poisoned) is
re-dispatched by the :class:`~repro.parallel.supervisor.SupervisedPool`
from its *original* job payload — every replica owns an independent
coin stream, so a re-run reproduces the lost attempt bit for bit and
retrying is always semantically safe.  What must be bounded is only
*wall clock*: :class:`RetryPolicy` caps the attempt count and spaces
attempts with deterministic exponential backoff (no jitter — a seeded
campaign schedules its retries identically on every run).

When the cap is exhausted the supervisor raises
:class:`ShardFailedError`, which carries the witness shard range, the
attempt count, and the active chaos seed (if any) so a failing seeded
chaos run can be replayed exactly.  It subclasses
:class:`~repro.parallel.pool.WorkerCrashError`: callers that handled
the PR 8 fatal crash keep working, they just see it only after the
retry budget is spent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.pool import WorkerCrashError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-dispatch with deterministic exponential backoff.

    Attempt ``k`` (0-based) that fails is re-dispatched after
    ``min(backoff_base * backoff_factor**k, backoff_max)`` seconds, up
    to ``max_retries`` re-dispatches (so a shard is attempted at most
    ``max_retries + 1`` times).  ``max_retries=0`` fails fast: the
    first crash raises :class:`ShardFailedError`.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching after failed ``attempt``."""
        return min(
            self.backoff_base * self.backoff_factor ** max(attempt, 0),
            self.backoff_max,
        )


class ShardFailedError(WorkerCrashError):
    """A shard exhausted its retry budget.

    Attributes
    ----------
    indices:
        The witness shard's replica range ``(lo, hi)``.
    attempts:
        How many times the shard was attempted (including the first).
    chaos_seed:
        Seed of the active :class:`~repro.parallel.chaos.ChaosPolicy`,
        or ``None`` when no chaos was injected — enough to replay a
        failing seeded chaos campaign exactly.
    reason:
        Human-readable description of the final attempt's failure.
    """

    def __init__(
        self,
        indices: tuple[int, int],
        attempts: int,
        reason: str,
        chaos_seed: int | None = None,
    ) -> None:
        self.indices = indices
        self.attempts = attempts
        self.reason = reason
        self.chaos_seed = chaos_seed
        chaos = (
            f" [chaos seed {chaos_seed}]" if chaos_seed is not None else ""
        )
        super().__init__(
            f"shard {indices} failed after {attempts} attempt(s): "
            f"{reason}{chaos}"
        )
