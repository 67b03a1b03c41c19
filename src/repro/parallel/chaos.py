"""Deterministic fault injection for the worker fleet.

The paper's subject is recovery from adversarial corruption; this
module is the adversary for our own execution substrate.  A
:class:`ChaosPolicy` rides into every worker (it is part of the worker
spawn arguments, see :func:`~repro.parallel.worker.worker_main`) and
decides, per ``(shard, attempt)``, whether the worker should die
before reporting, hang past its deadline, start slow, or return a
poisoned result — each decision a pure function of the policy's seed,
so every recovery path of the :class:`~repro.parallel.supervisor.
SupervisedPool` is reproducibly testable: the same seed produces the
same kills in the same places on every run, on every machine, under
both ``fork`` and ``spawn``.

Two modes:

* **Scripted** (``plan={...}``): an explicit ``{(shard, attempt):
  fault}`` table.  The unit tests' mode — "kill attempt 0 of shard
  (0, 64), hang attempt 0 of shard (64, 128)" pins one recovery path
  each.
* **Seeded** (``seed=`` + per-fault rates): each ``(shard, attempt)``
  draws once from ``random.Random(f"{seed}:{shard}:{attempt}")`` —
  the stdlib seeds strings via SHA-512, so the draw is stable across
  processes and hash randomization.  ``max_faulty_attempts`` bounds
  how many attempts of one shard may fault (default 1), guaranteeing
  a retrying supervisor always converges.

Fault semantics (implemented in ``worker_main``):

========  ==========================================================
fault     worker behavior
========  ==========================================================
"kill"    ``os._exit(CHAOS_KILL_EXIT)`` before touching the job
"hang"    sleep ``hang_seconds`` before running (deadline territory)
"slow"    sleep ``slow_seconds`` before running (benign straggler)
"poison"  report ``ShardResult(indices, POISON_PAYLOAD)`` instead of
          running — unpicklable garbage the master must quarantine
========  ==========================================================

Chaos only perturbs *scheduling and transport*, never simulation
state: a faulted shard is re-dispatched from its original payload (or
degraded to an in-process run), and every replica owns an independent
coin stream, so campaign results under chaos are bitwise-identical to
the fault-free serial run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

#: Exit code of a chaos-killed worker — recognizable in supervisor
#: event logs and ``ShardFailedError`` messages.
CHAOS_KILL_EXIT = 86

#: The poisoned-result payload: deliberately not a valid pickle, so any
#: master that fails to validate before unpickling fails loudly.
POISON_PAYLOAD = b"\x80repro-chaos-poison"

#: The recognized fault kinds, in seeded-draw precedence order.
FAULT_KINDS = ("kill", "hang", "poison", "slow")

#: A shard identity as the chaos policy keys it: the replica range.
ShardKey = tuple[int, int]


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded or scripted per-``(shard, attempt)`` fault injection.

    Parameters
    ----------
    seed:
        Master seed of the seeded mode (also recorded in
        :class:`~repro.parallel.retry.ShardFailedError` for replay).
    kill, hang, poison, slow:
        Per-attempt fault probabilities (seeded mode).  At most one
        fault fires per attempt; draws use cumulative thresholds in
        :data:`FAULT_KINDS` order.
    max_faulty_attempts:
        In seeded mode, attempts ``>= max_faulty_attempts`` of any
        shard never fault (default 1: only first attempts are at
        risk), so bounded retries always converge.  ``None`` removes
        the bound — retry exhaustion becomes reachable.
    hang_seconds, slow_seconds:
        Sleep lengths of the ``"hang"`` / ``"slow"`` faults.
    plan:
        Scripted mode: explicit ``{(shard, attempt): fault}``; when
        given, the rates are ignored and anything absent from the
        table runs clean.
    """

    seed: int = 0
    kill: float = 0.0
    hang: float = 0.0
    poison: float = 0.0
    slow: float = 0.0
    max_faulty_attempts: int | None = 1
    hang_seconds: float = 30.0
    slow_seconds: float = 0.05
    plan: Mapping[tuple[ShardKey, int], str] | None = field(default=None)

    def __post_init__(self) -> None:
        rates = (self.kill, self.hang, self.poison, self.slow)
        if any(r < 0 for r in rates) or sum(rates) > 1.0 + 1e-9:
            raise ValueError(
                "fault rates must be >= 0 and sum to at most 1; got "
                f"kill={self.kill} hang={self.hang} "
                f"poison={self.poison} slow={self.slow}"
            )
        if self.plan is not None:
            for (key, attempt), fault in self.plan.items():
                if fault not in FAULT_KINDS:
                    raise ValueError(
                        f"unknown fault {fault!r} for {key} attempt "
                        f"{attempt}; expected one of {FAULT_KINDS}"
                    )

    @classmethod
    def scripted(
        cls,
        plan: Mapping[tuple[ShardKey, int], str],
        *,
        hang_seconds: float = 30.0,
        slow_seconds: float = 0.05,
        seed: int = 0,
    ) -> "ChaosPolicy":
        """Build an explicit-plan policy (the unit tests' mode)."""
        return cls(
            seed=seed,
            plan=dict(plan),
            hang_seconds=hang_seconds,
            slow_seconds=slow_seconds,
        )

    def fault_for(self, key: ShardKey, attempt: int) -> str | None:
        """The fault to inject for ``attempt`` of shard ``key``, if any.

        A pure function of ``(self, key, attempt)``: the same policy
        answers identically in the master, in any worker, and on any
        rerun — the chaos harness's determinism contract.
        """
        if self.plan is not None:
            return self.plan.get((tuple(key), attempt))
        if (
            self.max_faulty_attempts is not None
            and attempt >= self.max_faulty_attempts
        ):
            return None
        # String seeding hashes via SHA-512: stable across processes,
        # platforms, and PYTHONHASHSEED — unlike hash(tuple).
        draw = random.Random(f"{self.seed}:{key!r}:{attempt}").random()
        threshold = 0.0
        for kind in FAULT_KINDS:
            threshold += getattr(self, kind)
            if draw < threshold:
                return kind
        return None


@dataclass(frozen=True)
class WaveChaosPolicy(ChaosPolicy):
    """Scripted faults keyed by how often a worker has run a shard.

    ``plan`` maps ``(shard, wave)`` to a fault, where ``wave`` counts
    the jobs of that shard this worker incarnation was handed, from 0.
    On a persistent pool whose shards stay with their workers, wave
    ``w`` is the ``w``-th call of a campaign, so ``{(shard, 2):
    "kill"}`` kills the worker that holds the shard resident in the
    third call.  A respawned worker starts counting afresh from the
    policy the pool spawned it with (the master never consults it).
    """

    seen: dict[ShardKey, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def fault_for(self, key: ShardKey, attempt: int) -> str | None:
        key = tuple(key)
        wave = self.seen.get(key, 0)
        self.seen[key] = wave + 1
        return (self.plan or {}).get((key, wave))


@dataclass(frozen=True)
class ServiceChaosPolicy:
    """Churn-aware fault injection for :class:`repro.dynamic.service.MISService`.

    The service analogue of :class:`ChaosPolicy`, keyed by
    ``(stream_offset, attempt)`` instead of ``(shard, attempt)``: the
    *offset* is the mutation-stream position the service is about to
    consume, and the *attempt* counts how many times this offset has
    been reached across kill/resume cycles.  Faults fire *before* the
    event is applied — events are atomic — so a killed service resumes
    from its checkpoint and replays the offset bitwise-identically.

    Fault semantics (implemented in ``MISService.run``):

    ========  ========================================================
    fault     service behavior
    ========  ========================================================
    "kill"    close the journal and raise ``ServiceKilledError``
    "poison"  tear the journal tail (a torn, newline-less fragment —
              see ``CheckpointJournal.tear_tail``), then die as "kill"
    "hang"    sleep ``hang_seconds`` before the event (liveness blip)
    "slow"    sleep ``slow_seconds`` before the event
    ========  ========================================================

    ``max_faulty_attempts`` (default 1) bounds faults per offset, so a
    restarting driver (:func:`repro.dynamic.service.run_with_chaos`)
    always terminates.
    """

    seed: int = 0
    kill: float = 0.0
    hang: float = 0.0
    poison: float = 0.0
    slow: float = 0.0
    max_faulty_attempts: int | None = 1
    hang_seconds: float = 0.05
    slow_seconds: float = 0.01
    plan: Mapping[tuple[int, int], str] | None = field(default=None)

    def __post_init__(self) -> None:
        rates = (self.kill, self.hang, self.poison, self.slow)
        if any(r < 0 for r in rates) or sum(rates) > 1.0 + 1e-9:
            raise ValueError(
                "fault rates must be >= 0 and sum to at most 1; got "
                f"kill={self.kill} hang={self.hang} "
                f"poison={self.poison} slow={self.slow}"
            )
        if self.plan is not None:
            for (offset, attempt), fault in self.plan.items():
                if fault not in FAULT_KINDS:
                    raise ValueError(
                        f"unknown fault {fault!r} for offset {offset} "
                        f"attempt {attempt}; expected one of {FAULT_KINDS}"
                    )

    @classmethod
    def scripted(
        cls,
        plan: Mapping[tuple[int, int], str],
        *,
        hang_seconds: float = 0.05,
        slow_seconds: float = 0.01,
        seed: int = 0,
    ) -> "ServiceChaosPolicy":
        """Build an explicit ``{(offset, attempt): fault}`` policy."""
        return cls(
            seed=seed,
            plan=dict(plan),
            hang_seconds=hang_seconds,
            slow_seconds=slow_seconds,
        )

    def fault_for(self, offset: int, attempt: int) -> str | None:
        """The fault to inject at ``(stream offset, attempt)``, if any.

        A pure function of ``(self, offset, attempt)`` — same SHA-512
        string-seeding discipline as :meth:`ChaosPolicy.fault_for`, on
        a disjoint key namespace (``"svc"``), so a shared seed never
        correlates worker faults with service faults.
        """
        if self.plan is not None:
            return self.plan.get((int(offset), int(attempt)))
        if (
            self.max_faulty_attempts is not None
            and attempt >= self.max_faulty_attempts
        ):
            return None
        draw = random.Random(f"{self.seed}:svc:{offset}:{attempt}").random()
        threshold = 0.0
        for kind in FAULT_KINDS:
            threshold += getattr(self, kind)
            if draw < threshold:
                return kind
        return None
