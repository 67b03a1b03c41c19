"""MISService: a long-running self-stabilizing MIS daemon under churn.

The daemon owns a :class:`~repro.dynamic.overlay.DeltaOverlay`, a
2-/3-state process running on the overlay's
:class:`~repro.dynamic.overlay.DeltaNeighborOps`, and a deterministic
mutation stream (:mod:`repro.dynamic.mutations`).  Per stream offset it

1. applies the mutation to the overlay (atomically),
2. repairs the frontier aggregates in place from only the touched
   endpoints (:meth:`repro.core.frontier.FrontierAggregates.apply_topology_delta`),
   falling back to a rebuild when the delta breaks the
   monotone-coverage invariant or the aggregates are stale,
3. compacts the overlay into a fresh base CSR when the delta log
   outgrows it (representation-only; trajectories are unaffected),
4. runs recovery rounds until the MIS re-stabilizes (every
   ``settle_every`` events, capped at ``max_recovery_rounds``),
5. serves MIS-membership / is-stable queries between rounds, and
6. emits one :class:`ChurnRecord` of recovery instrumentation.

Checkpoint/resume
-----------------

With ``checkpoint=`` the service journals through
:mod:`repro.sim.checkpoint`: every record under ``rec:{offset}``, and
every ``checkpoint_every`` events a full state snapshot — the
bit-packed state vector (:func:`~repro.core.states.pack_state`: one
bit per vertex for 2-state, two bit-planes for 3-state), the coin
stream's ``(key, draw)`` state, and the round counter.  Records and
the snapshot's metadata are written unsynced; the snapshot's
``blob:{offset}`` is the one synced put, so a single fsync per
snapshot commits the whole group.  Nothing is lost by this: resume
needs only the last snapshot — any state is a valid start for a
self-stabilizing process — and re-runs every later event, so whatever a crash tears, drops or zero-fills past the last
fsync is disposable (the journal keeps the longest decodable prefix).
Because the mutation stream is a pure function of
``(seed, offset, topology)``, resume replays mutations ``0..k`` onto a
fresh overlay (compacting at the same offsets — the criterion depends
only on topology history), restores the state vector *without drawing
init coins*, and rebuilds the :class:`~repro.sim.rng.SeededCoins` at the
saved ``(key, draw)`` — so a killed-and-resumed service
produces the *bitwise-identical* trajectory of an uninterrupted run,
whatever the checkpoint cadence.  ``tests/test_dynamic_service.py``
and ``python -m repro.parallel --chaos-smoke`` pin this.

Dead slots: a removed vertex parks as an isolated, still-coin-drawing
singleton (the fixed-width ``bits(n)`` discipline of §2.1 survives
churn); queries filter on the overlay's ``alive`` mask.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.states import BLACK1, WHITE, pack_state, unpack_state
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.dynamic.mutations import MutationEvent, MutationStream
from repro.dynamic.overlay import (
    DEFAULT_COMPACT_FRACTION,
    DeltaNeighborOps,
    DeltaOverlay,
)
from repro.graphs.graph import Graph
from repro.sim.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    CheckpointView,
)
from repro.sim.rng import COIN_STREAM, SeededCoins

#: Process families the service can host.
PROCESSES = ("2-state", "3-state")


class ServiceKilledError(RuntimeError):
    """The chaos policy killed the service mid-stream (resumable)."""

    def __init__(self, offset: int) -> None:
        super().__init__(f"chaos-killed at stream offset {offset}")
        self.offset = int(offset)


@dataclass
class ChurnRecord:
    """Per-event recovery instrumentation (one per stream offset).

    The service's supervision-event analogue: ``action`` is the
    frontier's repair-vs-rebuild decision (``"noop"`` for events that
    changed nothing), ``rounds`` the recovery rounds run after the
    event, ``stabilized`` whether the MIS re-stabilized within the
    budget, and ``round_end`` the process round counter afterwards.
    """

    offset: int
    kind: str
    added: int
    removed: int
    action: str
    compacted: bool
    rounds: int
    stabilized: bool
    round_end: int

    def to_dict(self) -> dict[str, Any]:
        # Every field is a scalar: a shallow dict equals ``asdict`` and
        # skips its recursive deep copy (one record per event).
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ChurnRecord":
        return cls(**dict(d))


class MISService:
    """A self-stabilizing MIS maintained live under topology churn.

    Parameters
    ----------
    graph:
        The initial topology (becomes the overlay's base CSR).
    stream:
        The mutation stream to consume (deterministic + seekable).
    process:
        ``"2-state"`` (default) or ``"3-state"``.
    seed:
        Coin seed; the service always runs a
        :class:`~repro.sim.rng.SeededCoins` so its ``(key, draw)`` state
        is checkpointable.
    backend:
        Forwarded to the process.
    compact_fraction:
        Overlay compaction threshold (see
        :data:`~repro.dynamic.overlay.DEFAULT_COMPACT_FRACTION`).
    settle_every:
        Run recovery rounds after every k-th event (default 1: after
        each).  Batched churn waves settle once per wave.
    max_recovery_rounds:
        Per-settle round budget; default ``64 * max(1, ceil(log2 n))``
        — far above the O(log n) w.h.p. bound, so hitting it signals a
        real failure (``ChurnRecord.stabilized`` goes False).
    repair:
        ``False`` disables incremental repair: every event invalidates
        the aggregates and the next access rebuilds from scratch (the
        control arm of E20/bench_churn; trajectories are identical).
    checkpoint:
        ``None`` (no journaling), a path (the service opens — and owns
        — a fingerprinted :class:`~repro.sim.checkpoint.CheckpointJournal`
        there), or an existing journal/view.
    checkpoint_every:
        Full state snapshot cadence in events (default 1).  Each
        snapshot is the journal's one fsync for the events since the
        previous one.
    resume:
        When ``True`` (default) and the journal holds a snapshot,
        restore from the latest one instead of starting fresh.
    """

    def __init__(
        self,
        graph: Graph,
        stream: MutationStream,
        *,
        process: str = "2-state",
        seed: int = 0,
        backend: str = "auto",
        compact_fraction: float = DEFAULT_COMPACT_FRACTION,
        settle_every: int = 1,
        max_recovery_rounds: int | None = None,
        repair: bool = True,
        checkpoint: "str | Path | CheckpointJournal | CheckpointView | None" = None,
        checkpoint_every: int = 1,
        resume: bool = True,
    ) -> None:
        if process not in PROCESSES:
            raise ValueError(
                f"unknown process {process!r}; expected one of {PROCESSES}"
            )
        if graph.n != stream.n:
            raise ValueError(
                f"stream is sized for n={stream.n}, graph has n={graph.n}"
            )
        if settle_every < 1 or checkpoint_every < 1:
            raise ValueError("settle_every/checkpoint_every must be >= 1")
        self.stream = stream
        self.process_name = process
        self.seed = int(seed)
        self.backend = backend
        self.settle_every = int(settle_every)
        self.checkpoint_every = int(checkpoint_every)
        self.repair = bool(repair)
        self.overlay = DeltaOverlay(graph, compact_fraction)
        self.ops = DeltaNeighborOps(self.overlay, backend)
        n = graph.n
        self.max_recovery_rounds = (
            int(max_recovery_rounds)
            if max_recovery_rounds is not None
            else 64 * max(1, math.ceil(math.log2(max(2, n))))
        )
        #: One ChurnRecord per consumed event, in offset order.
        self.records: list[ChurnRecord] = []
        #: The next stream offset to consume.
        self.next_offset = 0
        #: Repair-vs-rebuild decision totals (instrumentation).
        self.repairs = 0
        self.rebuilds = 0
        #: Rounds spent settling the initial configuration.
        self.start_rounds = 0

        self._owns_journal = False
        self._store: "CheckpointJournal | CheckpointView | None" = None
        if isinstance(checkpoint, (str, Path)):
            self._store = CheckpointJournal(
                checkpoint, self._spec(), resume=resume
            )
            self._owns_journal = True
        elif checkpoint is not None:
            self._store = checkpoint

        restored = resume and self._store is not None and self._resume()
        if not restored:
            self.proc = self._make_process(graph, SeededCoins(self.seed))
            self.start_rounds = self._settle()
            self._snapshot_state(-1)

    # -- construction helpers -------------------------------------------
    def _spec(self) -> dict[str, Any]:
        """Fingerprintable identity of this service configuration."""
        return {
            "service": "mis",
            "coins": COIN_STREAM,
            "process": self.process_name,
            "seed": self.seed,
            "backend": self.backend,
            "settle_every": self.settle_every,
            "repair": self.repair,
            "compact_fraction": self.overlay.compact_fraction,
            "stream": self.stream.spec(),
        }

    def _make_process(
        self,
        graph: Graph,
        coins: SeededCoins,
        init: np.ndarray | None = None,
    ) -> "TwoStateMIS | ThreeStateMIS":
        cls = TwoStateMIS if self.process_name == "2-state" else ThreeStateMIS
        return cls(
            graph,
            coins=coins,
            init=init,
            backend=self.backend,
            ops=self.ops,
        )

    def _state_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(token array, black mask, aux mask or None)`` of the process."""
        proc = self.proc
        if isinstance(proc, ThreeStateMIS):
            states = proc.states
            return states, states != WHITE, states == BLACK1
        return proc.black, proc.black, None

    # -- queries ---------------------------------------------------------
    def is_stable(self) -> bool:
        """Whether the MIS has (re-)stabilized (O(1) under frontier)."""
        return self.proc.is_stabilized()

    def is_member(self, u: int) -> bool:
        """Whether alive vertex ``u`` is currently in the black set."""
        u = int(u)
        if not (0 <= u < self.overlay.n):
            raise IndexError(f"vertex {u} out of range for n={self.overlay.n}")
        if not self.overlay.alive[u]:
            return False
        return bool(self._state_arrays()[1][u])

    def mis(self) -> np.ndarray:
        """The stabilized MIS restricted to alive vertices (sorted)."""
        if not self.proc.is_stabilized():
            raise RuntimeError("service has not re-stabilized; no MIS yet")
        black = self._state_arrays()[1]
        return np.flatnonzero(black & self.overlay.alive)

    # -- dynamics --------------------------------------------------------
    def _settle(self) -> int:
        """Run recovery rounds until stable or the budget runs out."""
        rounds = 0
        proc = self.proc
        while rounds < self.max_recovery_rounds and not proc.is_stabilized():
            proc.step()
            rounds += 1
        return rounds

    def apply_event(self, event: MutationEvent) -> ChurnRecord:
        """Consume one mutation event; returns its recovery record."""
        offset = self.next_offset
        add_us, add_vs, rem_us, rem_vs = self.overlay.apply_event(event)
        compacted = False
        if add_us.size + rem_us.size == 0:
            action = "noop"
        else:
            token, black, aux = self._state_arrays()
            frontier = self.proc._frontier
            if (
                self.repair
                and frontier is not None
                and frontier.token is token
            ):
                action = frontier.apply_topology_delta(
                    black, add_us, add_vs, rem_us, rem_vs,
                    token=token, aux=aux,
                )
            else:
                action = "rebuild"
                if frontier is not None:
                    frontier.invalidate()
            self.proc._topology_changed()
            if action == "rebuild":
                self.rebuilds += 1
            else:
                self.repairs += 1
            if self.overlay.should_compact():
                self.overlay.compact()
                self.ops.rebase()
                self.proc.graph = self.overlay.base
                if frontier is not None:
                    frontier.graph = self.overlay.base
                compacted = True
        rounds = 0
        if (offset + 1) % self.settle_every == 0:
            rounds = self._settle()
        record = ChurnRecord(
            offset=offset,
            kind=event.kind,
            added=int(add_us.size),
            removed=int(rem_us.size),
            action=action,
            compacted=compacted,
            rounds=rounds,
            stabilized=self.proc.is_stabilized(),
            round_end=int(self.proc.round),
        )
        self.records.append(record)
        self.next_offset = offset + 1
        return record

    def run(
        self,
        events: int,
        *,
        chaos: Any = None,
        chaos_attempts: "dict[int, int] | None" = None,
    ) -> list[ChurnRecord]:
        """Consume the stream up to ``events`` total offsets.

        Resumes from :attr:`next_offset`; returns the records produced
        by *this* call.  ``chaos`` is an optional
        :class:`~repro.parallel.chaos.ServiceChaosPolicy`; faults fire
        before the offset's event is applied (events are atomic), and
        ``chaos_attempts`` — shared across restarts by
        :func:`run_with_chaos` — counts visits per offset.
        """
        produced: list[ChurnRecord] = []
        attempts = chaos_attempts if chaos_attempts is not None else {}
        while self.next_offset < events:
            offset = self.next_offset
            if chaos is not None:
                attempt = attempts.get(offset, 0)
                attempts[offset] = attempt + 1
                fault = chaos.fault_for(offset, attempt)
                if fault is not None:
                    self._inject_fault(chaos, fault, offset)
            event = self.stream.event_at(offset, self.overlay)
            record = self.apply_event(event)
            produced.append(record)
            self._journal_record(record)
        return produced

    def _inject_fault(self, chaos: Any, fault: str, offset: int) -> None:
        if fault in ("hang", "slow"):
            time.sleep(
                chaos.hang_seconds if fault == "hang" else chaos.slow_seconds
            )
            return
        if fault == "poison":
            journal = self._underlying_journal()
            if journal is not None:
                journal.tear_tail()
        self.close()
        raise ServiceKilledError(offset)

    def _underlying_journal(self) -> CheckpointJournal | None:
        if isinstance(self._store, CheckpointJournal):
            return self._store
        if isinstance(self._store, CheckpointView):
            return self._store.journal
        return None

    # -- checkpoint / resume ---------------------------------------------
    def _journal_record(self, record: ChurnRecord) -> None:
        if self._store is None:
            return
        # Unsynced: the next snapshot's blob commits it (module docstring).
        self._store.put(f"rec:{record.offset}", record.to_dict(), sync=False)
        if (record.offset + 1) % self.checkpoint_every == 0:
            self._snapshot_state(record.offset)

    def _snapshot_state(self, offset: int) -> None:
        """Journal a full resume point: state vector + coin-stream state.

        The synced ``blob:`` put is the commit point of everything the
        service journaled since the previous snapshot.
        """
        if self._store is None:
            return
        proc = self.proc
        coins = proc.coins
        if not isinstance(coins, SeededCoins):  # pragma: no cover - guard
            raise TypeError("checkpointing requires SeededCoins")
        state = self._state_arrays()[0]
        self._store.put(
            f"state:{offset}",
            {
                "offset": int(offset),
                "round": int(proc.round),
                "coins": coins.state,
                "repairs": self.repairs,
                "rebuilds": self.rebuilds,
                "start_rounds": self.start_rounds,
            },
            sync=False,
        )
        self._store.put_bytes(f"blob:{offset}", pack_state(state))

    def _resume(self) -> bool:
        """Restore from the journal's latest snapshot; False if none."""
        assert self._store is not None
        keys = set(self._store.keys())
        snapshots = sorted(
            int(k.split(":", 1)[1])
            for k in keys
            if k.startswith("state:") and f"blob:{k.split(':', 1)[1]}" in keys
        )
        if not snapshots:
            return False
        last = snapshots[-1]
        meta = self._store.get(f"state:{last}")
        blob = self._store.get_bytes(f"blob:{last}")
        if meta is None or blob is None:  # pragma: no cover - guard
            return False
        if "coins" not in meta:
            # A journal opened by path is refused earlier, by fingerprint;
            # this catches one handed in already open.
            raise CheckpointError(
                f"snapshot state:{last} predates the counter-based coin "
                "stream; start over with resume=False"
            )
        dtype = np.int8 if self.process_name == "3-state" else np.bool_
        try:
            init = unpack_state(blob, self.overlay.n, dtype)
        except ValueError as exc:
            raise CheckpointError(
                f"snapshot blob:{last} does not decode: {exc}"
            ) from exc
        # Replay mutations 0..last topology-only onto the fresh overlay,
        # compacting on the same criterion as the live path (it depends
        # only on topology history, so the points coincide exactly).
        for offset in range(last + 1):
            event = self.stream.event_at(offset, self.overlay)
            self.overlay.apply_event(event)
            if self.overlay.should_compact():
                self.overlay.compact()
                self.ops.rebase()
        # Array init draws no coins, so the saved (key, draw) is exactly
        # where the uninterrupted run's stream stood.
        coins = SeededCoins.from_state(meta["coins"])
        self.proc = self._make_process(self.overlay.base, coins, init=init)
        self.proc.round = int(meta["round"])
        # Prime the frontier engine (coin-free) so the first post-resume
        # event takes the same repair-vs-rebuild decision — and records
        # the same ChurnRecord.action — as the uninterrupted run.
        self.proc._frontier_aggregates()
        self.repairs = int(meta["repairs"])
        self.rebuilds = int(meta["rebuilds"])
        self.start_rounds = int(meta["start_rounds"])
        self.records = [
            ChurnRecord.from_dict(self._store.get(f"rec:{j}"))
            for j in range(last + 1)
            if f"rec:{j}" in keys
        ]
        self.next_offset = last + 1
        return True

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Close the journal if the service owns it (idempotent)."""
        if self._owns_journal and self._store is not None:
            journal = self._underlying_journal()
            if journal is not None:
                journal.close()

    def __enter__(self) -> "MISService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MISService(process={self.process_name!r}, "
            f"n={self.overlay.n}, offset={self.next_offset}, "
            f"repairs={self.repairs}, rebuilds={self.rebuilds}, "
            f"stable={self.is_stable()})"
        )


def run_with_chaos(
    make_service: Any,
    events: int,
    chaos: Any,
    max_restarts: int = 1000,
) -> tuple[MISService, int]:
    """Drive a checkpointed service to ``events`` under a chaos policy.

    ``make_service`` constructs (or resumes — it must pass the same
    ``checkpoint=`` path) a fresh :class:`MISService`; every
    ``ServiceKilledError`` triggers a restart, with the per-offset
    attempt counts shared across incarnations so bounded policies
    terminate.  Returns ``(final service, restart count)``.
    """
    attempts: dict[int, int] = {}
    restarts = 0
    while True:
        service = make_service()
        try:
            service.run(events, chaos=chaos, chaos_attempts=attempts)
            return service, restarts
        except ServiceKilledError:
            restarts += 1
            if restarts > max_restarts:
                raise
