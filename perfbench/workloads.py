"""The three closed-loop workloads.

Every input (graphs, coin seeds, fault positions, the mutation stream)
is derived from the workload seed, so one seed gives one set of inputs.
A workload is driven through the same steps by ``run.py``:

``setup(warmup)``
    Generate inputs and build the long-lived objects (pool, service);
    with ``warmup``, also run one untimed warm-up pass.
``unit(i)``
    One measured unit of work, returned as a :class:`Unit`.  Units with
    the same ``i`` do the same work.
``finish()``
    Work that follows the units (the churn reads and final check).
``replay()``
    An untimed serial pass over the traced work that counts |A_t| per
    round, for ``rng.coins_used_fraction``.

Each operation's output is checked outside the timed region with
:class:`checks.MISCheck`; a failed check, an exhausted round budget or
an unsettled churn event counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from checks import MISCheck
from repro.core.process import MISProcess
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.dynamic import mutations
from repro.dynamic.service import MISService
from repro.graphs import random_graphs
from repro.parallel.supervisor import SupervisedPool
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.runner import run_many_until_stable, run_until_stable

# Seed-derivation keys: one stream of inputs per purpose.
GRAPH, COINS, WARMUP, FAULTS, STREAM, READS = range(6)


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def round_budget(n: int) -> int:
    """Round budget per run: far above the O(log n) bound, like the service's."""
    return 64 * max(1, math.ceil(math.log2(max(2, n))))


@dataclass
class Unit:
    """What one unit of work did: operations, failures and timings."""

    ops: int = 0
    failed: int = 0
    seconds: float = 0.0  # timed seconds spent on the operations
    requests: list[float] = field(default_factory=list)  # closed-loop request latencies


@contextmanager
def counting_active() -> Iterator[list[int]]:
    """Sum |A_t| and n over every serial round run inside the block.

    |A_t| is read with ``trajectory_counts``, as ``record_trace=True``
    records it, before each round's coins are consumed.
    """
    original = MISProcess.step
    totals = [0, 0]

    def step(self: MISProcess, rounds: int = 1) -> None:
        for _ in range(rounds):
            totals[0] += self.trajectory_counts()[1]
            totals[1] += self.n
            original(self, 1)

    MISProcess.step = step
    try:
        yield totals
    finally:
        MISProcess.step = original


class Workload:
    """Shared bookkeeping: seed, scale, scratch directory, records."""

    name = ""
    #: Units in a traced pass (fixed, so traced counts repeat exactly).
    trace_units = 1

    def __init__(self, seed: int, scale: float, tmp: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.reset_records()

    def reset_records(self) -> None:
        """Forget what warm-up work recorded."""
        self.rounds = 0
        self.digest = hashlib.sha256()
        #: Workload-specific timings by name; the suffix names the unit.
        self.samples: defaultdict[str, list[float]] = defaultdict(list)

    def setup(self, warmup: bool) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def finish(self) -> Unit:
        return Unit()

    def replay(self) -> float:
        """Coins used over coins drawn on the traced work (untimed)."""
        with counting_active() as totals:
            self.setup(warmup=False)
            for i in range(self.trace_units):
                self.unit(i)
            self.close()
        return totals[0] / max(totals[1], 1)

    def pool_counts(self) -> dict[str, int]:
        return {"respawns": 0, "retries": 0, "quarantines": 0}

    def close(self) -> None:
        pass


class Solve(Workload):
    """One verified run to stabilization per process on G(2^20, 3/n)."""

    name = "solve"
    trace_units = 2

    def setup(self, warmup: bool) -> None:
        self.n = max(64, round(2**20 * self.scale))
        self.graph = random_graphs.gnp_random_graph(
            self.n, 3 / self.n, rng=derive(self.seed, GRAPH)
        )
        self.check = MISCheck(self.graph)
        if warmup:
            self._solve((WARMUP,))
            self.reset_records()

    def unit(self, i: int) -> Unit:
        return self._solve((COINS, i))

    def _solve(self, key: tuple[int, ...]) -> Unit:
        unit = Unit()
        for cls in (TwoStateMIS, ThreeStateMIS):
            coins = derive(self.seed, *key, cls.state_count)
            start = time.perf_counter()
            try:
                result = run_until_stable(
                    cls(self.graph, coins=coins), max_rounds=round_budget(self.n)
                )
            except AssertionError:  # the program's own verification failed
                result = None
            elapsed = time.perf_counter() - start
            unit.ops += 1
            unit.seconds += elapsed
            self.samples[f"run_{cls.state_count}state_s"].append(elapsed)
            if result is None or not result.stabilized or self.check.problem(result.mis):
                unit.failed += 1
            else:
                self.rounds += result.rounds_executed
                self.digest.update(result.mis.tobytes())
        unit.requests.append(unit.seconds)
        return unit


class FleetRecovery(Workload):
    """256 2-state replicas on G(2^14, 3/n): a clean start, then 3 fault waves."""

    name = "fleet_recovery"
    waves = 3
    shards = 2  # n_jobs: the shard count, fixed whatever the core count

    def _inputs(self) -> None:
        self.n = max(64, round(2**14 * self.scale))
        self.replicas = max(4, round(256 * self.scale))
        self.flips = min(16, self.n // 8)
        self.graph = random_graphs.gnp_random_graph(
            self.n, 3 / self.n, rng=derive(self.seed, GRAPH)
        )

    def setup(self, warmup: bool) -> None:
        self._inputs()
        self.check = MISCheck(self.graph)
        self.pool = SupervisedPool(min(self.shards, os.cpu_count() or 1))
        if warmup:
            self._pass((WARMUP,), phases=1)
            self.reset_records()

    def _phases(self, key: tuple[int, ...], count: int, phases: int):
        """Yield ``(phase, processes)``; phases after 0 corrupt every replica first.

        Fault positions are drawn for all replicas whatever ``count`` is,
        so a replica's faults do not depend on how many replicas run.
        """
        procs = [
            TwoStateMIS(self.graph, coins=derive(self.seed, *key, COINS, r))
            for r in range(count)
        ]
        faults = np.random.default_rng(derive(self.seed, *key, FAULTS))
        for phase in range(phases):
            if phase:
                picks = [
                    faults.choice(self.n, self.flips, replace=False)
                    for _ in range(self.replicas)
                ]
                for proc, idx in zip(procs, picks):
                    state = proc.black.copy()
                    state[idx] = ~state[idx]
                    proc.corrupt(state)
            yield phase, procs

    def unit(self, i: int) -> Unit:
        return self._pass((COINS, i), phases=1 + self.waves)

    def _pass(self, key: tuple[int, ...], phases: int) -> Unit:
        unit = Unit()
        path = self.tmp / "fleet.journal"
        journal = CheckpointJournal(path, {"workload": self.name, "key": list(key)}, resume=False)
        try:
            for phase, procs in self._phases(key, self.replicas, phases):
                start = time.perf_counter()
                try:
                    results = run_many_until_stable(
                        procs,
                        max_rounds=round_budget(self.n),
                        verify=True,
                        n_jobs=self.shards,
                        pool=self.pool,
                        journal=journal.scoped(f"phase{phase}:"),
                    )
                except (AssertionError, RuntimeError):  # failed verification or shard
                    results = None
                elapsed = time.perf_counter() - start
                unit.ops += len(procs)
                unit.seconds += elapsed
                if phase:
                    unit.requests.append(elapsed)
                    self.samples["wave_s"].append(elapsed)
                if results is None:
                    unit.failed += len(procs)
                    break
                for result in results:
                    if not result.stabilized or self.check.problem(result.mis):
                        unit.failed += 1
                    else:
                        self.rounds += result.rounds_executed
                        self.digest.update(result.mis.tobytes())
        finally:
            journal.close()
            path.unlink()
        return unit

    def replay(self) -> float:
        # The fleet path runs no serial rounds; replay a few replicas serially.
        with counting_active() as totals:
            self._inputs()
            for _, procs in self._phases((COINS, 0), min(8, self.replicas), 1 + self.waves):
                run_many_until_stable(
                    procs, max_rounds=round_budget(self.n), batch=None, n_jobs=1
                )
        return totals[0] / max(totals[1], 1)

    def pool_counts(self) -> dict[str, int]:
        kinds = [event.kind for event in self.pool.events]
        return {
            "respawns": self.pool.respawns,
            "retries": kinds.count("retry"),
            "quarantines": kinds.count("quarantine"),
        }

    def close(self) -> None:
        if hasattr(self, "pool"):
            self.pool.close()


class Churn(Workload):
    """A 2-state MISService on G(2^16, 3/n) consuming a uniform stream, then reads.

    Each event leaves the overlay's delta log a little longer, so events
    get slower as a stream goes on.  Every ``trace_units`` units the
    service is restarted untimed from the stream's beginning: every run
    then measures the same window of events, however many it gets through.
    """

    name = "churn"
    trace_units = 16  # units per service, and per traced pass
    warmup_units = 4
    reads = 10_000  # is_member calls per read block
    read_blocks = 10

    def setup(self, warmup: bool) -> None:
        self.n = max(256, round(2**16 * self.scale))
        self.block = max(32, round(256 * self.scale))  # events per unit
        self.graph = random_graphs.gnp_random_graph(
            self.n, 3 / self.n, rng=derive(self.seed, GRAPH)
        )
        first = self._open()
        if warmup:
            for _ in range(self.warmup_units * self.block):
                self._event()
            self._open()
            self.reset_records()
        else:
            self.rounds = self.service.start_rounds + first.rounds

    def _open(self):
        """Start a fresh service at the stream's beginning; returns its first record."""
        self.close()
        stream = mutations.make_stream("uniform", self.n, seed=derive(self.seed, STREAM))
        self.service = MISService(
            self.graph,
            stream,
            seed=derive(self.seed, COINS),
            checkpoint=self.tmp / "churn.journal",
            checkpoint_every=16,
            resume=False,
        )
        # The uniform stream deletes an edge with probability about 3/n per
        # event, and once any base edge is gone every overlay gather also
        # filters removed edges.  Whether a run saw such a deletion would
        # split seeds into two speeds, so one seeded base edge goes first.
        degrees = np.diff(self.graph.indptr)
        u = int(np.random.default_rng(derive(self.seed, STREAM)).choice(np.flatnonzero(degrees)))
        v = int(self.graph.indices[self.graph.indptr[u]])
        return self.service.apply_event(mutations.MutationEvent("del-edge", u, v))

    def _event(self):
        service = self.service
        return service.run(service.next_offset + 1)[0]

    def unit(self, i: int) -> Unit:
        if i and i % self.trace_units == 0:
            self._open()
        unit = Unit()
        for _ in range(self.block):
            start = time.perf_counter()
            record = self._event()
            elapsed = time.perf_counter() - start
            unit.ops += 1
            unit.seconds += elapsed
            unit.requests.append(elapsed)
            self.rounds += record.rounds
            unit.failed += not record.stabilized
        return unit

    def finish(self) -> Unit:
        service = self.service
        vertices = np.random.default_rng(derive(self.seed, READS)).integers(
            0, self.n, size=self.reads
        ).tolist()
        for _ in range(self.read_blocks):
            start = time.perf_counter()
            for u in vertices:
                service.is_member(u)
            self.samples["read_us"].append((time.perf_counter() - start) / len(vertices) * 1e6)
        unit = Unit()
        self.digest.update(service.proc.state_vector().tobytes())
        if not service.is_stable():
            unit.failed = 1
        else:
            overlay = service.overlay
            problem = MISCheck(overlay.snapshot()).problem(service.mis(), alive=overlay.alive)
            unit.failed = int(problem is not None)
        return unit

    def close(self) -> None:
        if hasattr(self, "service"):
            self.service.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Solve, FleetRecovery, Churn)
}
