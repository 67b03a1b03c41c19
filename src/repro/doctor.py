"""One self-check of the machinery behind the self-stabilization runs.

Usage::

    python -m repro doctor

The paper's processes converge again after any transient fault.  The
simulator shows this at scale through a worker fleet, a chaos harness
and a checkpointed churn service; this command checks that machinery on
the current machine.  It prints one ``[  ok]``/``[FAIL]`` line per
check, under three headings:

* **substrate** — shared-memory hygiene (no ``repro-graphs-*`` segment
  before the run), worker spawn, fault waves on one pool (one published
  segment, workers repairing their resident engines) bitwise against
  the serial path, and one shard's wire round trip, whose records must
  stay within their packed state plus a fixed header (it prints the
  bytes per replica).
* **chaos** — at 2 and 4 workers, one fleet under a scripted fault plan
  that cycles through every recovery path: a killed worker (respawn +
  retry), a hang past the per-shard deadline (straggler kill +
  in-process degradation) and, at 4 workers, a poisoned result
  (quarantine + retry).  The results must be bitwise-identical to the
  fault-free serial run, every recovery path must fire, and shutdown
  must leave no zombie.  A fault-wave campaign then loses a worker in
  wave 1, the first call whose shard could hit that worker's resident
  engines, and must still match the serial waves.  No segment may
  outlive the runs.
* **service** — the churn stack: a mutated
  :class:`~repro.dynamic.overlay.DeltaOverlay` snapshots and compacts
  to the same graph, its lazily merged delta mirrors equal a from-sets
  rebuild, local coverage recovery and incremental repair equal a
  rebuild, a checkpointed :class:`~repro.dynamic.service.MISService`
  killed once and journal-torn once mid-stream resumes to the
  bitwise-identical trajectory of an uninterrupted run, the journal
  fsyncs once per snapshot, and zero-filled unsynced records still
  resume bitwise.

It ends with ``healthy`` (exit 0) or ``UNHEALTHY`` (exit 1).  A section
that raises prints its traceback to stderr and one failed line, and the
remaining sections still run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import traceback
from typing import Callable

import numpy as np

from repro.core.frontier import FrontierAggregates
from repro.core.neighbor_ops import SparseNeighborOps
from repro.core.replica import RECORD_HEADER_BYTES
from repro.core.two_state import TwoStateMIS
from repro.dynamic import (
    STREAM_KINDS,
    DeltaOverlay,
    MISService,
    make_stream,
    run_with_chaos,
)
from repro.graphs.random_graphs import gnp_random_graph
from repro.parallel.chaos import (
    ChaosPolicy,
    ServiceChaosPolicy,
    WaveChaosPolicy,
)
from repro.parallel.fleet import decode_results, shard_ranges
from repro.parallel.jobs import GraphRegistry, ShardJob
from repro.parallel.retry import RetryPolicy
from repro.parallel.shared_graph import SharedGraphStore, leaked_segments
from repro.parallel.supervisor import SupervisedPool, iter_chaos_fault_plan
from repro.parallel.worker import run_shard
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.runner import RunResult, run_many_until_stable

#: Fleet size of the chaos matrix.
CHAOS_REPLICAS = 96
#: Worker counts the chaos matrix runs at.
CHAOS_WORKERS = (2, 4)
#: Per-shard deadline of the chaos matrix, in seconds.
CHAOS_DEADLINE = 1.0
#: Vertex count of the service checks' graph.
SERVICE_N = 256
#: Mutation-stream length of the service checks.
SERVICE_EVENTS = 60

Waves = list[list[RunResult]]


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{status:>4}] {label}{suffix}")
    return ok


def _identical(ref: list[RunResult], got: list[RunResult]) -> bool:
    if len(ref) != len(got):
        return False
    for a, b in zip(ref, got):
        if (
            a.stabilized != b.stabilized
            or a.stabilization_round != b.stabilization_round
            or a.rounds_executed != b.rounds_executed
        ):
            return False
        if (a.mis is None) != (b.mis is None):
            return False
        if a.mis is not None and not np.array_equal(a.mis, b.mis):
            return False
    return True


def _waves(run: Callable[[list[TwoStateMIS]], list[RunResult]]) -> Waves:
    """A clean start plus three 4-flip fault waves; each call's results.

    G(600, 3/n) is too sparse for the BLAS batch, so workers run the
    batched frontier engines and keep them resident between calls.
    """
    n = 600
    graph = gnp_random_graph(n, 3.0 / n, rng=11)
    fleet = [TwoStateMIS(graph, coins=3000 + i) for i in range(16)]
    rng = np.random.default_rng(7)
    calls = []
    for wave in range(4):
        if wave:
            for process in fleet:
                state = process.black.copy()
                idx = rng.choice(n, size=4, replace=False)
                state[idx] = ~state[idx]
                process.corrupt(state)
        calls.append(run(fleet))
    return calls


def _same_waves(ref: Waves, got: Waves) -> bool:
    return len(ref) == len(got) and all(map(_identical, ref, got))


# -- substrate ------------------------------------------------------------
def _substrate(serial_waves: Waves) -> bool:
    healthy = _check(
        "no pre-existing leaked segments",
        leaked_segments() == [],
        ", ".join(leaked_segments()),
    )
    segments: set[str] = set()
    with SupervisedPool(2) as pool:
        healthy &= _check(
            "worker spawn", pool.workers == 2, f"{pool.workers} workers"
        )

        def wave(fleet: list[TwoStateMIS]) -> list[RunResult]:
            results = run_many_until_stable(fleet, max_rounds=4000, pool=pool)
            segments.update(leaked_segments())
            return results

        waves = _waves(wave)
    healthy &= _check(
        "fault waves on resident engines match serial",
        _same_waves(serial_waves, waves) and len(segments) == 1,
        f"{len(waves)} calls, {len(segments)} segment(s) published",
    )
    return healthy & _wire_check()


def _wire_check() -> bool:
    """Round-trip one shard through the wire format and bound its size.

    Encodes a 2-state shard, runs it in-process exactly as a worker
    would, decodes the returned records and restores them: the
    processes must end bitwise where the serial path leaves them, and
    every record, in and out, must stay within its packed state plus
    :data:`~repro.core.replica.RECORD_HEADER_BYTES` — a shard that
    shipped process objects again would blow the bound.
    """
    replicas, n = 8, 4096
    graph = gnp_random_graph(n, 3.0 / n, rng=11)
    coins = range(2000, 2000 + replicas)
    serial = [TwoStateMIS(graph, coins=c) for c in coins]
    ref = run_many_until_stable(serial, max_rounds=4000)
    fleet = [TwoStateMIS(graph, coins=c) for c in coins]
    registry = GraphRegistry([graph])
    with SharedGraphStore([graph]) as store:
        job = ShardJob(
            indices=(0, replicas),
            payload=registry.encode_shard(fleet),
            handle=store.handle,
            max_rounds=4000,
            verify=True,
            batch="auto",
        )
        result = run_shard(registry, job)
    records = decode_results(registry, result.payload, fleet) or []
    for process, record in zip(fleet, records):
        process.restore(record)
    exact = len(records) == replicas and all(
        (a.stabilized, a.stabilization_round, a.rounds_executed)
        == record.outcome
        and np.array_equal(p.state_vector(), q.state_vector())
        and p.coins.state == q.coins.state
        for a, p, q, record in zip(ref, serial, fleet, records)
    )
    packed = -(-n // 8)
    inbound = len(job.payload) / replicas
    outbound = len(result.payload) / replicas
    ok = _check(
        "shard wire round trip",
        exact,
        f"{inbound:.0f} B/replica in, {outbound:.0f} B/replica out",
    )
    return ok & _check(
        "wire records stay packed",
        max(inbound, outbound) <= packed + RECORD_HEADER_BYTES,
        f"bound {packed} B packed state + {RECORD_HEADER_BYTES} B header",
    )


# -- chaos ----------------------------------------------------------------
def _chaos(serial_waves: Waves) -> bool:
    """The seeded kill/hang/poison matrix, then a worker lost mid-campaign."""
    max_rounds = 600
    graph = gnp_random_graph(48, 0.1, rng=11)

    def make_fleet() -> list[TwoStateMIS]:
        return [
            TwoStateMIS(graph, coins=1000 + i) for i in range(CHAOS_REPLICAS)
        ]

    ref = run_many_until_stable(make_fleet(), max_rounds=max_rounds)
    recovery = {
        "kill": ("respawn", "retry"),
        "hang": ("deadline-kill", "degrade"),
        "poison": ("quarantine", "retry"),
    }
    healthy = True
    for workers in CHAOS_WORKERS:
        ranges = shard_ranges(CHAOS_REPLICAS, workers)
        # One fault per shard, cycling through every recovery path.
        faults = (["kill", "hang", "poison"] * len(ranges))[: len(ranges)]
        chaos = ChaosPolicy.scripted(
            iter_chaos_fault_plan(ranges, faults),
            hang_seconds=max(10 * CHAOS_DEADLINE, 5.0),
            seed=workers,
        )
        start = time.time()
        with SupervisedPool(
            workers,
            chaos=chaos,
            deadline=CHAOS_DEADLINE,
            retry=RetryPolicy(backoff_base=0.01),
        ) as pool:
            results = run_many_until_stable(
                make_fleet(), max_rounds=max_rounds, n_jobs=workers, pool=pool
            )
            kinds = {event.kind for event in pool.events}
            zombies = pool.close()
        elapsed = time.time() - start
        required = {kind for fault in faults for kind in recovery[fault]}
        healthy &= _check(
            f"{workers} workers: kill/hang/poison run matches serial",
            _identical(ref, results),
            f"{CHAOS_REPLICAS} replicas in {elapsed:.1f}s",
        )
        missing = sorted(required - kinds)
        healthy &= _check(
            f"{workers} workers: every recovery path fired",
            not missing,
            f"missing {missing}" if missing else ", ".join(sorted(required)),
        )
        healthy &= _check(
            f"{workers} workers: shutdown leaves no zombies",
            zombies == [],
            ", ".join(map(str, zombies)),
        )

    # Wave 1 is the first call whose shard could hit the killed
    # worker's resident engines; the retry runs on a worker without them.
    plan = {(shard_ranges(16, 2)[0], 1): "kill"}
    with SupervisedPool(
        2,
        chaos=WaveChaosPolicy.scripted(plan),
        retry=RetryPolicy(backoff_base=0.01),
    ) as pool:
        waves = _waves(
            lambda fleet: run_many_until_stable(
                fleet, max_rounds=4000, n_jobs=2, pool=pool
            )
        )
        kinds = {event.kind for event in pool.events}
        zombies = pool.close()
    healthy &= _check(
        "fault waves with a worker killed in wave 1 match serial",
        _same_waves(serial_waves, waves)
        and {"respawn", "retry"} <= kinds
        and zombies == [],
        f"events {sorted(kinds)}, zombies {zombies}",
    )
    return healthy & _check(
        "no leaked segments after runs",
        leaked_segments() == [],
        ", ".join(leaked_segments()),
    )


# -- service --------------------------------------------------------------
def _records(service: MISService) -> list[dict[str, object]]:
    return [r.to_dict() for r in service.records]


def _same_run(ref: MISService, got: MISService) -> bool:
    """Same state vector and per-event records."""
    return np.array_equal(
        ref._state_arrays()[0], got._state_arrays()[0]
    ) and _records(ref) == _records(got)


def _coverage_exact(service: MISService) -> bool:
    """``covered``/``unstable_total`` == a rebuild on the snapshot graph."""
    token, black, aux = service._state_arrays()
    frontier = service.proc._frontier
    snap = service.overlay.snapshot()
    fresh = FrontierAggregates(
        snap, SparseNeighborOps(snap), track_aux=frontier.track_aux
    )
    fresh.rebuild(black, token, aux=aux)
    return (
        frontier.token is token
        and np.array_equal(frontier.covered, fresh.covered)
        and frontier.unstable_total == fresh.unstable_total
    )


def _directed_keys(us: np.ndarray, vs: np.ndarray, n: int) -> np.ndarray:
    """Sorted directed keys ``u * n + v`` of both directions of each edge."""
    return np.sort(np.concatenate((us * n + vs, vs * n + us)))


def _service() -> bool:
    """The overlay, repair, kill/resume and group-commit contracts."""
    n, events = SERVICE_N, SERVICE_EVENTS
    graph = gnp_random_graph(n, 3.0 / n, rng=11)
    stream = make_stream("uniform", n, seed=3)

    # Overlay/CSR equivalence: drive the overlay through the stream,
    # then rebuild the same graph from scratch off the final snapshot.
    overlay = DeltaOverlay(graph, compact_fraction=0.1)
    for offset in range(events):
        overlay.apply_event(stream.event_at(offset, overlay))
        if overlay.should_compact():
            overlay.compact()
    snap = overlay.snapshot()
    su, sv = snap.edge_arrays()
    overlay.compact()
    cu, cv = overlay.base.edge_arrays()
    healthy = _check(
        "overlay snapshot == compacted CSR",
        np.array_equal(su, cu) and np.array_equal(sv, cv),
        f"{snap.m} edges, {overlay.compactions} compactions",
    )
    healthy &= _check(
        "live degrees track the CSR",
        np.array_equal(overlay.degrees(), overlay.base.degrees()),
    )

    # Lazy mirror merge: after a burst of flaps (queried mid-burst, so
    # several partial merges), a vertex kill and an attach, the mirrors
    # merged key by key equal mirrors rebuilt from the delta sets.
    overlay = DeltaOverlay(graph)
    us, vs = graph.edge_arrays()
    for i in range(events):
        u, v = int(us[i % us.size]), int(vs[i % vs.size])
        overlay.remove_edge(u, v)
        if i % 3:
            overlay.add_edge(u, v)
        overlay.add_edge(u, (u + 1 + i % (n - 1)) % n)
        if i % 7 == 0:
            overlay.gather(np.array([u, v]))
    overlay.remove_vertex(int(us[0]))
    overlay.add_vertex(int(us[0]), [int(vs[-1]), (int(us[0]) + 2) % n])
    overlay._sync()
    add_us, add_vs, rem_us, rem_vs = overlay._delta_arrays()
    healthy &= _check(
        "merged delta mirrors == from-sets rebuild",
        np.array_equal(overlay._add_keys, _directed_keys(add_us, add_vs, n))
        and np.array_equal(
            overlay._rem_keys, _directed_keys(rem_us, rem_vs, n)
        ),
        f"{overlay._add_keys.size} added + "
        f"{overlay._rem_keys.size} removed directed keys",
    )

    # Local coverage recovery: after every "repair+recover" event,
    # N+[I_t] and the unstable counter equal a fresh rebuild.  Every
    # stream kind runs, so edge deletions (rare in a uniform stream)
    # and vertex deletions reach the recover branch too.
    audited = drifted = 0
    for kind in STREAM_KINDS:
        audit = MISService(graph, make_stream(kind, n, seed=3), seed=1)
        for offset in range(events):
            if audit.run(offset + 1)[0].action == "repair+recover":
                audited += 1
                drifted += not _coverage_exact(audit)
    healthy &= _check(
        "local coverage recovery == rebuild",
        audited > 0 and drifted == 0,
        f"{audited} repair+recover events checked, {drifted} drifted",
    )

    # Repair == rebuild: bitwise-identical trajectories, records included.
    ref = MISService(graph, stream, seed=1)
    ref.run(events)
    ctl = MISService(graph, stream, seed=1, repair=False)
    ctl.run(events)
    healthy &= _check(
        "incremental repair == from-scratch rebuild",
        np.array_equal(ref._state_arrays()[0], ctl._state_arrays()[0])
        and [r.rounds for r in ref.records] == [r.rounds for r in ctl.records],
        f"{ref.repairs} repairs vs {ctl.rebuilds} rebuilds",
    )
    healthy &= _check(
        "repair path on the hot path",
        ref.repairs > 0 and ref.repairs >= ref.rebuilds,
        f"repairs={ref.repairs} rebuilds={ref.rebuilds}",
    )

    # Kill at one offset and kill + tear the journal tail mid-record at
    # another: one run covers kill/resume, torn-tail resume and a
    # resume of a resumed incarnation.
    every = 5
    faults = {(events // 3, 0): "kill", (2 * events // 3, 0): "poison"}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "service.ckpt")

        def make_service() -> MISService:
            return MISService(
                graph, stream, seed=1, checkpoint=path,
                checkpoint_every=every,
            )

        service, restarts = run_with_chaos(
            make_service, events, ServiceChaosPolicy.scripted(faults)
        )
        service.close()
    healthy &= _check(
        "kill + torn-tail resume is bitwise-identical",
        restarts == 2
        and _same_run(ref, service)
        and ref.proc.round == service.proc.round
        and np.array_equal(ref.mis(), service.mis()),
        f"{restarts} restart(s) at offsets {sorted(o for o, _ in faults)}",
    )

    # Group commit: records after the last snapshot are unsynced, so a
    # crash may zero-fill any of them; resume must not care.
    stop = every * (events // 2 // every) + 3  # three records past a snapshot
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "service.ckpt")
        with CheckpointJournal(path, {"doctor": "group-commit"}) as journal:
            MISService(
                graph, stream, seed=1, checkpoint=journal,
                checkpoint_every=every,
            ).run(stop)
            fsyncs = journal.fsyncs
        healthy &= _check(
            "one fsync per snapshot",
            fsyncs == 2 + stop // every,
            f"{fsyncs} fsyncs over {stop} events, "
            f"{fsyncs / stop:.2f} per event",
        )
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")[:-1]
        keys = [str(json.loads(line).get("key")) for line in lines]
        last = max(i for i, key in enumerate(keys) if key.startswith("blob:"))
        tail = lines[last + 1:]
        # From mid first to mid last unsynced record, across every "\n".
        lo = sum(len(line) + 1 for line in lines[: last + 1]) + len(tail[0]) // 2
        hi = sum(len(line) + 1 for line in lines) - len(tail[-1]) // 2 - 1
        with open(path, "r+b") as fh:
            fh.seek(lo)
            fh.write(b"\0" * (hi - lo))
        with CheckpointJournal(path, {"doctor": "group-commit"}) as journal:
            resumed = MISService(
                graph, stream, seed=1, checkpoint=journal,
                checkpoint_every=every,
            )
            resumed_at = resumed.next_offset
            resumed.run(events)
        healthy &= _check(
            "torn unsynced group resume is bitwise-identical",
            resumed_at == stop - 3 and _same_run(ref, resumed),
            f"{hi - lo} bytes zero-filled across {len(tail)} records, "
            f"resumed at offset {resumed_at}",
        )
    return healthy


def run() -> int:
    """Run every check; returns a process exit code (0 = healthy)."""
    serial_waves = _waves(
        lambda fleet: run_many_until_stable(fleet, max_rounds=4000, n_jobs=1)
    )
    sections: list[tuple[str, Callable[[], bool]]] = [
        ("substrate", lambda: _substrate(serial_waves)),
        ("chaos", lambda: _chaos(serial_waves)),
        ("service", _service),
    ]
    healthy = True
    for heading, section in sections:
        print(heading)
        try:
            healthy &= section()
        except Exception as exc:  # a crashed check is a failed check
            traceback.print_exc()
            healthy &= _check(
                f"{heading} checks ran to the end",
                False,
                f"{type(exc).__name__}, traceback on stderr",
            )
    print("healthy" if healthy else "UNHEALTHY")
    return 0 if healthy else 1
