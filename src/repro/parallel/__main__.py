"""Self-check CLI for the parallel execution substrate.

Usage::

    python -m repro.parallel --doctor
    python -m repro.parallel --chaos-smoke [--workers 2 4] [--replicas R]

``--doctor`` verifies the machinery on *this* machine: shared-memory
hygiene (no leaked ``repro-graphs-*`` segments before or after), worker
spawn, crash detection, respawn, retry, bitwise equality of a
supervised chaos run against the serial path, and one shard's wire
round trip, whose records must stay within their packed state plus a
fixed header (it prints the bytes per replica).  Exit 0 = healthy.

``--chaos-smoke`` is the CI resilience gate: for each worker count it
runs one fleet under a deterministic fault plan that exercises every
recovery path — a chaos-killed worker (respawn + retry), a hang past
the per-shard deadline (straggler kill + in-process degradation), and
a poisoned result (quarantine + retry) — and requires the results to
be bitwise-identical to the fault-free serial reference, with no
leaked segments and no zombie workers.  It finishes with the service
drill: a checkpointed :class:`~repro.dynamic.service.MISService` is
chaos-killed (and journal-torn) mid-stream and must resume to the
bitwise-identical trajectory of an uninterrupted run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

import numpy as np


def _fleet(replicas: int, n: int = 48, p: float = 0.1) -> list:
    """A deterministic TwoStateMIS fleet on one shared G(n, p) graph."""
    from repro.core.two_state import TwoStateMIS
    from repro.graphs.random_graphs import gnp_random_graph

    graph = gnp_random_graph(n, p, rng=11)
    return [TwoStateMIS(graph, coins=1000 + i) for i in range(replicas)]


def _reference(replicas: int, max_rounds: int) -> list:
    from repro.sim.runner import run_many_until_stable

    return run_many_until_stable(_fleet(replicas), max_rounds=max_rounds)


def _identical(ref: list, got: list) -> bool:
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


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{status:>4}] {label}{suffix}")
    return ok


def doctor() -> int:
    """Run the machinery self-check; returns a process exit code."""
    from repro.parallel.chaos import CHAOS_KILL_EXIT, ChaosPolicy
    from repro.parallel.fleet import shard_ranges
    from repro.parallel.shared_graph import leaked_segments
    from repro.parallel.supervisor import SupervisedPool
    from repro.sim.runner import run_many_until_stable

    print("repro.parallel doctor")
    healthy = _check(
        "no pre-existing leaked segments",
        leaked_segments() == [],
        ", ".join(leaked_segments()),
    )

    replicas, max_rounds = 16, 400
    ref = _reference(replicas, max_rounds)

    with SupervisedPool(2) as pool:
        healthy &= _check(
            "worker spawn", pool.workers == 2, f"{pool.workers} workers"
        )
        results = run_many_until_stable(
            _fleet(replicas), max_rounds=max_rounds, pool=pool
        )
        healthy &= _check(
            "clean supervised run matches serial", _identical(ref, results)
        )

    # Crash/respawn drill: kill attempt 0 of every shard, then watch
    # the supervisor respawn the workers and retry the shards.
    ranges = shard_ranges(replicas, 2)
    plan = {(tuple(r), 0): "kill" for r in ranges}
    with SupervisedPool(2, chaos=ChaosPolicy.scripted(plan)) as pool:
        results = run_many_until_stable(
            _fleet(replicas), max_rounds=max_rounds, pool=pool
        )
        kinds = [event.kind for event in pool.events]
        healthy &= _check(
            "crash detection + respawn",
            pool.respawns >= len(ranges) and "respawn" in kinds,
            f"{pool.respawns} respawns, exit code {CHAOS_KILL_EXIT}",
        )
        healthy &= _check("shard retry after crash", "retry" in kinds)
        healthy &= _check(
            "post-crash results match serial", _identical(ref, results)
        )
        zombies = pool.close()
        healthy &= _check("shutdown leaves no zombies", zombies == [])

    healthy &= _wire_check()
    healthy &= _check(
        "no leaked segments after runs",
        leaked_segments() == [],
        ", ".join(leaked_segments()),
    )
    print("healthy" if healthy else "UNHEALTHY")
    return 0 if healthy else 1


def _wire_check(replicas: int = 8, n: int = 4096) -> bool:
    """Round-trip one shard through the wire format and bound its size.

    Encodes a 2-state shard, runs it in-process exactly as a worker
    would, decodes the returned records and restores them: the
    processes must end bitwise where the serial path leaves them, and
    every record, in and out, must stay within its packed state plus
    :data:`~repro.core.replica.RECORD_HEADER_BYTES` — a shard that
    shipped process objects again would blow the bound.
    """
    from repro.core.replica import RECORD_HEADER_BYTES
    from repro.core.two_state import TwoStateMIS
    from repro.graphs.random_graphs import gnp_random_graph
    from repro.parallel.fleet import decode_results
    from repro.parallel.jobs import GraphRegistry, ShardJob
    from repro.parallel.shared_graph import SharedGraphStore
    from repro.parallel.worker import run_shard
    from repro.sim.runner import run_many_until_stable

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


def _service_chaos_smoke() -> bool:
    """Kill a checkpointed MISService mid-stream; resume must be bitwise.

    The service analogue of the worker drills: a scripted
    ``ServiceChaosPolicy`` kills the daemon at one offset and tears the
    journal tail at another, and the restarted incarnations must finish
    with the state vector, per-event records, round counter, and MIS of
    an uninterrupted run — exactly.
    """
    import os
    import tempfile

    from repro.dynamic import MISService, make_stream, run_with_chaos
    from repro.graphs.random_graphs import gnp_random_graph
    from repro.parallel.chaos import ServiceChaosPolicy

    n, events = 192, 48
    graph = gnp_random_graph(n, 3.0 / n, rng=11)
    stream = make_stream("uniform", n, seed=7)
    ref = MISService(graph, stream, seed=5)
    ref.run(events)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "service.ckpt")
        chaos = ServiceChaosPolicy.scripted(
            {(events // 3, 0): "kill", (2 * events // 3, 0): "poison"}
        )

        def make_service() -> MISService:
            return MISService(
                graph, stream, seed=5, checkpoint=path, checkpoint_every=4
            )

        service, restarts = run_with_chaos(make_service, events, chaos)
        ok = (
            restarts == 2
            and np.array_equal(
                ref._state_arrays()[0], service._state_arrays()[0]
            )
            and [r.to_dict() for r in ref.records]
            == [r.to_dict() for r in service.records]
            and ref.proc.round == service.proc.round
            and np.array_equal(ref.mis(), service.mis())
        )
        service.close()
    print(
        f"  service: {'bitwise-equal' if ok else 'MISMATCH'} after "
        f"{restarts} kill/poison restarts over {events} events"
    )
    return ok


def chaos_smoke(
    worker_counts: list[int], replicas: int, deadline: float
) -> int:
    """Run the seeded kill/hang/poison matrix; returns an exit code."""
    from repro.parallel.chaos import ChaosPolicy
    from repro.parallel.fleet import shard_ranges
    from repro.parallel.retry import RetryPolicy
    from repro.parallel.shared_graph import leaked_segments
    from repro.parallel.supervisor import (
        SupervisedPool,
        iter_chaos_fault_plan,
    )
    from repro.sim.runner import run_many_until_stable

    max_rounds = 600
    print(
        f"chaos smoke: {replicas} replicas, workers {worker_counts}, "
        f"deadline {deadline}s"
    )
    ref = _reference(replicas, max_rounds)
    failed = False
    for workers in worker_counts:
        ranges = shard_ranges(replicas, workers)
        # One fault per shard, cycling through every recovery path.
        faults = ["kill", "hang", "poison"] * (len(ranges) // 3 + 1)
        chaos = ChaosPolicy.scripted(
            iter_chaos_fault_plan(ranges, faults[: len(ranges)]),
            hang_seconds=max(10 * deadline, 5.0),
            seed=workers,
        )
        start = time.time()
        with SupervisedPool(
            workers,
            chaos=chaos,
            deadline=deadline,
            retry=RetryPolicy(backoff_base=0.01),
        ) as pool:
            results = run_many_until_stable(
                _fleet(replicas),
                max_rounds=max_rounds,
                n_jobs=workers,
                pool=pool,
            )
            kinds = {event.kind for event in pool.events}
            zombies = pool.close()
        ok = _identical(ref, results)
        elapsed = time.time() - start
        print(
            f"  workers={workers}: {'bitwise-equal' if ok else 'MISMATCH'} "
            f"in {elapsed:.1f}s; events {sorted(kinds)}; "
            f"zombies {zombies}"
        )
        failed |= not ok
        failed |= bool(zombies)
        # Every recovery path the fault plan exercises must have fired.
        recovery = {
            "kill": ("respawn", "retry"),
            "hang": ("deadline-kill", "degrade"),
            "poison": ("quarantine", "retry"),
        }
        required = {
            kind
            for fault in faults[: len(ranges)]
            for kind in recovery[fault]
        }
        for kind in sorted(required):
            if kind not in kinds:
                print(f"  MISSING recovery path: {kind}")
                failed = True
    failed |= not _service_chaos_smoke()
    leaked = leaked_segments()
    if leaked:
        print(f"  LEAKED segments: {leaked}")
        failed = True
    print("chaos smoke: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.parallel")
    parser.add_argument(
        "--doctor", action="store_true",
        help="self-check workers, supervision, and shm hygiene",
    )
    parser.add_argument(
        "--chaos-smoke", action="store_true",
        help="run the seeded kill/hang/poison chaos matrix",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[2, 4], metavar="W",
        help="worker counts for --chaos-smoke (default: 2 4)",
    )
    parser.add_argument(
        "--replicas", type=int, default=96, metavar="R",
        help="fleet size for --chaos-smoke (default: 96)",
    )
    parser.add_argument(
        "--deadline", type=float, default=1.0, metavar="S",
        help="per-shard deadline for --chaos-smoke (default: 1.0s)",
    )
    args = parser.parse_args(argv)
    if not args.doctor and not args.chaos_smoke:
        parser.error("pass --doctor and/or --chaos-smoke")

    from repro.parallel.pool import install_signal_backstop

    install_signal_backstop()
    code = 0
    if args.doctor:
        code = max(code, doctor())
    if args.chaos_smoke:
        code = max(
            code, chaos_smoke(args.workers, args.replicas, args.deadline)
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
