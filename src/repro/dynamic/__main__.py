"""Self-check CLI for the dynamic-graph MIS service.

Usage::

    python -m repro.dynamic --doctor [--n N] [--events K]

``--doctor`` verifies the whole churn stack on *this* machine, pinning
the contracts the test suite asserts at scale:

* overlay/CSR equivalence — a mutated :class:`~repro.dynamic.overlay.
  DeltaOverlay` snapshots and compacts to the same graph a from-scratch
  rebuild produces;
* lazy mirror merge — after a burst of flaps, a vertex kill and an
  attach, the sorted delta mirrors merged key by key equal mirrors
  rebuilt from the delta sets;
* local coverage recovery — after every ``"repair+recover"`` event,
  ``N+[I_t]`` and the unstable counter equal a fresh rebuild on the
  snapshot graph (the number of events checked is reported);
* repair == rebuild — a service with incremental frontier repair
  produces the bitwise-identical trajectory of one that rebuilds the
  aggregates after every event;
* kill/resume — a chaos-killed, checkpointed service resumes and
  finishes bitwise-identical to an uninterrupted run (records
  included);
* torn-tail resume — same, when the kill also tears the journal tail
  mid-record (the ``"poison"`` fault);
* group commit — the journal fsyncs once per snapshot (fsyncs per event
  are reported), and zero-filling the middle of the unsynced records
  after the last snapshot, across line boundaries, still resumes
  bitwise-identical.

Exit 0 = healthy.  ``make churn-smoke`` runs this plus the fast E20.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{status:>4}] {label}{suffix}")
    return ok


def _records(service) -> list[dict]:
    return [r.to_dict() for r in service.records]


def _coverage_exact(service) -> bool:
    """``covered``/``unstable_total`` == a rebuild on the snapshot graph."""
    from repro.core.frontier import FrontierAggregates
    from repro.core.neighbor_ops import make_neighbor_ops

    token, black, aux = service._state_arrays()
    frontier = service.proc._frontier
    snap = service.overlay.snapshot()
    fresh = FrontierAggregates(
        snap, make_neighbor_ops(snap), track_aux=frontier.track_aux
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


def doctor(n: int, events: int) -> int:
    """Run the dynamic-stack self-check; returns a process exit code."""
    from repro.dynamic import DeltaOverlay, MISService, make_stream, run_with_chaos
    from repro.dynamic.mutations import STREAM_KINDS
    from repro.graphs.random_graphs import gnp_random_graph
    from repro.parallel.chaos import ServiceChaosPolicy
    from repro.sim.checkpoint import CheckpointJournal

    print(f"repro.dynamic doctor (n={n}, events={events})")
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

    # Kill/resume and torn-tail resume under scripted chaos.
    mid = events // 2
    for label, fault in (("kill/resume", "kill"), ("torn-tail resume", "poison")):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "service.ckpt")
            chaos = ServiceChaosPolicy.scripted({(mid, 0): fault})

            def make_service() -> MISService:
                return MISService(
                    graph, stream, seed=1, checkpoint=path, checkpoint_every=5
                )

            service, restarts = run_with_chaos(make_service, events, chaos)
            ok = (
                restarts == 1
                and np.array_equal(
                    ref._state_arrays()[0], service._state_arrays()[0]
                )
                and _records(ref) == _records(service)
            )
            service.close()
            healthy &= _check(
                f"{label} is bitwise-identical",
                ok,
                f"{restarts} restart(s) at offset {mid}",
            )

    # Group commit: records after the last snapshot are unsynced, so a
    # crash may zero-fill any of them; resume must not care.
    every = 5
    stop = every * (mid // every) + 3  # three records past the last snapshot
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
            resumed_at == stop - 3
            and np.array_equal(
                ref._state_arrays()[0], resumed._state_arrays()[0]
            )
            and _records(ref) == _records(resumed),
            f"{hi - lo} bytes zero-filled across {len(tail)} records, "
            f"resumed at offset {resumed_at}",
        )

    print("healthy" if healthy else "UNHEALTHY")
    return 0 if healthy else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.dynamic")
    parser.add_argument(
        "--doctor", action="store_true",
        help="self-check the overlay, service, and kill/resume contracts",
    )
    parser.add_argument(
        "--n", type=int, default=256, metavar="N",
        help="vertex count for the doctor graph (default: 256)",
    )
    parser.add_argument(
        "--events", type=int, default=60, metavar="K",
        help="mutation-stream length for the doctor run (default: 60)",
    )
    args = parser.parse_args(argv)
    if not args.doctor:
        parser.error("pass --doctor")
    return doctor(args.n, args.events)


if __name__ == "__main__":
    sys.exit(main())
