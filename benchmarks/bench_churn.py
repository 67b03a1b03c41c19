"""MIS-service churn: incremental repair vs per-event aggregate rebuild.

The acceptance workload for the dynamic layer (PR 10): an
:class:`~repro.dynamic.service.MISService` consuming a seeded uniform
mutation stream on G(n, 3/n) and re-stabilizing after every event.
Two arms, bitwise-identical by construction (asserted on the final
state vector *and* every per-event recovery-round count):

* ``repair``  — the shipped path: the frontier aggregates are patched
  in place from the touched endpoints
  (:meth:`~repro.core.frontier.FrontierAggregates.apply_topology_delta`),
  so an event costs O(degree of its endpoints).
* ``rebuild`` — ``repair=False``: every event invalidates the
  aggregates and the next stability check reconstructs them from a
  full O(m) reduction — what the service would cost without the
  tentpole.

Reported and asserted:

* **repair speedup** — rebuild seconds / repair seconds.  Grows with n
  (the repair cost is O(1)-ish while the rebuild cost is O(m));
  asserted ≥ :data:`MIN_SPEEDUP`.
* **mutation throughput** — events/s through the repair arm, settles
  included; asserted ≥ :data:`FLOOR_EVENTS_PER_S` (CI-safe).
* **query latency** — mean ``is_member`` seconds over a cold sweep
  (reported; it is an O(1) mask read).
* **drift** — events/s in the first and the last
  :data:`DRIFT_BLOCK`-event block of one unjournaled service run that
  is never restarted, for as many blocks as fit before the overlay's
  delta could cross the compaction threshold (a quarter of the base
  edges), with the delta fraction reached.  Report-only: no floor.

Run standalone for the acceptance report::

    PYTHONPATH=src python benchmarks/bench_churn.py

or under pytest-benchmark::

    pytest benchmarks/bench_churn.py --benchmark-only

The ``--fast`` flag (or ``BENCH_FAST=1``) shrinks n to 2¹² for the CI
smoke step; the equivalence asserts are unchanged and the floors drop
to CI-safe values (the ratio grows with n, so the full-size bench is
the binding one).
"""

import os
import sys
import time

import numpy as np

from repro.dynamic import MISService, make_stream
from repro.graphs.random_graphs import gnp_random_graph

FAST = bool(int(os.environ.get("BENCH_FAST", "0"))) or "--fast" in sys.argv[1:]

N = (1 << 12) if FAST else (1 << 16)
C = 3.0
EVENTS = 256 if FAST else 1024
SEED = 2
REPEATS = 3
QUERIES = 10_000

#: Acceptance floor on rebuild-seconds / repair-seconds.  Measured
#: ~2.3x fast / ~4.6x full on an unloaded runner; asserted loose for
#: CI-safety.
MIN_SPEEDUP = 1.3 if FAST else 2.5

#: CI-safe floor on mutation throughput through the repair arm
#: (events/s, settles included).  Measured ~7000 fast / ~1500 full.
FLOOR_EVENTS_PER_S = 500.0 if FAST else 300.0

#: Drift line block length (events).
DRIFT_BLOCK = 256 if FAST else 2048

_GRAPH = gnp_random_graph(N, C / N, rng=0)
_STREAM = make_stream("uniform", N, seed=1)


def _run(repair: bool):
    service = MISService(_GRAPH, _STREAM, seed=SEED, repair=repair)
    start = time.perf_counter()
    service.run(EVENTS)
    elapsed = time.perf_counter() - start
    return elapsed, service


def measure():
    """(repair s, rebuild s, speedup, events/s, query s) with asserts."""
    t_repair = t_rebuild = float("inf")
    repair_svc = rebuild_svc = None
    for _ in range(REPEATS):
        elapsed, repair_svc = _run(repair=True)
        t_repair = min(t_repair, elapsed)
        elapsed, rebuild_svc = _run(repair=False)
        t_rebuild = min(t_rebuild, elapsed)
    # --- bitwise equivalence of the two arms --------------------------
    assert np.array_equal(
        repair_svc._state_arrays()[0], rebuild_svc._state_arrays()[0]
    )
    assert [r.rounds for r in repair_svc.records] == [
        r.rounds for r in rebuild_svc.records
    ]
    assert repair_svc.repairs > 0 and rebuild_svc.rebuilds > 0
    # --- query latency (cold sweep across the vertex range) ----------
    start = time.perf_counter()
    for u in range(QUERIES):
        repair_svc.is_member(u % N)
    query_s = (time.perf_counter() - start) / QUERIES
    return {
        "repair_s": t_repair,
        "rebuild_s": t_rebuild,
        "speedup": t_rebuild / t_repair,
        "events_per_s": EVENTS / t_repair,
        "query_s": query_s,
        "repairs": repair_svc.repairs,
        "compactions": repair_svc.overlay.compactions,
    }


def measure_drift():
    """(first-block events/s, last-block events/s, delta fraction, compactions)."""
    service = MISService(_GRAPH, _STREAM, seed=SEED)
    overlay = service.overlay
    rates = []
    # An event moves the delta by at most one edge, so no block compacts.
    limit = overlay.compact_fraction * overlay.base.m
    while overlay.delta_size() + DRIFT_BLOCK <= limit:
        start = time.perf_counter()
        service.run(service.next_offset + DRIFT_BLOCK)
        rates.append(DRIFT_BLOCK / (time.perf_counter() - start))
    return rates[0], rates[-1], overlay.delta_fraction(), overlay.compactions


# --------------------------------------------------------------------------
# pytest-benchmark entry points
# --------------------------------------------------------------------------


def test_e20_regenerate(regen):
    regen("E20")


def test_churn_repair_vs_rebuild(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert result["speedup"] >= MIN_SPEEDUP
    assert result["events_per_s"] >= FLOOR_EVENTS_PER_S


# --------------------------------------------------------------------------
# standalone acceptance report
# --------------------------------------------------------------------------


def main() -> None:
    mode = "fast" if FAST else "full"
    print(
        f"churn bench ({mode}): {EVENTS} uniform events on "
        f"G(n={N}, {C:g}/n), settle after every event"
    )
    r = measure()
    print(
        f"  repair:  {r['repair_s'] * 1e3:8.1f}ms  "
        f"({r['events_per_s']:.0f} events/s, "
        f"{r['repairs']} repairs, {r['compactions']} compactions)"
    )
    print(f"  rebuild: {r['rebuild_s'] * 1e3:8.1f}ms")
    print(
        f"  speedup: {r['speedup']:.2f}x (floor {MIN_SPEEDUP}x); "
        f"is_member {r['query_s'] * 1e6:.2f}us"
    )
    assert r["speedup"] >= MIN_SPEEDUP, (
        f"repair speedup {r['speedup']:.2f}x below floor {MIN_SPEEDUP}x"
    )
    assert r["events_per_s"] >= FLOOR_EVENTS_PER_S, (
        f"throughput {r['events_per_s']:.0f} events/s below floor "
        f"{FLOOR_EVENTS_PER_S:.0f}"
    )
    first, last, fraction, compactions = measure_drift()
    print(
        f"  drift:   {first:.0f} -> {last:.0f} events/s over "
        f"{DRIFT_BLOCK}-event blocks, up to a {fraction:.1%} delta "
        f"({compactions} compactions; report-only)"
    )
    print("PASS")


if __name__ == "__main__":
    main()
