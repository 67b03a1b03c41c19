"""Batched frontier engine vs the PR 2 full-reduction batched path.

The acceptance workload for the batched frontier engine (ISSUE 5): a
Monte-Carlo fleet of 256 independent 2-state replicas on per-trial
resampled G(n = 4096, 3/n) — the E4 sweep shape, riding the
block-diagonal CSR path — run to stabilization by
:class:`~repro.core.batched.BatchedTwoStateMIS` (incremental
per-replica counts, pair-set tail rounds, O(1) retirement) against
:class:`FullBatchedTwoStateMIS`, the same engine with
``supports_frontier = False`` (the original batched loop: one
``(R, n)`` count reduction plus a coverage reduction every round).

Two fleet shapes are measured, each with bitwise-identical per-replica
results asserted between the engines:

* ``recovery`` — the *tail-heavy* acceptance workload: the fleet is
  first run to stabilization, then ``WAVES`` transient-fault waves hit
  it — each wave corrupts every replica at ``CORRUPT`` random vertices
  (the paper's self-stabilization scenario, E11's shape) and re-runs
  the same engine to stabilization (engines re-adopt process state per
  :meth:`run`, so the block CSR is built once per fleet).  This is
  exactly the regime the ISSUE's motivation names — every round leaves
  each replica with only a handful of active vertices, yet the
  full-reduction path still pays two whole ``(R, n)`` reductions per
  round.  Timed: the recovery runs.  **Asserted ≥ 3x at full size.**
* ``fleet`` — the same 256 replicas from random initial
  configurations.  Here the first rounds move a constant fraction of
  every graph and cost the same in both engines (the frontier runs
  them as bulk rounds), so the end-to-end ratio is bounded by the
  workload's bulk/tail mix; asserted ≥ 1.4x and reported (typically
  ~1.8-2x).

Run standalone for the acceptance report::

    PYTHONPATH=src python benchmarks/bench_batched_frontier.py

or under pytest-benchmark::

    pytest benchmarks/bench_batched_frontier.py --benchmark-only

The ``--fast`` flag (or ``BENCH_FAST=1``) shrinks the fleet for the CI
smoke step; equivalence is still asserted bitwise — a batched-frontier
regression fails the step — but *this module's* speedup floors are
only enforced at full scale, where timing noise cannot flake the build
(the bench_batched_families.py convention).  The fast-mode numbers are
still perf-gated, deliberately loosely: ``emit_bench_json.py`` records
them into ``BENCH_batched_frontier.json`` with conservative per-entry
floors that ``tools/check_bench.py`` enforces in CI.
"""

import os
import sys
import time

import numpy as np

from repro.core.batched import BatchedTwoStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.rng import spawn_seeds

FAST = bool(int(os.environ.get("BENCH_FAST", "0"))) or "--fast" in sys.argv[1:]

N = 1024 if FAST else 4096
C = 3.0
TRIALS = 64 if FAST else 256
#: Corrupted vertices per replica, and fault waves, in the recovery
#: workload.
CORRUPT = 8 if FAST else 16
WAVES = 2 if FAST else 3
SEED = 1
MAX_ROUNDS = 100_000
REPEATS = 2 if FAST else 4

#: ISSUE 5 acceptance floor on the tail-heavy (recovery) workload.
MIN_RECOVERY_SPEEDUP = None if FAST else 3.0
#: Regression floor on the clean-start fleet (reported, modestly
#: asserted — its first rounds are bulk rounds in both engines).
MIN_FLEET_SPEEDUP = None if FAST else 1.4

_SEEDS = spawn_seeds(SEED, TRIALS)
#: Per-trial resampled graphs (immutable; shared across timed runs).
_GRAPHS = [
    gnp_random_graph(N, C / N, rng=np.random.default_rng(s))
    for s in _SEEDS
]


class FullBatchedTwoStateMIS(BatchedTwoStateMIS):
    """The full-reduction batched loop: no incremental aggregates."""

    supports_frontier = False


def _build_fleet():
    """Fresh replicas (per-trial graphs, independent coin streams)."""
    return [
        TwoStateMIS(graph, coins=s) for graph, s in zip(_GRAPHS, _SEEDS)
    ]


def _corrupt(processes, wave):
    """Flip ``CORRUPT`` random vertices black in every replica."""
    for s, process in zip(_SEEDS, processes):
        rng = np.random.default_rng(s + 0xC0FFEE + 7919 * wave)
        idx = rng.choice(N, size=CORRUPT, replace=False)
        process.corrupt_vertices(idx, black=True)


def _run(build, engine_cls):
    processes = build()
    start = time.perf_counter()
    results = engine_cls(processes).run(MAX_ROUNDS, verify=False)
    return time.perf_counter() - start, results


def _run_recovery(engine_cls):
    """Stabilize a fresh fleet, then time ``WAVES`` fault recoveries."""
    processes = _build_fleet()
    BatchedTwoStateMIS(processes).run(MAX_ROUNDS, verify=False)
    runner = engine_cls(processes)
    elapsed = 0.0
    results = []
    for wave in range(WAVES):
        _corrupt(processes, wave)
        start = time.perf_counter()
        results.append(runner.run(MAX_ROUNDS, verify=False))
        elapsed += time.perf_counter() - start
    return elapsed, [r for wave in results for r in wave]


def _assert_identical(full, frontier):
    assert len(full) == len(frontier)
    for a, b in zip(full, frontier):
        assert a.stabilized == b.stabilized
        assert a.stabilization_round == b.stabilization_round
        assert a.rounds_executed == b.rounds_executed
        if a.mis is None:
            assert b.mis is None
        else:
            assert np.array_equal(a.mis, b.mis)


def _measure_workload(run_one):
    """(full s, frontier s, speedup) with per-replica identity asserts."""
    t_full = t_frontier = float("inf")
    rounds = 0
    for _ in range(REPEATS):
        elapsed, full = run_one(FullBatchedTwoStateMIS)
        t_full = min(t_full, elapsed)
        elapsed, frontier = run_one(BatchedTwoStateMIS)
        t_frontier = min(t_frontier, elapsed)
        _assert_identical(full, frontier)
        rounds = max(r.rounds_executed for r in full)
    return {
        "full_s": t_full,
        "frontier_s": t_frontier,
        "speedup": t_full / t_frontier,
        "rounds": rounds,
    }


def measure():
    """Both fleet shapes, as a dict keyed by workload name."""
    return {
        "recovery": _measure_workload(_run_recovery),
        "fleet": _measure_workload(
            lambda engine_cls: _run(_build_fleet, engine_cls)
        ),
    }


def _assert_acceptance(results):
    recovery = results["recovery"]["speedup"]
    fleet = results["fleet"]["speedup"]
    if MIN_RECOVERY_SPEEDUP is not None:
        assert recovery >= MIN_RECOVERY_SPEEDUP, (
            f"tail-heavy recovery speedup only {recovery:.2f}x "
            f"(need >= {MIN_RECOVERY_SPEEDUP}x)"
        )
    if MIN_FLEET_SPEEDUP is not None:
        assert fleet >= MIN_FLEET_SPEEDUP, (
            f"clean-fleet speedup only {fleet:.2f}x "
            f"(need >= {MIN_FLEET_SPEEDUP}x)"
        )


def test_batched_frontier_acceptance(benchmark):
    """The ISSUE 5 acceptance criterion, measured end to end."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    _assert_acceptance(results)


def test_batched_frontier_fleet(benchmark):
    benchmark.pedantic(
        lambda: _run(_build_fleet, BatchedTwoStateMIS),
        rounds=REPEATS,
        iterations=1,
    )


def test_batched_full_fleet(benchmark):
    benchmark.pedantic(
        lambda: _run(_build_fleet, FullBatchedTwoStateMIS),
        rounds=REPEATS,
        iterations=1,
    )


if __name__ == "__main__":
    mode = "fast (CI smoke)" if FAST else "full"
    results = measure()
    print(
        f"{TRIALS} x 2-state G({N}, 3/n) (per-trial resampled, "
        f"block-diagonal path), mode: {mode}"
    )
    print(
        f"  recovery workload: {WAVES} waves x {CORRUPT} faults/replica"
    )
    for name, r in results.items():
        print(
            f"  {name:9s}: full-reduction {r['full_s'] * 1e3:7.1f}ms"
            f"   frontier {r['frontier_s'] * 1e3:6.1f}ms"
            f"   speedup {r['speedup']:5.2f}x"
            f"   ({r['rounds']} rounds)"
        )
    _assert_acceptance(results)
    if not FAST:
        print(
            f"  acceptance: recovery >= {MIN_RECOVERY_SPEEDUP}x and "
            f"fleet >= {MIN_FLEET_SPEEDUP}x both hold "
            "(per-replica results bitwise-identical)"
        )
    else:
        print("  per-replica results bitwise-identical on both workloads")
