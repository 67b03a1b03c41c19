"""Incremental frontier engine vs the PR 3 full-recompute path.

The acceptance workload for the frontier engine (ISSUE 4): a single
2-state run on G(n = 2¹⁸, 3/n).  The baseline is the PR 3 loop,
reconstructed faithfully: no incremental aggregates and no per-round
memoization, so ``_advance`` and every stability-protocol call issue
fresh full-graph reductions — exactly what that code did (three CSR
matvecs per round for a plain run, five to six for a
trajectory-recording run).

Two workloads are measured, both with bitwise-identical trajectories
asserted between the engines:

* ``trajectory`` — ``run_until_stable(..., record_trace=True)``, the
  shape of every trajectory experiment (E13/E15: |B_t|, |A_t|, |I_t|,
  |V_t| per round).  The frontier engine serves each snapshot from its
  maintained aggregates; the PR 3 path pays two extra reductions per
  round on top of the stabilization check.  **Asserted ≥ 5x.**
* ``plain`` — ``run_until_stable`` with no recording.  Here both
  engines pay the irreducible per-round ``bits(n)`` coin draw (§2.1
  discipline) and the run is only ~20 rounds, so the end-to-end ratio
  is smaller; asserted ≥ 2.5x and reported (typically ~4x).

Run standalone for the acceptance report::

    PYTHONPATH=src python benchmarks/bench_frontier.py

or under pytest-benchmark::

    pytest benchmarks/bench_frontier.py --benchmark-only

The ``--fast`` flag (or ``BENCH_FAST=1``) shrinks n to 2¹⁴ for the CI
smoke step; the equivalence checks are unchanged and the speedup
assertions drop to CI-safe floors (the ratios grow with n, so the
full-size bench is the binding one).
"""

import os
import sys
import time

import numpy as np

from repro.core.two_state import TwoStateMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.runner import run_until_stable

FAST = bool(int(os.environ.get("BENCH_FAST", "0"))) or "--fast" in sys.argv[1:]

N = (1 << 14) if FAST else (1 << 18)
C = 3.0
SEED = 1
MAX_ROUNDS = 100_000
REPEATS = 3

#: ISSUE 4 acceptance floor on the trajectory-recording workload.
MIN_TRAJECTORY_SPEEDUP = 2.5 if FAST else 5.0
#: Regression floor on the plain run (reported, modestly asserted).
MIN_PLAIN_SPEEDUP = 1.3 if FAST else 2.5

_GRAPH = gnp_random_graph(N, C / N, rng=0)


class PR3TwoStateMIS(TwoStateMIS):
    """The PR 3 full-recompute loop, reconstructed.

    No frontier aggregates and no memoization: every ``_advance`` /
    ``active_mask`` / ``stable_black_mask`` / ``covered_mask`` call
    issues a fresh full-graph reduction, as the original loop did.
    Trajectories are still bitwise-identical to the shipped process
    (asserted below), so the comparison is apples to apples.
    """

    def _frontier_aggregates(self):
        return None

    def _aggregate(self, key, compute):
        return compute()

    def _has_black_neighbor(self):
        return self.ops.exists(self.black)

    def _advance(self):
        black = self.black
        # A_t = (black & has) | (~black & ~has), i.e. elementwise XNOR.
        active = black == self._has_black_neighbor()
        phi = self.coins.bits(self.n)
        self.black = black ^ (active & (phi ^ black))


def _run(cls, record_trace):
    proc = cls(_GRAPH, coins=SEED)
    start = time.perf_counter()
    result = run_until_stable(
        proc,
        max_rounds=MAX_ROUNDS,
        record_trace=record_trace,
        verify=False,
    )
    elapsed = time.perf_counter() - start
    return elapsed, result, proc


def _measure_workload(record_trace):
    """(baseline s, frontier s, speedup) with equivalence asserts."""
    t_base = t_frontier = float("inf")
    base = frontier = None
    for _ in range(REPEATS):
        elapsed, base, _ = _run(PR3TwoStateMIS, record_trace)
        t_base = min(t_base, elapsed)
        elapsed, frontier, proc = _run(TwoStateMIS, record_trace)
        t_frontier = min(t_frontier, elapsed)
    # --- bitwise equivalence of the two paths -----------------------
    assert base.stabilization_round == frontier.stabilization_round
    assert np.array_equal(base.mis, frontier.mis)
    assert np.array_equal(base.mis, np.flatnonzero(proc.black))
    if record_trace:
        base_curves = base.trace.as_arrays()
        frontier_curves = frontier.trace.as_arrays()
        for key, curve in base_curves.items():
            assert np.array_equal(curve, frontier_curves[key]), key
    return {
        "baseline_s": t_base,
        "frontier_s": t_frontier,
        "speedup": t_base / t_frontier,
        "rounds": base.rounds_executed,
    }


def measure():
    """Both workloads, as a dict keyed by workload name."""
    return {
        "trajectory": _measure_workload(record_trace=True),
        "plain": _measure_workload(record_trace=False),
    }


def _assert_acceptance(results):
    trajectory = results["trajectory"]["speedup"]
    plain = results["plain"]["speedup"]
    assert trajectory >= MIN_TRAJECTORY_SPEEDUP, (
        f"trajectory-run speedup only {trajectory:.1f}x "
        f"(need >= {MIN_TRAJECTORY_SPEEDUP}x)"
    )
    assert plain >= MIN_PLAIN_SPEEDUP, (
        f"plain-run speedup only {plain:.1f}x "
        f"(need >= {MIN_PLAIN_SPEEDUP}x)"
    )


def test_frontier_acceptance(benchmark):
    """The ISSUE 4 acceptance criterion, measured end to end."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    _assert_acceptance(results)


def test_frontier_single_run(benchmark):
    benchmark.pedantic(
        lambda: _run(TwoStateMIS, False),
        rounds=3,
        iterations=1,
    )


def test_full_recompute_single_run(benchmark):
    benchmark.pedantic(
        lambda: _run(PR3TwoStateMIS, False), rounds=3, iterations=1
    )


if __name__ == "__main__":
    mode = "fast (CI smoke)" if FAST else "full"
    results = measure()
    print(
        f"G(n=2^{N.bit_length() - 1}, 3/n), m={_GRAPH.m}, "
        f"mode: {mode}, {results['plain']['rounds']} rounds to stabilize"
    )
    for name, r in results.items():
        print(
            f"  {name:10s}: PR3 full-recompute {r['baseline_s'] * 1e3:7.1f}ms"
            f"   frontier {r['frontier_s'] * 1e3:6.1f}ms"
            f"   speedup {r['speedup']:5.2f}x"
        )
    _assert_acceptance(results)
    print(
        f"  acceptance: trajectory >= {MIN_TRAJECTORY_SPEEDUP}x and "
        f"plain >= {MIN_PLAIN_SPEEDUP}x both hold "
        "(trajectories bitwise-identical)"
    )
