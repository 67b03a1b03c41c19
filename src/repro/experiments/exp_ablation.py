"""E18 — design-choice ablations (DESIGN.md §6 table).

Two ablations on the 2-state process:

1. **Transition randomization (footnote 1).**  The paper's process
   randomizes the white→black promotion (probability 1/2) "because it
   simplifies our analysis"; the "natural" variant promotes eagerly
   (probability 1).  Measured across families, the two are within a
   small constant factor of each other — and at n = 1024 the
   *randomized* variant is in fact slightly faster on sparse graphs:
   eager promotion makes adjacent lonely-white vertices collide
   deterministically, while the coin breaks that symmetry.  The
   analysis choice is not just convenient; it is mildly helpful.

2. **Execution path.**  A small Monte-Carlo fleet on a sparse
   G(n, 3/n) run serially (:mod:`repro.core.frontier`) and batched
   (:mod:`repro.core.batched_frontier`), with identity verdicts: both
   paths must report the same per-seed stabilization round and MIS,
   and the serial path's black masks must equal the literal
   per-vertex reference (:class:`repro.core.reference.ReferenceTwoState`)
   round by round.  The wall-time column reports each path's cost;
   the incremental aggregates' payoff grows with n and with the
   fleet's tail (see ``benchmarks/bench_frontier.py`` and
   ``benchmarks/bench_batched_frontier.py`` for the asserted
   full-size numbers).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.two_state import TwoStateMIS
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.tables import format_table
from repro.graphs.generators import complete_graph
from repro.graphs.random_graphs import gnp_random_graph, random_tree
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.stats import mann_whitney_faster


@register("E18", "Ablations: transition randomization; execution path")
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    if fast:
        n = 256
        trials = 15
    else:
        n = 1024
        trials = 60

    # --- Ablation 1: eager vs randomized white→black ---
    workloads = {
        "K_n": lambda s: complete_graph(n),
        "G(n, 3 ln n/n)": lambda s: gnp_random_graph(
            n, 3 * math.log(n) / n, rng=s
        ),
        "tree": lambda s: random_tree(n, rng=s),
    }
    rows1 = []
    verdicts = {}
    for w_idx, (name, graph_of_seed) in enumerate(workloads.items()):
        budget = 500 * int(math.log2(n)) ** 2

        def factory(s, eager, mk=graph_of_seed):
            rng = np.random.default_rng(s)
            graph = mk(int(rng.integers(0, 2**31)))
            return TwoStateMIS(
                graph, coins=rng, eager_white_promotion=eager
            )

        randomized = estimate_stabilization_time(
            lambda s: factory(s, False), trials=trials,
            max_rounds=budget, seed=seed + 10 * w_idx,
        )
        eager = estimate_stabilization_time(
            lambda s: factory(s, True), trials=trials,
            max_rounds=budget, seed=seed + 10 * w_idx,
        )
        speedup = randomized.mean / max(eager.mean, 1e-9)
        randomized_wins = mann_whitney_faster(
            randomized.times, eager.times, alpha=0.001
        )
        eager_wins = mann_whitney_faster(
            eager.times, randomized.times, alpha=0.001
        )
        if randomized_wins["faster"]:
            direction = "randomized"
        elif eager_wins["faster"]:
            direction = "eager"
        else:
            direction = "tie"
        rows1.append(
            [name, randomized.mean, eager.mean, speedup, direction]
        )
        # The defensible claims: both stabilize everywhere, and the
        # variants stay within a small constant factor (the direction
        # of the difference is workload-dependent and reported, not
        # asserted — see the module docstring for the finding).
        verdicts[f"{name}: both variants always stabilize"] = (
            randomized.success_rate == 1.0 and eager.success_rate == 1.0
        )
        verdicts[f"{name}: variants within 2x of each other"] = (
            0.5 <= speedup <= 2.0
        )
    table1 = format_table(
        ["workload", "randomized mean", "eager mean", "speedup",
         "significantly faster"],
        rows1,
        title=f"Footnote-1 ablation at n={n} ({trials} trials)",
    )

    # --- Ablation 2: execution path (serial / batched vs reference) ---
    from repro.core.reference import ReferenceTwoState
    from repro.sim.rng import spawn_seeds
    from repro.sim.runner import run_many_until_stable, run_until_stable

    n_path = 8 * n
    replicas = 8 if fast else 16
    path_graph = gnp_random_graph(n_path, 3.0 / n_path, rng=seed + 9)
    replica_seeds = spawn_seeds(seed + 13, replicas)
    budget = 500 * int(math.log2(n_path)) ** 2

    path_results = {}
    rows2 = []
    for path in ("serial", "batched"):
        processes = [
            TwoStateMIS(path_graph, coins=s) for s in replica_seeds
        ]
        start = time.perf_counter()
        if path == "serial":
            results = [
                run_until_stable(p, max_rounds=budget) for p in processes
            ]
        else:
            results = run_many_until_stable(
                processes, max_rounds=budget, batch=replicas
            )
        elapsed = time.perf_counter() - start
        path_results[path] = results
        total_rounds = sum(r.rounds_executed for r in results)
        rows2.append(
            [
                path,
                float(np.mean([r.stabilization_round for r in results])),
                f"{elapsed * 1e3:.1f}ms",
                total_rounds / max(elapsed, 1e-9),
            ]
        )
    table2 = format_table(
        ["execution path", "mean stab. round", "wall time",
         "replica-rounds/s"],
        rows2,
        title=(
            f"Execution-path ablation: {replicas} replicas on "
            f"G({n_path}, 3/n)"
        ),
    )
    serial, batched = path_results["serial"], path_results["batched"]
    verdicts["serial and batched agree on every stabilization round"] = (
        [r.stabilization_round for r in serial]
        == [r.stabilization_round for r in batched]
    )
    verdicts["serial and batched agree on every MIS"] = all(
        np.array_equal(a.mis, b.mis) for a, b in zip(serial, batched)
    )
    # Every replica replays through the literal per-vertex reference,
    # compared round by round with a fresh serial process.
    matches = []
    for coin_seed, result in zip(replica_seeds, serial):
        proc = TwoStateMIS(path_graph, coins=coin_seed)
        reference = ReferenceTwoState(path_graph, coins=coin_seed)
        same = np.array_equal(proc.black, reference.black)
        for _ in range(result.rounds_executed):
            proc.step()
            reference.step()
            same = same and np.array_equal(proc.black, reference.black)
        matches.append(
            same
            and np.array_equal(np.flatnonzero(reference.black), result.mis)
        )
    verdicts["serial path matches the literal reference every round"] = all(
        matches
    )

    return ExperimentResult(
        experiment_id="E18",
        title="Design ablations (footnote 1; execution path)",
        tables=[table1, table2],
        verdicts=verdicts,
        data={
            "footnote1": rows1,
            "paths": rows2,
        },
    )
