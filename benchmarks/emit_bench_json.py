"""Emit the machine-readable perf trajectory (``BENCH_*.json``).

Runs the fast-mode variants of the acceptance benchmarks and writes
one JSON file per family at the repo root, each a list of
``{workload, mode, seconds, speedup, floor, commit}`` entries:

* ``BENCH_frontier.json``         — frontier engine vs the PR 3
  full-recompute path (``benchmarks/bench_frontier.py``);
* ``BENCH_substrate.json``        — CSR-native Graph vs the legacy
  tuple/set representation (``benchmarks/bench_graph_substrate.py``);
* ``BENCH_batched.json``          — batched vs serial Monte-Carlo
  trials (``benchmarks/bench_batched_trials.py``);
* ``BENCH_batched_frontier.json`` — batched frontier engine vs the
  PR 2 full-reduction batched path
  (``benchmarks/bench_batched_frontier.py``);
* ``BENCH_parallel.json``          — multi-core fleet sharding vs the
  serial in-process path (``benchmarks/bench_parallel_sweep.py``);
  its floors are *hardware-scaled* (a 1-core runner gates dispatch
  overhead, a 4-core one gates real scaling — see
  ``bench_parallel_sweep.scaling_floor``);
* ``BENCH_churn.json``             — the dynamic MIS service: frontier
  repair vs per-event aggregate rebuild, plus an absolute
  mutation-throughput gate (``benchmarks/bench_churn.py``).

Every ``workload`` string names the *exact* parameters the entry
measured (the fast/CI workload — not the full-size acceptance workload
whose floors the bench modules assert standalone), and ``mode`` makes
the distinction machine-readable; an earlier revision's
``BENCH_frontier.json`` read ambiguously because the label looked like
the full-size asserted benchmark.  ``floor`` is the entry's regression
gate: ``tools/check_bench.py`` (CI's last bench step) fails the build
if any committed entry's ``speedup`` drops below its ``floor``.

The files are the repo's perf trajectory: every commit that runs
``make bench-fast`` snapshots its speedups in a greppable, plottable
form.  Full-size numbers come from the individual benches'
``__main__`` reports; this emitter deliberately uses the fast (CI
smoke) workloads so it stays cheap enough to run on every commit.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench_json.py

(equivalently ``make bench-fast``).
"""

import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The bench modules read BENCH_FAST at import time.
os.environ["BENCH_FAST"] = "1"
sys.path.insert(0, str(ROOT / "benchmarks"))


def current_commit() -> str:
    """Short git hash of HEAD, ``-dirty`` when the tree has uncommitted
    changes (``"unknown"`` outside a checkout)."""
    try:
        out = subprocess.run(
            [
                "git", "describe", "--always", "--dirty", "--abbrev=7",
                "--exclude=*",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def entry(
    workload: str,
    seconds: float,
    speedup: float,
    floor: float,
    commit: str,
) -> dict:
    return {
        "workload": workload,
        "mode": "fast",
        "seconds": round(float(seconds), 6),
        "speedup": round(float(speedup), 3),
        "floor": float(floor),
        "commit": commit,
    }


def frontier_entries(commit: str) -> list[dict]:
    import bench_frontier as bf

    results = bf.measure()
    label = f"2-state G(n={bf.N}, 3/n), seed {bf.SEED}, single run"
    floors = {
        "trajectory": bf.MIN_TRAJECTORY_SPEEDUP,
        "plain": bf.MIN_PLAIN_SPEEDUP,
    }
    return [
        entry(
            f"frontier engine, {name} {label}",
            r["frontier_s"],
            r["speedup"],
            floors[name],
            commit,
        )
        for name, r in results.items()
    ]


def substrate_entries(commit: str) -> list[dict]:
    import bench_graph_substrate as bgs

    r = bgs._measure()
    label = f"G(n={bgs.N}, 3/n), seed {bgs.SEED}"
    return [
        entry(
            f"CSR substrate construction, {label}",
            r["t_csr"],
            r["speedup"],
            bgs.MIN_SPEEDUP,
            commit,
        ),
        entry(
            f"CSR substrate memory ratio, {label}",
            r["t_csr"],
            r["memory_ratio"],
            bgs.MIN_MEMORY_RATIO,
            commit,
        ),
    ]


def batched_entries(commit: str) -> list[dict]:
    import numpy as np

    import bench_batched_trials as bbt

    start = time.perf_counter()
    serial = bbt._run(None)
    mid = time.perf_counter()
    batched = bbt._run("auto")
    end = time.perf_counter()
    assert np.array_equal(serial.times, batched.times)
    return [
        entry(
            f"batched trials, {bbt.TRIALS} x 2-state "
            f"G(n={bbt.N}, p={bbt.P}), shared graph",
            end - mid,
            (mid - start) / (end - mid),
            # CI-safe regression floor; the full-size bench asserts 5x.
            2.5,
            commit,
        )
    ]


def batched_frontier_entries(commit: str) -> list[dict]:
    import bench_batched_frontier as bbf

    results = bbf.measure()
    label = (
        f"{bbf.TRIALS} x 2-state G(n={bbf.N}, 3/n), per-trial resampled"
    )
    # Deliberately loose CI-safe floors (a loaded shared runner shrinks
    # fast-mode ratios); the full-size bench asserts 3x / 1.4x.
    floors = {"recovery": 1.15, "fleet": 1.0}
    return [
        entry(
            f"batched frontier, "
            f"{'recovery' if name == 'recovery' else 'clean-start'} "
            f"fleet, {label}"
            + (
                f", {bbf.WAVES} waves x {bbf.CORRUPT} faults/replica"
                if name == "recovery"
                else ""
            ),
            r["frontier_s"],
            r["speedup"],
            floors[name],
            commit,
        )
        for name, r in results.items()
    ]


def parallel_entries(commit: str) -> list[dict]:
    import bench_parallel_sweep as bps

    results = bps.measure()
    floor = bps.scaling_floor(bps.WORKERS, full=False)
    label = (
        f"{bps.TRIALS} x 2-state G(n={bps.N}, 3/n), {bps.WORKERS} shards, "
        f"pool width {bps.resolve_n_jobs(bps.WORKERS)} "
        f"({bps.cpu_count()} usable core(s))"
    )
    return [
        entry(
            f"fleet sharding, {name} graphs, {label}",
            r["parallel_s"],
            r["speedup"],
            floor,
            commit,
        )
        for name, r in results.items()
    ]


def churn_entries(commit: str) -> list[dict]:
    import bench_churn as bc

    r = bc.measure()
    label = (
        f"{bc.EVENTS} uniform events on G(n={bc.N}, 3/n), "
        f"settle every event, seed {bc.SEED}"
    )
    return [
        entry(
            f"churn service, frontier repair vs per-event rebuild, {label}",
            r["repair_s"],
            r["speedup"],
            bc.MIN_SPEEDUP,
            commit,
        ),
        # Throughput entry: "speedup" is events/s over the asserted
        # floor, so check_bench's speedup >= floor gate (floor 1.0)
        # doubles as an absolute mutation-throughput gate.
        entry(
            f"churn service, mutation throughput "
            f"({r['events_per_s']:.0f} events/s / floor "
            f"{bc.FLOOR_EVENTS_PER_S:.0f}), {label}",
            r["repair_s"],
            r["events_per_s"] / bc.FLOOR_EVENTS_PER_S,
            1.0,
            commit,
        ),
    ]


def main() -> None:
    commit = current_commit()
    families = {
        "BENCH_frontier.json": frontier_entries,
        "BENCH_substrate.json": substrate_entries,
        "BENCH_batched.json": batched_entries,
        "BENCH_batched_frontier.json": batched_frontier_entries,
        "BENCH_parallel.json": parallel_entries,
        "BENCH_churn.json": churn_entries,
    }
    for filename, build in families.items():
        entries = build(commit)
        path = ROOT / filename
        path.write_text(json.dumps(entries, indent=2) + "\n")
        for e in entries:
            print(
                f"{filename}: {e['workload']}: "
                f"{e['seconds'] * 1e3:.1f}ms, {e['speedup']}x "
                f"(floor {e['floor']}x)"
            )


if __name__ == "__main__":
    main()
