"""Self-tests of the benchmark, at a small scale.

* Two traced runs of each workload, each in a fresh process, report
  identical deterministic counts and the same trajectory fingerprint.
* Span coverage: every layer the workload should exercise fires, and
  the layers it bypasses read exactly zero.
* The metric names match ``BENCHMARK.json``.
* A wrong MIS fails the command even when the program's own
  verification is switched off.
* No process the command started outlives it.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Small scales: the fleet graph stays above the dense-backend size, so its
#: batched frontier engages; the churn graph is small enough to compact.
SCALES = {"solve": "0.04", "fleet_recovery": "0.04", "churn": "0.005"}
WORKLOADS = tuple(SCALES)

#: Counts that must repeat exactly between two traced runs at one seed.
DETERMINISTIC = (
    "run.rounds",
    "rng.draws",
    "rng.coins_drawn",
    "neighbor_ops.reductions",
    "neighbor_ops.scatter_edges",
    "checkpoint.appends",
    "checkpoint.bytes",
    "parallel.pickled_bytes",
    "parallel.shm_bytes",
)

#: Per-layer metrics each workload must move above zero.
FIRES = {
    "solve": (
        "graphs.generate_s", "graphs.edge_arrays_calls", "rng.draws", "rng.coins_drawn",
        "rng.draw_s", "rng.coins_used_fraction", "neighbor_ops.reductions",
        "neighbor_ops.scatters", "neighbor_ops.gathers", "frontier.advance_s",
        "frontier.rebuilds", "frontier.scatter_rounds", "frontier.full_rounds",
        "process.stability_checks", "verify.calls", "verify.s", "run.rounds",
    ),
    "fleet_recovery": (
        "graphs.generate_s", "graphs.edge_arrays_calls", "rng.draws", "rng.coins_drawn",
        "rng.coins_used_fraction", "neighbor_ops.reductions", "neighbor_ops.scatters",
        "neighbor_ops.gathers", "batched_frontier.advance_s", "batched_frontier.full_rounds",
        "batched_frontier.rebuilds", "batched_frontier.filter_s", "verify.calls",
        "parallel.pool_spawn_s", "parallel.pickled_bytes", "parallel.pickle_s",
        "parallel.shm_bytes", "parallel.shm_publish_s", "parallel.dispatch_s",
        "parallel.worker_busy_s", "checkpoint.appends", "checkpoint.bytes",
        "checkpoint.append_s", "run.rounds",
    ),
    "churn": (
        "graphs.generate_s", "rng.draws", "rng.coins_used_fraction", "neighbor_ops.scatters",
        "neighbor_ops.gathers", "frontier.advance_s", "frontier.topology_repairs",
        "frontier.topology_delta_s",
        "process.stability_checks", "checkpoint.appends", "checkpoint.bytes",
        "overlay.apply_s", "overlay.compactions", "overlay.compact_s", "overlay.correction_s",
        "service.settle_rounds", "service.repairs", "service.apply_s", "service.event_at_s",
        "service.read_s", "run.rounds",
    ),
}

#: Layers each workload bypasses: every metric with these prefixes reads 0.
BYPASSED = {
    "solve": ("parallel.", "overlay.", "checkpoint.", "batched_frontier.", "service.",
              "frontier.topology_"),
    "fleet_recovery": ("frontier.", "overlay.", "service."),
    "churn": ("verify.", "parallel.", "batched_frontier."),
}


def _command(workload: str, trace: int) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--scale", SCALES[workload]]


def _finish(proc: subprocess.Popen) -> tuple[int, dict, list[str]]:
    out, err = proc.communicate(timeout=600)
    lines = out.strip().splitlines()
    assert lines, err
    return proc.returncode, json.loads(lines[-1]), lines


@cache
def traced_runs() -> dict[str, list[tuple[int, dict, list[str]]]]:
    """Two traced runs per workload, started together, each a fresh process."""
    procs = {
        w: [subprocess.Popen(_command(w, 1), cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) for _ in range(2)]
        for w in WORKLOADS
    }
    return {w: [_finish(p) for p in ps] for w, ps in procs.items()}


def _metrics(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def _fingerprint(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("fingerprint "))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_are_correct(workload):
    for code, result, _ in traced_runs()[workload]:
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat_exactly(workload):
    (_, first, first_lines), (_, second, second_lines) = traced_runs()[workload]
    a, b = _metrics(first), _metrics(second)
    assert {k: a[k] for k in DETERMINISTIC} == {k: b[k] for k in DETERMINISTIC}
    assert first["attempted"] == second["attempted"]
    assert _fingerprint(first_lines) == _fingerprint(second_lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_coverage(workload):
    metrics = _metrics(traced_runs()[workload][0][1])
    silent = [name for name in FIRES[workload] if not metrics[name] > 0]
    assert not silent, f"{workload}: layers that should fire read 0: {silent}"
    leaked = [
        name for name, value in metrics.items()
        if name.startswith(BYPASSED[workload]) and value != 0
    ]
    assert not leaked, f"{workload}: bypassed layers read non-zero: {leaked}"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for runs in traced_runs().values():
        metrics = runs[0][1]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == per_layer
    code, result, _ = _finish(subprocess.Popen(
        _command("solve", 0), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True))
    assert code == 0 and result["correct"]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == end_to_end
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _session_members(sid: int) -> list[int]:
    """Pids of live processes in session ``sid``, read from ``/proc``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while listed
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_the_command():
    # The fleet's shared memory starts multiprocessing's resource tracker.
    proc = subprocess.Popen(_command("fleet_recovery", 0), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    code, result, _ = _finish(proc)
    assert code == 0 and result["correct"]
    assert _session_members(proc.pid) == []


BROKEN = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import repro.sim.runner
from repro.core.process import MISProcess
repro.sim.runner.assert_valid_mis = lambda graph, members: None
mis = MISProcess.mis
MISProcess.mis = lambda self: mis(self)[1:]
import run
sys.exit(run.main({argv!r}))
"""


def test_wrong_mis_fails_the_command():
    argv = _command("solve", 0)[2:]
    code = BROKEN.format(src=str(ROOT / "src"), here=str(HERE), argv=argv)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
