"""Benchmark of the self-stabilizing MIS simulator: end-to-end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/workloads.py``): ``solve``, ``fleet_recovery`` and
``churn``.  Each run is one fresh process that builds the program from
``src/``, sets the workload up five times (the median is ``setup_s``)
and then:

* ``--trace 0`` repeats units of work for ``--seconds`` seconds and
  reports the end-to-end metrics: ``setup_s``, ``ops_per_s``,
  ``request_p50_ms`` and ``peak_rss_mb``;
* ``--trace 1`` times one fixed pass untraced, then the same pass with
  every layer wrapped (``perfbench/tracing.py``), and reports the
  per-layer metrics and ``trace.overhead_s``, the traced wall time
  minus the untraced one.

Every output is checked by the benchmark's own MIS check.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with
its unit, the workload's own timings and the environment.  The exit code
is 1 when any output was wrong, 2 when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One thread per BLAS/OpenMP pool, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per run; setup_s is their median
TRACED_PASSES = 3  # traced passes per --trace 1 run, each after an untraced one


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "fleet_recovery", "churn"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies graph sizes and replica counts (tests use small values)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.scale <= 0:
        parser.error("--seed must be >= 0 and --scale > 0")
    return args


def commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (workers not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, samples beyond)`` for the highest of p99.9, p99,
    p90 and p50 with at least ten samples beyond it, or ``None``."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0, 50.0):
        k = max(0, math.ceil(len(ordered) * pct / 100.0) - 1)
        beyond = len(ordered) - 1 - k
        if beyond >= 10:
            return pct, ordered[k], beyond
    return None


def end_to_end(workload_cls, args, tmp: Path, out: list[str]) -> tuple[dict, int, int]:
    """Set up ``SETUPS`` times, then repeat units of work for ``--seconds``."""
    setups = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = workload_cls(args.seed, args.scale, tmp)
        workload.setup(warmup=True)
        setups.append(time.perf_counter() - start)
    units = []
    try:
        start = time.perf_counter()
        while not units or time.perf_counter() - start < args.seconds:
            units.append(workload.unit(len(units)))
        units.append(workload.finish())
        pool = workload.pool_counts()
    finally:
        workload.close()
    requests = [s for u in units for s in u.requests]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(u.ops / u.seconds for u in units if u.ops), "1/s"),
        "request_p50_ms": (statistics.median(requests) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.append(f"units {len(units) - 1}, requests {len(requests)}, setups {setups}")
    high = tail(requests)
    if high is not None:
        pct, value, beyond = high
        out.append(f"detail request_p{pct:g}_ms {value * 1e3:.6g} ms "
                   f"({len(requests)} samples, {beyond} beyond)")
    for name, values in sorted(workload.samples.items()):
        unit = name.rsplit("_", 1)[1]
        out.append(f"detail {name} {statistics.median(values):.6g} {unit} "
                   f"(median of {len(values)})")
    for name, count in pool.items():
        out.append(f"detail pool.{name} {count} count")
    attempted = sum(u.ops for u in units)
    return metrics, attempted, sum(u.failed for u in units)


def fixed_pass(workload_cls, args, tmp: Path):
    """Set up without warm-up, run the traced units and finish; returns timings."""
    start = time.perf_counter()
    workload = workload_cls(args.seed, args.scale, tmp)
    try:
        workload.setup(warmup=False)
        units = [workload.unit(i) for i in range(workload.trace_units)]
        units.append(workload.finish())
        elapsed = time.perf_counter() - start
        pool = workload.pool_counts()
    finally:
        workload.close()
    return workload, units, elapsed, pool


def per_layer(workload_cls, args, tmp: Path, out: list[str]) -> tuple[dict, int, int]:
    """Alternate untraced and traced passes of the same work, then replay for coins.

    Span and counter totals add up over the ``TRACED_PASSES`` traced
    passes and are reported per pass; ``trace.overhead_s`` is the median
    traced pass minus the median untraced one.
    """
    from tracing import Tracer

    warm = workload_cls(args.seed, args.scale, tmp)
    try:
        warm.setup(warmup=True)
    finally:
        warm.close()
    spool = tmp / "spool"
    spool.mkdir()
    tracer = Tracer(spool)
    plain_s, traced_s, failed, pools = [], [], 0, []
    for _ in range(TRACED_PASSES):
        _, units, elapsed, _ = fixed_pass(workload_cls, args, tmp)
        plain_s.append(elapsed)
        failed += sum(u.failed for u in units)
        tracer.install()
        try:
            workload, units, elapsed, pool = fixed_pass(workload_cls, args, tmp)
        finally:
            tracer.uninstall()
        traced_s.append(elapsed)
        failed += sum(u.failed for u in units)
        pools.append(pool)
    own_busy = tracer.inclusive("parallel.worker_busy") / TRACED_PASSES
    busiest = max([own_busy, *tracer.merge_spool()])  # one worker, one pass
    coins_used = workload_cls(args.seed, args.scale, tmp).replay()

    def per_pass(total: float) -> float:
        return total // TRACED_PASSES if isinstance(total, int) and (
            total % TRACED_PASSES == 0) else total / TRACED_PASSES

    def calls(span: str) -> float:
        return per_pass(tracer.calls(span))

    def own(span: str) -> float:
        return tracer.self_time(span) / TRACED_PASSES

    c = {key: per_pass(value) for key, value in tracer.counts.items()}
    dispatch = tracer.inclusive("parallel.dispatch") / TRACED_PASSES
    metrics = {
        "graphs.generate_s": (own("graphs.generate"), "s"),
        "graphs.edge_arrays_calls": (calls("graphs.edge_arrays"), "count"),
        "graphs.edge_arrays_s": (own("graphs.edge_arrays"), "s"),
        "rng.draws": (calls("rng.draw"), "count"),
        "rng.coins_drawn": (c["rng.coins_drawn"], "count"),
        "rng.draw_s": (own("rng.draw"), "s"),
        "rng.coins_used_fraction": (coins_used, "fraction"),
    }
    for kind in ("reduction", "scatter", "gather"):
        metrics[f"neighbor_ops.{kind}s"] = (c[f"neighbor_ops.{kind}s"], "count")
        metrics[f"neighbor_ops.{kind}_edges"] = (c[f"neighbor_ops.{kind}_edges"], "edges")
        metrics[f"neighbor_ops.{kind}_s"] = (own(f"neighbor_ops.{kind}"), "s")
    metrics.update({
        "frontier.advance_s": (own("frontier.advance"), "s"),
        "frontier.rebuilds": (calls("frontier.rebuild"), "count"),
        "frontier.rebuild_s": (own("frontier.rebuild"), "s"),
        "frontier.scatter_rounds": (c["frontier.scatter_rounds"], "count"),
        "frontier.full_rounds": (c["frontier.full_rounds"], "count"),
        "frontier.topology_repairs": (c["frontier.topology_repairs"], "count"),
        "frontier.topology_rebuilds": (c["frontier.topology_rebuilds"], "count"),
        "frontier.topology_delta_s": (own("frontier.topology_delta"), "s"),
        "batched_frontier.advance_s": (
            own("batched_frontier.advance")
            + own("batched_frontier.full_round"), "s"),
        "batched_frontier.full_rounds": (c["batched_frontier.full_rounds"], "count"),
        "batched_frontier.rebuilds": (calls("batched_frontier.rebuild"), "count"),
        "batched_frontier.rebuild_s": (own("batched_frontier.rebuild"), "s"),
        "batched_frontier.filter_s": (own("batched_frontier.filter"), "s"),
        "process.stability_checks": (calls("process.stability_check"), "count"),
        "process.stability_check_s": (own("process.stability_check"), "s"),
        "verify.calls": (calls("verify"), "count"),
        "verify.s": (own("verify"), "s"),
        "parallel.pool_spawn_s": (own("parallel.pool_spawn"), "s"),
        "parallel.pickled_bytes": (c["parallel.pickled_bytes"], "bytes"),
        "parallel.pickle_s": (own("parallel.pickle"), "s"),
        "parallel.shm_bytes": (c["parallel.shm_bytes"], "bytes"),
        "parallel.shm_publish_s": (own("parallel.shm_publish"), "s"),
        "parallel.dispatch_s": (dispatch, "s"),
        "parallel.worker_busy_s": (busiest, "s"),
        "parallel.ipc_wait_s": (dispatch - busiest if dispatch else 0.0, "s"),
        **{f"parallel.{key}": (per_pass(sum(p[key] for p in pools)), "count")
           for key in ("respawns", "retries", "quarantines")},
        "checkpoint.appends": (calls("checkpoint.append"), "count"),
        "checkpoint.bytes": (c["checkpoint.bytes"], "bytes"),
        "checkpoint.append_s": (own("checkpoint.append"), "s"),
        "overlay.apply_s": (own("overlay.apply"), "s"),
        "overlay.compactions": (calls("overlay.compact"), "count"),
        "overlay.compact_s": (own("overlay.compact"), "s"),
        "overlay.correction_s": (own("overlay.correction"), "s"),
        "service.settle_rounds": (c["service.settle_rounds"], "count"),
        "service.repairs": (c["service.repairs"], "count"),
        "service.rebuilds": (c["service.rebuilds"], "count"),
        "service.apply_s": (own("service.apply"), "s"),
        "service.event_at_s": (own("service.event_at"), "s"),
        "service.read_s": (own("service.read"), "s"),
        "run.rounds": (workload.rounds, "count"),
        "trace.overhead_s": (statistics.median(traced_s) - statistics.median(plain_s), "s"),
    })
    out.append(f"untraced passes {plain_s} s, traced passes {traced_s} s")
    out.append(f"fingerprint {workload.digest.hexdigest()}")
    for name in sorted(tracer.spans):
        n_calls, inclusive, self_s = (per_pass(v) for v in tracer.spans[name])
        out.append(f"span {name} calls {n_calls:g} inclusive_s {inclusive:.6g} "
                   f"self_s {self_s:.6g} (per traced pass)")
    attempted = 2 * TRACED_PASSES * sum(u.ops for u in units)
    return metrics, attempted, failed


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Creating shared memory starts the tracker as a child that otherwise
    outlives this process until it reads end-of-file on its pipe.  Call
    it only once every worker is joined: they hold the pipe open too.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    finally:
        stop_resource_tracker()


def run(argv: list[str] | None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    out = [f"perfbench workload={args.workload} seed={args.seed} scale={args.scale:g} "
           f"seconds={args.seconds:g} trace={args.trace}",
           f"env {json.dumps(environment(), sort_keys=True)}"]
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed = measure(WORKLOADS[args.workload], args, tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    for name, (value, unit) in metrics.items():
        out.append(f"metric {name} {value:.6g} {unit}")
    out.append(f"detail failed_fraction {failed / max(attempted, 1):.6g} fraction "
               f"({failed} of {attempted} operations)")
    print("\n".join(out))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
