"""E19 — frontier scaling: the processes on million-vertex G(n, c/n).

The paper's headline claims (Theorems 19/32: polylog stabilization on
G(n, p)) only become empirically interesting at large n.  This
experiment rides the CSR-native :class:`~repro.graphs.graph.Graph`
substrate to the frontier: 2-state and 3-state stabilization-time
curves on sparse G(n, c/n) with n up to 10⁶ (``--full``), tracking the
process peak RSS and the substrate's bytes-per-edge footprint along
the way.

Verdicts assert the claim shape (sublinear growth of the mean
stabilization time — the observed growth is logarithmic), full
stabilization success within generous budgets, and that the CSR arrays
stay within a small constant number of bytes per edge (the property
that makes the frontier reachable at all).  The incremental
aggregates' own speedup is measured by ``benchmarks/bench_frontier.py``;
their per-round identity with the literal reference processes is
pinned by the differential oracle ``tests/test_oracle.py`` and E18.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.experiments.fitting import fit_power_law
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.montecarlo import estimate_stabilization_time

#: Mean degree of the sparse frontier workload G(n, c/n).
C = 3.0

#: Replica rows are capped so a batch holds at most this many state
#: cells — at n = 2²⁰ that is 16 replicas per (R, n) matrix.
_MAX_BATCH_CELLS = 1 << 24

#: Acceptance bound on the substrate footprint: CSR costs
#: 8 bytes/edge for the directed indices (int32) plus the amortized
#: indptr share; 20 bytes/edge is a comfortable envelope (the tuple/set
#: representation this replaced measured in the hundreds).
_MAX_BYTES_PER_EDGE = 20.0


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (0 where the resource module is absent)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@register("E19", "Frontier scaling: 2/3-state MIS on G(n, c/n) up to 10^6")
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    if fast:
        ns = [1 << 8, 1 << 10, 1 << 12]
        trials = 6
    else:
        ns = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
        trials = 10

    processes = {"2-state": TwoStateMIS, "3-state": ThreeStateMIS}
    rows = []
    means: dict[str, list[float]] = {name: [] for name in processes}
    success: dict[str, list[float]] = {name: [] for name in processes}
    bytes_per_edge = []
    data: dict[str, object] = {
        "ns": ns,
        "c": C,
        "trials": trials,
        "build_seconds": [],
        "peak_rss_kb": [],
        "ms": [],
    }
    for idx, n in enumerate(ns):
        p = min(1.0, C / n)
        t0 = time.perf_counter()
        graph = gnp_random_graph(n, p, rng=seed + idx)
        build_s = time.perf_counter() - t0
        per_edge = graph.memory_nbytes() / max(graph.m, 1)
        bytes_per_edge.append(per_edge)
        batch = max(2, min(trials, _MAX_BATCH_CELLS // max(n, 1)))
        max_rounds = 200 * max(int(math.log2(max(n, 2))), 1)
        row = [n, graph.m, f"{build_s * 1e3:.0f}ms", f"{per_edge:.1f}"]
        for name, cls in processes.items():
            def make(s, cls=cls, graph=graph):
                return cls(graph, coins=s)

            stats = estimate_stabilization_time(
                make,
                trials=trials,
                max_rounds=max_rounds,
                seed=seed + 1000 + 100 * idx,
                batch=batch,
            )
            means[name].append(stats.mean)
            success[name].append(stats.success_rate)
            row.append(stats.mean)
            row.append(stats.max)
        rss_kb = _peak_rss_kb()
        row.append(f"{rss_kb / 1024:.0f}MB")
        rows.append(row)
        data["build_seconds"].append(build_s)
        data["peak_rss_kb"].append(rss_kb)
        data["ms"].append(graph.m)

    tables = [
        format_table(
            [
                "n",
                "m",
                "build",
                "B/edge",
                "2st mean",
                "2st max",
                "3st mean",
                "3st max",
                "peak RSS",
            ],
            rows,
            title=f"Frontier scaling on G(n, {C}/n), {trials} trials/point",
        )
    ]

    verdicts = {}
    ns_arr = np.array(ns, dtype=float)
    for name in processes:
        fit = fit_power_law(ns_arr, np.array(means[name]))
        data[f"{name}_means"] = means[name]
        data[f"{name}_power_fit"] = (fit.a, fit.b, fit.r_squared)
        verdicts[f"{name}: sublinear growth (power exponent < 0.5)"] = (
            fit.b < 0.5
        )
        verdicts[f"{name}: all trials stabilized"] = all(
            rate == 1.0 for rate in success[name]
        )
    data["bytes_per_edge"] = bytes_per_edge
    verdicts[
        f"CSR footprint <= {_MAX_BYTES_PER_EDGE:.0f} bytes/edge"
    ] = max(bytes_per_edge) <= _MAX_BYTES_PER_EDGE
    return ExperimentResult(
        experiment_id="E19",
        title="Frontier scaling: 2/3-state MIS on G(n, c/n)",
        tables=tables,
        verdicts=verdicts,
        data=data,
    )
