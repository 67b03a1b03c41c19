"""E20 — recovery under churn: the MIS service on mutating G(n, c/n).

The paper's self-stabilization theorem promises recovery from *any*
configuration in O(log n) rounds w.h.p. — which makes the process a
natural maintenance algorithm for dynamic graphs: perturb the topology,
let the process run, and the MIS re-stabilizes in O(log n) rounds no
matter what changed.  This experiment drives
:class:`~repro.dynamic.service.MISService` through seeded mutation
streams on sparse G(n, c/n) up to 2²⁰ (``--full``) and measures:

* **Scaling** — mean rounds-to-restabilize per churn wave (a
  fixed-size batch of uniform edge events, then recovery) as n grows.
  The wave size is held constant across n so the curve isolates the
  n-dependence of recovery; the verdict fits ``T(n) = a·n^b`` and
  requires the power exponent to stay below
  :data:`MAX_POWER_EXPONENT` — a polylog-compatible growth shape (a
  genuinely logarithmic curve fits with b ≈ 0.05–0.15 over this range;
  anything polynomial shows b ≳ 0.5).
* **Churn rate** — at fixed n, recovery rounds vs wave size (4× steps):
  heavier waves perturb more of the graph and need more rounds, the
  rate axis of the recovery surface.
* **Locality** — recovery vs churn *shape* at fixed n: uniform vs
  flapping-link vs adversarial hub-deletion vs localized-burst streams,
  with per-stream mutation throughput (events/s, settles included).
* **Exactness** — the smallest size re-run with ``repair=False``
  (rebuild aggregates after every event): the pinned verdict requires
  the incremental-repair trajectory to match bitwise, event for event.

``BENCH_churn.json`` (``benchmarks/bench_churn.py``) turns the
throughput numbers into regression floors.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dynamic import MISService, make_stream
from repro.experiments.fitting import fit_power_law
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.tables import format_table
from repro.graphs.random_graphs import gnp_random_graph

#: Mean degree of the churned workload G(n, c/n) (same as E19).
C = 3.0

#: Acceptance bound on the fitted power exponent of mean recovery
#: rounds vs n.  O(log n) growth fits a power law with an exponent
#: near zero over any finite range; 0.4 cleanly separates that from
#: polynomial growth while leaving room for small-n noise.
MAX_POWER_EXPONENT = 0.4

#: Floor applied to per-wave means before the log-space fit (a wave
#: that needs zero recovery rounds would otherwise be dropped).
_MEAN_FLOOR = 0.5

#: Events per churn wave in the scaling sweep — constant across n so
#: the recovery curve isolates the n-dependence.
WAVE_EVENTS = 16


def _churn_waves(
    n: int, batch: int, waves: int, seed: int
) -> tuple[float, bool, MISService, float]:
    """Run ``waves`` churn waves of ``batch`` events each.

    Returns (mean recovery rounds per wave, all waves stable, the
    service, elapsed seconds).
    """
    graph = gnp_random_graph(n, min(1.0, C / n), rng=seed)
    stream = make_stream("uniform", n, seed=seed + 1)
    service = MISService(
        graph, stream, seed=seed + 2, settle_every=batch
    )
    t0 = time.perf_counter()
    service.run(batch * waves)
    elapsed = time.perf_counter() - t0
    settles = [r for r in service.records if (r.offset + 1) % batch == 0]
    mean_rounds = float(np.mean([r.rounds for r in settles]))
    all_stable = all(r.stabilized for r in settles)
    return mean_rounds, all_stable, service, elapsed


def _locality_row(
    kind: str, n: int, events: int, seed: int
) -> tuple[list, bool]:
    graph = gnp_random_graph(n, min(1.0, C / n), rng=seed)
    stream = make_stream(kind, n, seed=seed + 1)
    service = MISService(graph, stream, seed=seed + 2)
    t0 = time.perf_counter()
    service.run(events)
    elapsed = time.perf_counter() - t0
    rounds = [r.rounds for r in service.records]
    stable = all(r.stabilized for r in service.records)
    row = [
        kind,
        events,
        float(np.mean(rounds)),
        int(np.max(rounds)),
        service.repairs,
        service.rebuilds,
        service.overlay.compactions,
        f"{events / max(elapsed, 1e-9):.0f}",
    ]
    return row, stable


@register("E20", "Recovery under churn: O(log n) re-stabilization, live")
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    if fast:
        ns = [1 << 8, 1 << 10, 1 << 12]
        waves = 8
        loc_n, loc_events = 1 << 10, 192
        rate_batches = [4, 16, 64]
    else:
        ns = [1 << 14, 1 << 16, 1 << 18, 1 << 20]
        waves = 8
        loc_n, loc_events = 1 << 14, 1024
        rate_batches = [4, 16, 64, 256]

    # -- Part A: recovery-round scaling vs n (fixed wave size) ----------
    mean_rounds: list[float] = []
    scaling_rows = []
    all_stable = True
    repairs_dominate = True
    throughputs: list[float] = []
    for idx, n in enumerate(ns):
        mean, stable, service, elapsed = _churn_waves(
            n, WAVE_EVENTS, waves, seed + 10 * idx
        )
        mean_rounds.append(mean)
        all_stable &= stable
        repairs_dominate &= (
            service.repairs > 0 and service.repairs >= service.rebuilds
        )
        events = len(service.records)
        throughputs.append(events / max(elapsed, 1e-9))
        scaling_rows.append(
            [
                n,
                mean,
                service.repairs,
                service.rebuilds,
                service.overlay.compactions,
                f"{events / max(elapsed, 1e-9):.0f}",
            ]
        )
    fit = fit_power_law(ns, np.maximum(mean_rounds, _MEAN_FLOOR))
    scaling_table = format_table(
        ["n", "rounds/wave", "repairs", "rebuilds", "compact", "events/s"],
        scaling_rows,
        title=(
            f"Recovery per churn wave on G(n, {C:g}/n) "
            f"({waves} waves of {WAVE_EVENTS} uniform events)"
        ),
    )

    # -- Part A2: recovery vs churn rate at fixed n ---------------------
    rate_rows = []
    rate_stable = True
    for batch in rate_batches:
        mean, stable, service, elapsed = _churn_waves(
            loc_n, batch, waves, seed + 500
        )
        rate_stable &= stable
        rate_rows.append(
            [
                batch,
                mean,
                mean / batch,
                f"{len(service.records) / max(elapsed, 1e-9):.0f}",
            ]
        )
    rate_table = format_table(
        ["wave events", "rounds/wave", "rounds/event", "events/s"],
        rate_rows,
        title=f"Recovery vs churn rate at n={loc_n} ({waves} waves)",
    )

    # -- Part B: recovery vs churn locality at fixed n ------------------
    loc_rows = []
    loc_stable = True
    for kind in ("uniform", "flapping", "hub", "burst"):
        row, stable = _locality_row(kind, loc_n, loc_events, seed + 100)
        loc_rows.append(row)
        loc_stable &= stable
    locality_table = format_table(
        ["stream", "events", "rounds/event", "max", "repairs", "rebuilds",
         "compact", "events/s"],
        loc_rows,
        title=f"Churn locality at n={loc_n} (settle after every event)",
    )

    # -- Part C: incremental repair is exact (bitwise twin run) ---------
    n0 = ns[0]
    graph = gnp_random_graph(n0, min(1.0, C / n0), rng=seed)
    stream = make_stream("uniform", n0, seed=seed + 1)
    twin_events = WAVE_EVENTS * waves
    inc = MISService(graph, stream, seed=seed + 2)
    inc.run(twin_events)
    ctl = MISService(graph, stream, seed=seed + 2, repair=False)
    ctl.run(twin_events)
    repair_exact = bool(
        np.array_equal(inc._state_arrays()[0], ctl._state_arrays()[0])
        and [r.rounds for r in inc.records]
        == [r.rounds for r in ctl.records]
    )

    verdicts = {
        "every churn wave re-stabilized within budget":
            all_stable and rate_stable,
        "locality streams re-stabilized (uniform/flapping/hub/burst)":
            loc_stable,
        (
            "recovery rounds grow O(log n)-compatibly "
            f"(power exponent {fit.b:.3f} <= {MAX_POWER_EXPONENT})"
        ): bool(fit.b <= MAX_POWER_EXPONENT),
        "incremental repair on the hot path (repairs >= rebuilds)":
            repairs_dominate,
        "incremental repair bitwise-identical to rebuild": repair_exact,
    }
    data = {
        "ns": ns,
        "waves": waves,
        "wave_events": WAVE_EVENTS,
        "rate_batches": rate_batches,
        "mean_rounds": mean_rounds,
        "power_exponent": fit.b,
        "power_r_squared": fit.r_squared,
        "events_per_second": throughputs,
        "locality_n": loc_n,
        "locality_events": loc_events,
        "locality_rows": [list(map(str, row)) for row in loc_rows],
    }
    return ExperimentResult(
        experiment_id="E20",
        title="Recovery under churn: O(log n) re-stabilization, live",
        tables=[scaling_table, rate_table, locality_table],
        verdicts=verdicts,
        data=data,
    )
