"""Per-layer tracing from outside the program.

The benchmark times each layer by wrapping that layer's public
functions and methods (see :data:`PROBES`).  Nothing in ``src/`` is
edited: :meth:`Tracer.install` swaps the wrappers into the classes
and into every loaded ``repro`` module that bound a function by name
at import, and :meth:`Tracer.uninstall` puts the originals back.

Spans nest.  Each span name keeps three totals in memory: outermost
calls, inclusive seconds, and self seconds (its duration minus the
time covered by child spans).  A span that re-enters a name already
open on the stack (``exists`` calling ``count``, ``put_bytes`` calling
``put``) still splits time correctly but does not count a second call
or a second batch of edges.

Worker processes of the parallel layer are forked after the wrappers
are installed, so they run them too.  A fork hook clears the copied
totals in the child, and the wrapper around ``worker.run_shard``
writes the child's totals to ``<spool>/spans-<pid>.json`` after each
shard.  :meth:`Tracer.merge_spool` folds those files into the master's
totals when the pool is gone.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

Counts = dict[str, float]


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: where it lives, its span, what it counts."""

    module: str
    owner: str | None  # class name, or None for a module-level function
    attr: str
    span: str
    before: Callable[..., Any] | None = None
    after: Callable[..., None] | None = None
    spool: bool = False  # a forked worker writes its totals after each call
    unless: str | None = None  # counters skip calls made inside this span


def _size(a: Any) -> int:
    return 0 if a is None else int(np.asarray(a).size)


# Edge counts are computed from array sizes: a full reduction touches the
# whole directed edge volume per mask row; a scatter or gather touches the
# neighbour entries it returns.
def _reduction(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    ops, mask = args[0], np.asarray(args[1])
    rows = mask.shape[0] if mask.ndim == 2 else 1
    counts["neighbor_ops.reductions"] += 1
    counts["neighbor_ops.reduction_edges"] += rows * int(ops.volume())


def _scatter(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["neighbor_ops.scatters"] += 1
    counts["neighbor_ops.scatter_edges"] += _size(result)


def _flat_scatter(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["neighbor_ops.scatters"] += 1
    counts["neighbor_ops.scatter_edges"] += _size(args[1]) + _size(args[2])


def _gather(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["neighbor_ops.gathers"] += 1
    counts["neighbor_ops.gather_edges"] += _size(result)


def _coins(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["rng.coins_drawn"] += _size(result)


def _round_counters(agg: Any) -> tuple[int, int]:
    return agg.scatter_rounds, agg.full_rounds


def _frontier_rounds(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    scatter, full = _round_counters(args[0])
    counts["frontier.scatter_rounds"] += scatter - pre[0]
    counts["frontier.full_rounds"] += full - pre[1]


def _batched_full_rounds(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["batched_frontier.full_rounds"] += args[0].full_rounds - pre[1]


def _topology_counters(agg: Any) -> tuple[int, int]:
    return agg.topology_repairs, agg.topology_rebuilds


def _topology(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    repairs, rebuilds = _topology_counters(args[0])
    counts["frontier.topology_repairs"] += repairs - pre[0]
    counts["frontier.topology_rebuilds"] += rebuilds - pre[1]


def _pickled_out(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["parallel.pickled_bytes"] += len(result)


def _pickled_in(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["parallel.pickled_bytes"] += len(args[1])


def _shm(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["parallel.shm_bytes"] += args[0].handle.nbytes


def _journal_size(args: tuple, kwargs: dict) -> int:
    return os.fstat(args[0]._file.fileno()).st_size


def _journal_bytes(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    counts["checkpoint.bytes"] += _journal_size(args, kwargs) - pre


def _service_counters(service: Any) -> tuple[int, int]:
    return service.repairs, service.rebuilds


def _service_event(counts: Counts, args: tuple, kwargs: dict, result: Any, pre: Any) -> None:
    repairs, rebuilds = _service_counters(args[0])
    counts["service.repairs"] += repairs - pre[0]
    counts["service.rebuilds"] += rebuilds - pre[1]
    counts["service.settle_rounds"] += result.rounds


_NOPS = "repro.core.neighbor_ops"
_BF = "repro.core.batched_frontier"
_FR = "repro.core.frontier"
_DELTA = "overlay.correction"  # the overlay backend's own NeighborOps calls


def _pre(fn: Callable[[Any], Any]) -> Callable[..., Any]:
    return lambda args, kwargs: fn(args[0])


#: The layer table: every wrapped callable, its span and its counters.
#: Static NeighborOps backends are expanded in :func:`_neighbor_ops_probes`.
PROBES: list[Probe] = [
    Probe("repro.graphs.random_graphs", None, "gnp_random_graph", "graphs.generate"),
    Probe("repro.graphs.graph", "Graph", "edge_arrays", "graphs.edge_arrays"),
    Probe("repro.sim.rng", "SeededCoins", "bits", "rng.draw", after=_coins),
    Probe("repro.sim.rng", "SeededCoins", "bits_into", "rng.draw", after=_coins),
    Probe(_NOPS, None, "gather_neighbors", "neighbor_ops.gather", after=_gather, unless=_DELTA),
    Probe(_BF, None, "apply_flat_delta", "neighbor_ops.scatter", after=_flat_scatter),
    Probe(_FR, "FrontierAggregates", "advance", "frontier.advance",
          before=_pre(_round_counters), after=_frontier_rounds),
    Probe(_FR, "FrontierAggregates", "rebuild", "frontier.rebuild"),
    Probe(_FR, "FrontierAggregates", "apply_topology_delta", "frontier.topology_delta",
          before=_pre(_topology_counters), after=_topology),
    Probe(_BF, "BatchedFrontierAggregates", "advance", "batched_frontier.advance",
          before=_pre(_round_counters), after=_batched_full_rounds),
    Probe(_BF, "BatchedFrontierAggregates", "full_round", "batched_frontier.full_round",
          before=_pre(_round_counters), after=_batched_full_rounds),
    Probe(_BF, "BatchedFrontierAggregates", "rebuild", "batched_frontier.rebuild"),
    Probe(_BF, "BatchedFrontierAggregates", "filter", "batched_frontier.filter"),
    Probe("repro.core.process", "MISProcess", "is_stabilized", "process.stability_check"),
    Probe("repro.core.verify", None, "independence_violations", "verify"),
    Probe("repro.core.verify", None, "maximality_violations", "verify"),
    Probe("repro.parallel.supervisor", "SupervisedPool", "__init__", "parallel.pool_spawn"),
    Probe("repro.parallel.supervisor", "SupervisedPool", "run_jobs", "parallel.dispatch"),
    Probe("repro.parallel.jobs", "GraphRegistry", "dumps", "parallel.pickle", after=_pickled_out),
    Probe("repro.parallel.jobs", "GraphRegistry", "loads", "parallel.pickle", after=_pickled_in),
    Probe("repro.parallel.shared_graph", "SharedGraphStore", "__init__", "parallel.shm_publish",
          after=_shm),
    Probe("repro.parallel.worker", None, "run_shard", "parallel.worker_busy", spool=True),
    Probe("repro.sim.checkpoint", "CheckpointJournal", "put", "checkpoint.append",
          before=_journal_size, after=_journal_bytes),
    Probe("repro.sim.checkpoint", "CheckpointJournal", "put_bytes", "checkpoint.append",
          before=_journal_size, after=_journal_bytes),
    Probe("repro.dynamic.overlay", "DeltaOverlay", "apply_event", "overlay.apply"),
    Probe("repro.dynamic.overlay", "DeltaOverlay", "compact", "overlay.compact"),
    # The overlay backend's calls count as NeighborOps work; their own time
    # (the delta correction) is the overlay's, the base backend's nested
    # reductions and gathers keep theirs.
    Probe("repro.dynamic.overlay", "DeltaNeighborOps", "count", _DELTA,
          after=_reduction, unless="neighbor_ops.reduction"),
    Probe("repro.dynamic.overlay", "DeltaNeighborOps", "gather", _DELTA,
          after=_gather, unless="neighbor_ops.gather"),
    Probe("repro.dynamic.overlay", "DeltaNeighborOps", "apply_count_delta", _DELTA,
          after=_scatter, unless="neighbor_ops.scatter"),
    Probe("repro.dynamic.service", "MISService", "apply_event", "service.apply",
          before=_pre(_service_counters), after=_service_event),
    Probe("repro.dynamic.service", "MISService", "is_member", "service.read"),
]

_NOPS_METHODS = {
    "count": ("neighbor_ops.reduction", _reduction),
    "exists": ("neighbor_ops.reduction", _reduction),
    "count_batch": ("neighbor_ops.reduction", _reduction),
    "exists_batch": ("neighbor_ops.reduction", _reduction),
    "apply_count_delta": ("neighbor_ops.scatter", _scatter),
    "gather": ("neighbor_ops.gather", _gather),
}


def _neighbor_ops_probes() -> list[Probe]:
    """``count*``/``exists*``/``apply_count_delta``/``gather`` on every static backend."""
    from repro.core import neighbor_ops

    probes = []
    for cls in vars(neighbor_ops).values():
        if isinstance(cls, type) and issubclass(cls, neighbor_ops.NeighborOps):
            for attr, (span, after) in _NOPS_METHODS.items():
                if attr in vars(cls):
                    probes.append(
                        Probe(_NOPS, cls.__name__, attr, span, after=after, unless=_DELTA)
                    )
    return probes


def _event_at_probes() -> list[Probe]:
    """``event_at`` on every mutation stream class."""
    from repro.dynamic import mutations

    return [
        Probe("repro.dynamic.mutations", cls.__name__, "event_at", "service.event_at")
        for cls in vars(mutations).values()
        if isinstance(cls, type)
        and issubclass(cls, mutations.MutationStream)
        and "event_at" in vars(cls)
    ]


def _repro_modules() -> list[Any]:
    """Every loaded module of the program."""
    return [
        mod for name, mod in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


class Tracer:
    """In-memory span and counter totals, plus the wrappers that feed them.

    ``spool`` is the directory forked workers write their totals to.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.master = self.pid = os.getpid()
        self.installed = False
        self.stack: list[list[Any]] = []  # [span name, seconds covered by children]
        self.depth: dict[str, int] = {}  # open spans per name
        self.spans: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counts = {}
        self._patches: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        self._functions: list[tuple[str, Any, Any]] = []  # (name, wrapper, original)
        self._clear()
        os.register_at_fork(after_in_child=self._after_fork)

    def _clear(self) -> None:
        # In place: the installed wrappers hold these very objects.
        self.stack.clear()
        self.depth.clear()
        self.spans.clear()
        self.counts.clear()
        self.counts.update(dict.fromkeys(COUNT_KEYS, 0))

    def _after_fork(self) -> None:
        if self.installed:
            self.pid = os.getpid()
            self._clear()

    def _wrap(self, fn: Callable[..., Any], probe: Probe) -> Callable[..., Any]:
        name, before, after, spool, unless = (
            probe.span, probe.before, probe.after, probe.spool, probe.unless
        )
        spans, counts, stack, depth = self.spans, self.counts, self.stack, self.depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            pre = before(args, kwargs) if before is not None else None
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                total = spans.setdefault(name, [0, 0.0, 0.0])
                total[2] += elapsed - frame[1]
                if outer:
                    total[0] += 1
                    total[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if spool and self.pid != self.master:
                    self.dump()
            if outer and after is not None and not (unless and depth.get(unless)):
                after(counts, args, kwargs, result, pre)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every probe's wrapper in; totals keep adding up across installs."""
        for probe in PROBES + _neighbor_ops_probes() + _event_at_probes():
            module = importlib.import_module(probe.module)
            if probe.owner is not None:
                cls = getattr(module, probe.owner)
                original = vars(cls)[probe.attr]
                self._patch(cls, probe.attr, self._wrap(original, probe))
                continue
            original = getattr(module, probe.attr)
            wrapper = self._wrap(original, probe)
            self._functions.append((probe.attr, wrapper, original))
            for mod in _repro_modules():
                if getattr(mod, probe.attr, None) is original:
                    self._patch(mod, probe.attr, wrapper)
        self.installed = True

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original callable back.

        A module first imported while the wrappers were in bound a wrapper
        by name; it gets the original back too.
        """
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for attr, wrapper, original in self._functions:
            for mod in _repro_modules():
                if getattr(mod, attr, None) is wrapper:
                    setattr(mod, attr, original)
        self._patches.clear()
        self._functions.clear()
        self.installed = False

    # -- worker spool ---------------------------------------------------
    def dump(self) -> None:
        """Write this worker's totals to ``<spool>/spans-<pid>.json``."""
        path = self.spool / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
        tmp.replace(path)

    def merge_spool(self) -> list[float]:
        """Fold worker totals in; returns each worker's busy seconds."""
        busy = []
        for path in sorted(self.spool.glob("spans-*.json")):
            data = json.loads(path.read_text())
            for name, values in data["spans"].items():
                total = self.spans.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    total[k] += values[k]
            for key, value in data["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value
            busy.append(data["spans"].get("parallel.worker_busy", [0, 0.0, 0.0])[1])
            path.unlink()
        return busy

    # -- readout --------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.spans.get(name, [0])[0])

    def inclusive(self, name: str) -> float:
        return float(self.spans.get(name, [0, 0.0])[1])

    def self_time(self, name: str) -> float:
        return float(self.spans.get(name, [0, 0.0, 0.0])[2])


#: Counters every traced run reports, zero when nothing fed them.
COUNT_KEYS = (
    "rng.coins_drawn",
    "neighbor_ops.reductions",
    "neighbor_ops.reduction_edges",
    "neighbor_ops.scatters",
    "neighbor_ops.scatter_edges",
    "neighbor_ops.gathers",
    "neighbor_ops.gather_edges",
    "frontier.scatter_rounds",
    "frontier.full_rounds",
    "frontier.topology_repairs",
    "frontier.topology_rebuilds",
    "batched_frontier.full_rounds",
    "parallel.pickled_bytes",
    "parallel.shm_bytes",
    "checkpoint.bytes",
    "service.repairs",
    "service.rebuilds",
    "service.settle_rounds",
)
