"""Dynamic graphs: topology churn over the frozen CSR substrate.

The paper's self-stabilization guarantee — recovery from *any*
configuration in O(log n) rounds w.h.p. — is exactly the property a
long-running overlay network needs when its topology churns: nodes
join and leave, links flap, and the MIS must re-stabilize without a
restart.  This package turns the reproduction into that service:

* :mod:`repro.dynamic.overlay`  — :class:`~repro.dynamic.overlay.DeltaOverlay`,
  a mutable edge/vertex delta log over an immutable base
  :class:`~repro.graphs.graph.Graph`, compacted into a fresh CSR when
  the delta fraction crosses a threshold, plus
  :class:`~repro.dynamic.overlay.DeltaNeighborOps`, the
  churn-aware :class:`~repro.core.neighbor_ops.NeighborOps` backend
  the engines run on unmodified.
* :mod:`repro.dynamic.mutations` — deterministic, seekable mutation
  streams (uniform / flapping churn, targeted hub deletion, localized
  bursts) whose event at any offset is a pure function of
  ``(seed, offset, topology)``.
* :mod:`repro.dynamic.service`  — :class:`~repro.dynamic.service.MISService`,
  the daemon: consumes a stream, repairs the frontier aggregates
  incrementally (:meth:`repro.core.frontier.FrontierAggregates.apply_topology_delta`),
  interleaves recovery rounds, serves MIS-membership / is-stable
  queries, and journals its state through :mod:`repro.sim.checkpoint`
  so a killed service resumes bitwise-identically.

``python -m repro doctor`` (:mod:`repro.doctor`) self-checks the stack;
experiment E20 and ``benchmarks/bench_churn.py`` measure it.
"""

from repro.dynamic.mutations import (
    STREAM_KINDS,
    MutationEvent,
    MutationStream,
    ScriptedStream,
    make_stream,
)
from repro.dynamic.overlay import (
    DEFAULT_COMPACT_FRACTION,
    DeltaNeighborOps,
    DeltaOverlay,
)
from repro.dynamic.service import (
    ChurnRecord,
    MISService,
    ServiceKilledError,
    run_with_chaos,
)

__all__ = [
    "DEFAULT_COMPACT_FRACTION",
    "STREAM_KINDS",
    "ChurnRecord",
    "DeltaNeighborOps",
    "DeltaOverlay",
    "MISService",
    "MutationEvent",
    "MutationStream",
    "ScriptedStream",
    "ServiceKilledError",
    "make_stream",
    "run_with_chaos",
]
