"""Master/worker fleet execution over zero-copy shared-memory graphs.

The multi-core path of the Monte-Carlo layer (the ROADMAP's
master/worker open item, in the Ganeti-jqueue mold), made self-healing
in PR 9:

* :mod:`~repro.parallel.shared_graph` — publish every distinct graph
  of a fleet once into a POSIX shared-memory segment; workers rebuild
  them as read-only numpy views over one mmap (zero copies), with
  unlink-on-exit hygiene on every path (including the atexit/SIGTERM
  backstop's :func:`unlink_all_stores`).
* :mod:`~repro.parallel.jobs` — the wire format: shard jobs carry
  packed :class:`~repro.core.replica.ReplicaState` records plus graph
  indices into a :class:`GraphRegistry`, never process objects; and
  the :class:`JobQueue` job-spec transport that replaced factory
  pickling.
* :mod:`~repro.parallel.pool` — the persistent :class:`WorkerPool`
  (crash detection, stop sentinels, ``n_jobs`` resolution) and the
  shared teardown machinery: the join → terminate → kill escalation,
  zombie reporting, and :func:`install_signal_backstop`.
* :mod:`~repro.parallel.worker` — the dumb module-level worker loop,
  with the chaos-policy fault hook.
* :mod:`~repro.parallel.supervisor` — the self-healing
  :class:`SupervisedPool`: worker respawn, bounded shard retry with
  exponential backoff (:mod:`~repro.parallel.retry`), per-shard
  deadlines with in-process degradation, poisoned-result quarantine.
* :mod:`~repro.parallel.chaos` — the deterministic fault injector
  (:class:`ChaosPolicy`) that makes every recovery path reproducibly
  testable.
* :mod:`~repro.parallel.fleet` — replica-range sharding, checkpoint
  journaling, and restoring the returned records into the caller's
  processes; bitwise-identical to the serial
  path for any worker count, shard boundaries, or fault schedule.
* :mod:`~repro.parallel.config` — process-wide default ``n_jobs`` and
  supervision defaults for entry points (``python -m repro.experiments
  run E4 --jobs auto``).

Users normally never import this package directly: pass
``n_jobs="auto"`` (or an int) to
:func:`repro.sim.runner.run_many_until_stable`,
:func:`repro.sim.montecarlo.estimate_stabilization_time`, or
:func:`repro.sim.montecarlo.sweep_stabilization_times`.  ``python -m
repro.parallel --doctor`` self-checks the machinery on the current
machine.
"""

from repro.parallel.chaos import (
    CHAOS_KILL_EXIT,
    FAULT_KINDS,
    POISON_PAYLOAD,
    ChaosPolicy,
)
from repro.parallel.config import (
    SupervisionDefaults,
    default_n_jobs,
    default_supervision,
    get_default_n_jobs,
    get_default_supervision,
    set_default_n_jobs,
    set_default_supervision,
)
from repro.parallel.fleet import (
    decode_results,
    fleet_shards,
    run_fleet_sharded,
    shard_key,
    shard_ranges,
)
from repro.parallel.jobs import (
    GraphRegistry,
    JobQueue,
    ShardJob,
    ShardResult,
    unshippable,
)
from repro.parallel.pool import (
    WORKER_NAME_PREFIX,
    WorkerCrashError,
    WorkerPool,
    cpu_count,
    install_signal_backstop,
    resolve_n_jobs,
    shutdown_processes,
)
from repro.parallel.retry import RetryPolicy, ShardFailedError
from repro.parallel.shared_graph import (
    AttachedGraphStore,
    SharedGraphHandle,
    SharedGraphStore,
    leaked_segments,
    unlink_all_stores,
)
from repro.parallel.supervisor import (
    SupervisedPool,
    SupervisionEvent,
    iter_chaos_fault_plan,
    supervised_pool_for,
)
from repro.parallel.worker import run_shard, worker_main

__all__ = [
    "AttachedGraphStore",
    "CHAOS_KILL_EXIT",
    "ChaosPolicy",
    "FAULT_KINDS",
    "GraphRegistry",
    "JobQueue",
    "POISON_PAYLOAD",
    "RetryPolicy",
    "ShardFailedError",
    "ShardJob",
    "ShardResult",
    "SharedGraphHandle",
    "SharedGraphStore",
    "SupervisedPool",
    "SupervisionDefaults",
    "SupervisionEvent",
    "WORKER_NAME_PREFIX",
    "WorkerCrashError",
    "WorkerPool",
    "cpu_count",
    "decode_results",
    "default_n_jobs",
    "default_supervision",
    "fleet_shards",
    "get_default_n_jobs",
    "get_default_supervision",
    "install_signal_backstop",
    "iter_chaos_fault_plan",
    "leaked_segments",
    "resolve_n_jobs",
    "run_fleet_sharded",
    "run_shard",
    "set_default_n_jobs",
    "set_default_supervision",
    "shard_key",
    "shard_ranges",
    "shutdown_processes",
    "supervised_pool_for",
    "unlink_all_stores",
    "unshippable",
    "worker_main",
]
