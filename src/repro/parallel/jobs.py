"""Job specs and the replica-record wire format.

Workers receive *small* payloads.  A shard job carries, per replica,
the registry index of its graph and its
:class:`~repro.core.replica.ReplicaState` — the round, the coin
stream's ``(key, draw)`` and the bit-packed state planes, about
``n / 8`` bytes for a 2-state replica.  Every shippable replica runs
on the stock :class:`~repro.core.neighbor_ops.SparseNeighborOps`, so
no backend name ships.  The receiving side rebuilds
processes from those records against its own :class:`GraphRegistry`
(a worker's is built over the shared-memory view graphs, the master's
over the original objects) — or restores them into the processes it
kept from running the same shard before (:mod:`repro.parallel.worker`)
— runs them, and ships back one record per replica with its run
outcome filled in.  The master restores its own
process objects from the records in place
(:meth:`~repro.core.process.MISProcess.restore`).  Adjacency structure
never crosses a queue, and neither do process objects.

:class:`ShardJob` / :class:`ShardResult` are the wire format that
:class:`~repro.parallel.supervisor.SupervisedPool` dispatches — estimates,
fault campaigns and experiment workloads all reduce to shard jobs, so
no process factory ever crosses a process boundary.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core import neighbor_ops as _nops
from repro.graphs.graph import Graph
from repro.parallel.shared_graph import SharedGraphHandle

if TYPE_CHECKING:
    from repro.core.process import MISProcess


def unshippable(process: MISProcess) -> str | None:
    """Why ``process`` cannot ride a shard job, or ``None`` if it can.

    It needs a :class:`~repro.core.replica.ReplicaState` encoding and a
    plain :class:`~repro.core.neighbor_ops.SparseNeighborOps` bound to
    its own graph (what a worker rebuilds from the graph alone).
    """
    reason = process.replica_unsupported()
    if reason is not None:
        return reason
    ops = process.ops
    if type(ops) is not _nops.SparseNeighborOps:
        return f"{type(ops).__name__} is not the stock NeighborOps backend"
    if ops.graph is not process.graph:
        return "its NeighborOps is bound to another graph"
    return None


class GraphRegistry:
    """Index table over a concrete list of graphs (one per endpoint).

    The master builds one over the fleet's original graphs, each worker
    over its attached shared-memory views — the graph at index ``i`` is
    the *same published graph* on both sides, so a record's graph index
    means the same thing at both ends.  NeighborOps resolve through a
    per-graph cache, so every replica of a shard that shares a graph
    shares one ops instance.

    :meth:`dumps` / :meth:`loads` are the one place shard payloads are
    serialized (the benchmark's pickling layer wraps them).
    """

    def __init__(self, graphs: Sequence[Graph]) -> None:
        self.graphs: list[Graph] = list(graphs)
        self._index = {id(graph): i for i, graph in enumerate(self.graphs)}
        self._ops: dict[int, _nops.SparseNeighborOps] = {}

    def index_of(self, graph: Graph) -> int | None:
        """Registry index of ``graph`` (by identity), or ``None``."""
        return self._index.get(id(graph))

    def register_ops(self, ops: _nops.NeighborOps) -> None:
        """Memoize an existing stock ops instance for its graph.

        The master registers each process's ops before dispatch, so a
        shard degraded to an in-process run reuses the *original*
        instances instead of fresh rebuilds.
        """
        index = self.index_of(ops.graph)
        if type(ops) is _nops.SparseNeighborOps and index is not None:
            self._ops.setdefault(index, ops)

    def ops(self, index: int) -> _nops.SparseNeighborOps:
        """The (cached) stock backend over graph ``index``."""
        ops = self._ops.get(index)
        if ops is None:
            ops = self._ops[index] = _nops.SparseNeighborOps(self.graphs[index])
        return ops

    def dumps(self, obj: Any) -> bytes:
        """Serialize a shard payload."""
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def loads(self, data: bytes) -> Any:
        """Deserialize a shard payload."""
        return pickle.loads(data)

    def encode_shard(self, processes: Sequence[MISProcess]) -> bytes:
        """A :class:`ShardJob` payload for ``processes``.

        Every process must be :func:`shippable <unshippable>` and live
        on a registered graph.
        """
        items = []
        for process in processes:
            index = self.index_of(process.graph)
            if index is None:
                raise ValueError("process graph is not in the registry")
            items.append((index, process.replica_state()))
        return self.dumps(items)


@dataclass
class ShardJob:
    """One unit of worker work: run a slab of replicas to stabilization.

    ``payload`` is :meth:`GraphRegistry.encode_shard` of the shard's
    replicas: a list of ``(graph index, ReplicaState)``.
    ``handle`` locates the published graphs the indices refer to.
    Everything else mirrors the
    :func:`~repro.sim.runner.run_many_until_stable` parameters the
    worker forwards verbatim.
    """

    indices: tuple[int, int]
    payload: bytes
    handle: SharedGraphHandle
    max_rounds: int
    verify: bool
    batch: str | int | None
    #: Supervision bookkeeping: which dispatch attempt this is (the
    #: SupervisedPool bumps it on every re-dispatch; the chaos policy
    #: keys faults on it).  The payload never changes across attempts.
    attempt: int = 0


@dataclass
class ShardResult:
    """A finished shard: a serialized ``list[ReplicaState]``.

    One record per replica, in shard order, each with its final state
    and :attr:`~repro.core.replica.ReplicaState.outcome` set.  The
    master rebuilds each MIS from the final black mask; it is not
    shipped.  This payload is also what the fleet journals.
    """

    indices: tuple[int, int]
    payload: bytes
