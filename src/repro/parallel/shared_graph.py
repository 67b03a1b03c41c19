"""Zero-copy publication of graphs into POSIX shared memory.

The master/worker fleet architecture (:mod:`repro.parallel`) never
ships adjacency structure through a queue.  The master publishes every
distinct graph of a fleet *once*: all CSR arrays are packed, 8-byte
aligned, into a single ``multiprocessing.shared_memory`` segment, and
workers reconstruct each graph as read-only numpy views over one mmap
of that segment — zero copies, one page-table entry per worker, no
per-job adjacency bytes.

Lifecycle contract (the shared-memory hygiene rules):

* :class:`SharedGraphStore` owns the segment.  It is a context manager
  whose exit **unlinks** the segment; a ``weakref.finalize`` backstop
  unlinks it even if the owner is dropped without ``close()`` (e.g. an
  exception path that never reaches the ``finally``).  POSIX semantics
  make unlink safe while workers are still attached: their mappings
  survive until they close, but the name disappears from ``/dev/shm``
  immediately, so nothing can leak past the master.
* A store lives as long as its owner needs it: one call for a private
  pool, and for a persistent
  :class:`~repro.parallel.supervisor.SupervisedPool` as long as its
  calls bring the same graph objects back
  (:meth:`~repro.parallel.supervisor.SupervisedPool.graph_store`) —
  a call with other graphs unlinks it, and so does the pool's
  ``close()``.  Workers keep their resident engines exactly as long as
  they stay attached to it.
* :class:`AttachedGraphStore` (the worker side) attaches *untracked*:
  CPython registers attach-side segments with the per-process resource
  tracker (cpython#82300), which would double-unlink and warn at worker
  exit; :func:`_attach_untracked` uses 3.13's ``track=False`` when
  available and deregisters by hand on 3.11/3.12.
* :func:`leaked_segments` lists live segments created by this module —
  the regression tests' leak oracle.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from types import TracebackType
from typing import Sequence

import numpy as np

from repro.graphs.graph import Graph

#: Prefix of every segment created by :class:`SharedGraphStore` —
#: recognizable in ``/dev/shm`` listings, which is what the leak
#: regression tests scan for.
SEGMENT_PREFIX = "repro-graphs-"

#: Byte alignment of every array packed into a segment (int64-safe).
_ALIGN = 8

#: Every open master-side store, for the atexit/SIGTERM backstop: a
#: fatal signal must not strand ``/dev/shm`` entries any more than an
#: exception may.  Stores de-register on close.
_LIVE_STORES: "weakref.WeakSet[SharedGraphStore]" = weakref.WeakSet()


def unlink_all_stores() -> list[str]:
    """Close every still-open :class:`SharedGraphStore` (backstop).

    Called by the :mod:`repro.parallel.pool` atexit/SIGTERM backstop;
    idempotent.  Returns the unlinked segment names.
    """
    names: list[str] = []
    for store in list(_LIVE_STORES):
        names.append(store.handle.segment)
        try:
            store.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    return names


def _aligned(offset: int) -> int:
    """Round ``offset`` up to the packing alignment."""
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _ignore_registration(name: str, rtype: str) -> None:
    """No-op stand-in for ``resource_tracker.register`` during attach."""


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    ``SharedMemory(name)`` registers the segment with the resource
    tracker even on the attach side (cpython#82300): at attacher exit
    the tracker unlinks a segment it never owned and emits bogus leak
    warnings.  Python 3.13 grew ``track=False`` for exactly this; on
    3.11/3.12 the registration is suppressed by swapping ``register``
    out around the constructor.  (Calling ``unregister`` *after* the
    fact would be wrong: forked workers share the master's tracker
    process, so an attach-side unregister erases the creator's
    registration.)
    """
    try:
        return shared_memory.SharedMemory(
            name=name, create=False, track=False  # type: ignore[call-arg]
        )
    except TypeError:  # Python < 3.13: no track parameter
        pass
    register = resource_tracker.register
    resource_tracker.register = _ignore_registration
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = register


def _unlink_segment(name: str) -> None:
    """Unlink ``name`` if it still exists (idempotent finalizer)."""
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return
    shm.unlink()
    shm.close()


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live shared-memory segments matching ``prefix``.

    Scans ``/dev/shm`` (returns ``[]`` on platforms without it).  After
    every pool shutdown — clean or crashed — this must be empty; the
    hygiene regression tests assert exactly that.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return sorted(e for e in os.listdir(root) if e.startswith(prefix))


@dataclass(frozen=True)
class GraphEntry:
    """Location of one graph's CSR arrays inside a segment."""

    n: int
    m: int
    indptr_dtype: str
    indices_dtype: str
    indptr_offset: int
    indices_offset: int


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable description of a published store.

    This is all a worker needs to rebuild every graph: the segment name
    plus per-graph offsets/dtypes.  A handle is a few hundred bytes
    regardless of graph size — it rides inside every job spec.
    """

    segment: str
    entries: tuple[GraphEntry, ...]
    nbytes: int

    def attach(self) -> AttachedGraphStore:
        """Map the segment and rebuild the graphs as read-only views."""
        return AttachedGraphStore(self)


def _view_graph(buf: memoryview, entry: GraphEntry) -> Graph:
    """Rebuild one graph as read-only views into a mapped segment."""
    indptr = np.frombuffer(
        buf,
        dtype=np.dtype(entry.indptr_dtype),
        count=entry.n + 1,
        offset=entry.indptr_offset,
    )
    indices = np.frombuffer(
        buf,
        dtype=np.dtype(entry.indices_dtype),
        count=2 * entry.m,
        offset=entry.indices_offset,
    )
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return Graph.from_csr_arrays(entry.n, entry.m, indptr, indices)


class AttachedGraphStore:
    """Worker-side view of a published store: one mmap, view graphs.

    ``graphs`` holds one :class:`Graph` per published graph, in
    publication order, each backed by read-only views into the shared
    mapping.  The store keeps the mapping alive; :meth:`close` drops
    the graphs and unmaps (tolerating views that escaped — the mapping
    then lives until they are garbage collected, which cannot leak the
    segment itself: only the master's unlink controls that).
    """

    def __init__(self, handle: SharedGraphHandle) -> None:
        self.handle = handle
        self._shm = _attach_untracked(handle.segment)
        self.graphs: list[Graph] = [
            _view_graph(self._shm.buf, entry) for entry in handle.entries
        ]

    def close(self) -> None:
        """Drop the view graphs and unmap the segment (idempotent)."""
        self.graphs = []
        try:
            self._shm.close()
        except BufferError:
            # A view escaped the store (e.g. a process object that
            # outlived it), possibly only pinned by a reference cycle —
            # collect and retry once, then give up: the mapping stays
            # until the view dies, and the /dev/shm entry is governed
            # by the master's unlink either way, so nothing leaks.
            import gc

            gc.collect()
            try:
                self._shm.close()
            except BufferError:
                pass

    def __enter__(self) -> AttachedGraphStore:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class SharedGraphStore:
    """Publish graphs' CSR arrays into one shared-memory segment.

    The master side of the zero-copy path: construction packs every
    graph's ``indptr``/``indices`` into a fresh segment and records a
    picklable :attr:`handle`; workers attach via
    ``handle.attach()``.  Use as a context manager (or call
    :meth:`close` in a ``finally``) — exit unlinks the segment, and a
    finalizer backstop unlinks it at garbage collection if the owner
    forgot, so no exception path leaks ``/dev/shm`` entries.
    """

    def __init__(self, graphs: Sequence[Graph]) -> None:
        self.graphs: list[Graph] = list(graphs)
        entries: list[GraphEntry] = []
        writes: list[tuple[int, np.ndarray]] = []
        offset = 0
        for graph in self.graphs:
            indptr = np.ascontiguousarray(graph.indptr)
            indices = np.ascontiguousarray(graph.indices)
            indptr_offset = _aligned(offset)
            offset = indptr_offset + indptr.nbytes
            indices_offset = _aligned(offset)
            offset = indices_offset + indices.nbytes
            writes.append((indptr_offset, indptr))
            writes.append((indices_offset, indices))
            entries.append(
                GraphEntry(
                    n=graph.n,
                    m=graph.m,
                    indptr_dtype=indptr.dtype.str,
                    indices_dtype=indices.dtype.str,
                    indptr_offset=indptr_offset,
                    indices_offset=indices_offset,
                )
            )
        nbytes = max(offset, 1)  # SharedMemory rejects size 0
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=nbytes
        )
        self._closed = False
        # Arm the unlink backstop before the first write: a crash while
        # packing must not leak the freshly-created segment either.
        self._finalizer = weakref.finalize(self, _unlink_segment, name)
        buf = self._shm.buf
        for write_offset, array in writes:
            view = np.frombuffer(
                buf, dtype=array.dtype, count=array.size, offset=write_offset
            )
            view[:] = array
            del view  # views pin the mapping; release before any close
        self.handle = SharedGraphHandle(
            segment=name, entries=tuple(entries), nbytes=nbytes
        )
        _LIVE_STORES.add(self)

    def close(self) -> None:
        """Unlink the segment (idempotent; safe while workers attached).

        Attached workers keep their mappings — POSIX removes only the
        name — so in-flight jobs finish normally while the segment can
        no longer outlive the master.
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_STORES.discard(self)
        self._finalizer.detach()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._shm.close()

    def __enter__(self) -> SharedGraphStore:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
