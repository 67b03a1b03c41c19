"""Mutable graph overlay: a delta log over the frozen CSR substrate.

The CSR :class:`~repro.graphs.graph.Graph` is immutable by design —
every engine, cache, and shared-memory path depends on that.  Topology
churn therefore lives *beside* the base graph, not inside it:
:class:`DeltaOverlay` records edge insertions/deletions (and vertex
joins/leaves, which are bulk edge operations plus an ``alive`` mask) as
two undirected-key sets over a frozen base CSR, and keeps a sorted
array of directed keys ``u * n + v`` mirroring each set for vectorized
queries.  The mutators are O(1): they update the sets and note the
touched key.  The next query merges only the touched keys into the
mirrors, at ``searchsorted`` positions, so keeping the mirrors costs
O(t log |delta| + |delta|) per sync for t touched keys, with no
length-n array.  When the delta fraction crosses
:attr:`~DeltaOverlay.compact_fraction`, the log is folded into a fresh
base CSR in a few numpy set operations
(:meth:`repro.graphs.graph.Graph.with_edge_deltas`).

:class:`DeltaNeighborOps` is the bridge to the engines: a
:class:`~repro.core.neighbor_ops.NeighborOps` backend that answers
``count`` / ``gather`` / ``apply_count_delta`` / ``degrees`` /
``volume`` against the *current* (base ⊕ delta) adjacency — base CSR
answer, plus the added rows found by ``searchsorted`` in the add
mirror, minus the removed edges.  A gather filters only when one of
its rows lost an edge; otherwise it is the plain base CSR gather.
The 2-/3-state processes and the frontier
engine run on it unmodified; compaction calls :meth:`DeltaNeighborOps.rebase`
and is invisible to them (the aggregates are exact integer counts
either way, and the coin stream is untouched — trajectories are
bitwise-identical whether or when compaction happens).

Dead vertices stay in the vertex set: removing a vertex removes its
incident edges and clears its ``alive`` bit, so the slot parks as an
isolated singleton (which self-stabilizes to a stable black in O(1)
rounds) and keeps drawing its per-round coin — the fixed-width
``bits(n)`` discipline of §2.1 survives churn.  Queries filter on
``alive``.
"""

from __future__ import annotations

import numpy as np

from repro.core.neighbor_ops import (
    NeighborOps,
    _scatter_unit,
    gather_neighbors,
    make_neighbor_ops,
)
from repro.graphs.graph import Graph

_EMPTY = np.zeros(0, dtype=np.int64)


def _directed(keys: list[int], n: int) -> np.ndarray:
    """Sorted directed keys, both directions, of undirected keys ``u * n + v``."""
    return np.array(
        sorted(d for k in keys for d in (k, k % n * n + k // n)), dtype=np.int64
    )


def _merge(
    mirror: np.ndarray, leaving: list[int], entering: list[int], n: int
) -> np.ndarray:
    """The sorted directed-key ``mirror`` after undirected keys leave/enter.

    Each moved key is placed by ``searchsorted`` and the result is one
    ``np.concatenate`` of the mirror's untouched slices: a copy of the
    mirror plus O(t log |mirror|) for t moved keys (``np.insert`` and
    ``np.delete`` cost several times more on the one-key merges that
    dominate churn).
    """
    if leaving:
        drop = np.searchsorted(mirror, _directed(leaving, n)).tolist()
        starts = [0] + [p + 1 for p in drop]
        mirror = np.concatenate(
            [mirror[a:b] for a, b in zip(starts, drop + [mirror.size])]
        )
    if entering:
        keys = _directed(entering, n)
        cuts = [0] + np.searchsorted(mirror, keys).tolist()
        parts = []
        for i in range(keys.size):
            parts += (mirror[cuts[i]:cuts[i + 1]], keys[i:i + 1])
        parts.append(mirror[cuts[-1]:])
        mirror = np.concatenate(parts)
    return mirror


#: Delta fraction ``(|added| + |removed|) / max(base m, 1)`` past which
#: :meth:`DeltaOverlay.should_compact` recommends folding the log into
#: a fresh base CSR.  Around a quarter, the per-query delta corrections
#: start rivaling the one-off rebuild cost (same flat-optimum shape as
#: the frontier crossover).
DEFAULT_COMPACT_FRACTION = 0.25


class DeltaOverlay:
    """An edge/vertex delta log over an immutable base CSR graph.

    Invariants (maintained by the mutators):

    * ``_added`` and base edges are disjoint; ``_removed`` ⊆ base edges.
      Re-adding a removed base edge just clears its removal (and vice
      versa), so the delta never grows from flapping links.
    * ``_live_degrees`` is always the current degree sequence; the
      array object is stable across mutations *and* compaction, so
      engines may hold a reference.
    * Dead vertices (``alive[u] == False``) are isolated.
    """

    def __init__(
        self,
        base: Graph,
        compact_fraction: float = DEFAULT_COMPACT_FRACTION,
    ) -> None:
        self.base = base
        self.n = int(base.n)
        self.compact_fraction = float(compact_fraction)
        #: Vertices currently part of the overlay (dead slots park as
        #: isolated singletons; see the module docstring).
        self.alive = np.ones(self.n, dtype=bool)
        self._added: set[int] = set()
        self._removed: set[int] = set()
        self._m = int(base.m)
        self._live_degrees = base.degrees().astype(np.int64, copy=True)
        #: Number of compactions performed (instrumentation).
        self.compactions = 0
        # Sorted directed keys mirroring the delta sets, and each key
        # mutated since the last merge (_sync) mapped to the mirror
        # ("add", "rem" or None) it was in then.
        self._add_keys = _EMPTY
        self._rem_keys = _EMPTY
        self._touched: dict[int, str | None] = {}

    # -- key helpers ----------------------------------------------------
    def _key(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return u * self.n + v

    def _check_vertex(self, u: int) -> int:
        u = int(u)
        if not (0 <= u < self.n):
            raise IndexError(f"vertex {u} out of range for n={self.n}")
        return u

    # -- size / compaction bookkeeping ----------------------------------
    @property
    def m(self) -> int:
        """Current undirected edge count."""
        return self._m

    def delta_size(self) -> int:
        """Number of logged edge insertions plus deletions."""
        return len(self._added) + len(self._removed)

    def delta_fraction(self) -> float:
        """Delta size as a fraction of the base edge count."""
        return self.delta_size() / max(self.base.m, 1)

    def should_compact(self) -> bool:
        """Whether the delta log has outgrown the base (fold it in)."""
        return self.delta_fraction() > self.compact_fraction

    # -- queries ---------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is currently an edge."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        key = self._key(int(u), int(v))
        if key in self._added:
            return True
        if key in self._removed:
            return False
        return self.base.has_edge(u, v)

    def neighbors_of(self, u: int) -> np.ndarray:
        """Sorted int64 array of ``u``'s current neighbours."""
        u = self._check_vertex(u)
        return np.sort(self.gather(np.array([u])))

    def degrees(self) -> np.ndarray:
        """Live degree sequence (int64; callers must not mutate)."""
        return self._live_degrees

    def volume(self) -> int:
        """Current directed edge volume ``2m``."""
        return 2 * self._m

    def gather(self, vertices: np.ndarray) -> np.ndarray:
        """Concatenated *current* neighbour lists (with multiplicity)."""
        self._sync()
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return _EMPTY
        n64, base, add, rem = (
            np.int64(self.n), self.base, self._add_keys, self._rem_keys
        )
        # Row u's directed keys are [u * n, (u + 1) * n): a sorted mirror
        # holds each requested row as one run.
        first = vertices * n64
        last = first + n64
        if rem.size and (
            np.searchsorted(rem, first) != np.searchsorted(rem, last)
        ).any():
            src, dst = base._gather_rows(vertices)
            dst = dst[~self._hit(src * n64 + dst)]
        else:
            dst = gather_neighbors(
                base.indptr, base.indices, vertices
            ).astype(np.int64, copy=False)
        lo = np.searchsorted(add, first)
        lens = np.searchsorted(add, last) - lo
        total = int(lens.sum())
        if total == 0:
            return dst
        # The added runs back to back: entry j of run i is lo[i] + j.
        pos = np.repeat(
            lo - np.cumsum(lens, dtype=np.int64) + lens, lens
        ) + np.arange(total, dtype=np.int64)
        extra = add[pos] % n64
        if dst.size == 0:
            return extra
        return np.concatenate((dst, extra))

    # -- mutators --------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``; returns whether the topology changed."""
        u, v = self._check_vertex(u), self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) is not allowed")
        key = self._key(u, v)
        if key in self._removed:
            self._removed.discard(key)
            self._touched.setdefault(key, "rem")
        elif key in self._added or self.base.has_edge(u, v):
            return False
        else:
            self._added.add(key)
            self._touched.setdefault(key, None)
        self._m += 1
        self._live_degrees[u] += 1
        self._live_degrees[v] += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``{u, v}``; returns whether the topology changed."""
        u, v = self._check_vertex(u), self._check_vertex(v)
        if u == v:
            return False
        key = self._key(u, v)
        if key in self._added:
            self._added.discard(key)
            self._touched.setdefault(key, "add")
        elif key not in self._removed and self.base.has_edge(u, v):
            self._removed.add(key)
            self._touched.setdefault(key, None)
        else:
            return False
        self._m -= 1
        self._live_degrees[u] -= 1
        self._live_degrees[v] -= 1
        return True

    def remove_vertex(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Detach ``u`` (drop all incident edges) and mark its slot dead.

        Returns the removed edges' endpoint arrays ``(rem_us, rem_vs)``.
        """
        u = self._check_vertex(u)
        nbrs = self.neighbors_of(u)
        for w in nbrs.tolist():
            self.remove_edge(u, int(w))
        self.alive[u] = False
        return np.full(nbrs.size, u, dtype=np.int64), nbrs

    def add_vertex(self, u: int, neighbors: "tuple[int, ...] | list[int]" = ()) -> tuple[np.ndarray, np.ndarray]:
        """Revive slot ``u`` and attach it to ``neighbors``.

        Returns the inserted edges' endpoint arrays ``(add_us, add_vs)``
        (self-loops, duplicates, and already-present edges are skipped).
        """
        u = self._check_vertex(u)
        self.alive[u] = True
        attached = [
            int(w)
            for w in neighbors
            if int(w) != u and self.add_edge(u, int(w))
        ]
        vs = np.asarray(attached, dtype=np.int64)
        return np.full(vs.size, u, dtype=np.int64), vs

    def apply_event(
        self, event: object
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Apply one mutation event (duck-typed
        :class:`~repro.dynamic.mutations.MutationEvent`).

        Returns the *effective* edge delta
        ``(add_us, add_vs, rem_us, rem_vs)`` — the edges that actually
        changed, which is what
        :meth:`~repro.core.frontier.FrontierAggregates.apply_topology_delta`
        consumes.  No-op events (inserting a present edge, deleting an
        absent one) return four empty arrays.
        """
        kind = event.kind  # type: ignore[attr-defined]
        if kind == "add-edge":
            u, v = event.u, event.v  # type: ignore[attr-defined]
            if self.add_edge(u, v):
                return (
                    np.asarray([u], dtype=np.int64),
                    np.asarray([v], dtype=np.int64),
                    _EMPTY,
                    _EMPTY,
                )
            return _EMPTY, _EMPTY, _EMPTY, _EMPTY
        if kind == "del-edge":
            u, v = event.u, event.v  # type: ignore[attr-defined]
            if self.remove_edge(u, v):
                return (
                    _EMPTY,
                    _EMPTY,
                    np.asarray([u], dtype=np.int64),
                    np.asarray([v], dtype=np.int64),
                )
            return _EMPTY, _EMPTY, _EMPTY, _EMPTY
        if kind == "add-vertex":
            au, av = self.add_vertex(
                event.u, event.neighbors  # type: ignore[attr-defined]
            )
            return au, av, _EMPTY, _EMPTY
        if kind == "del-vertex":
            ru, rv = self.remove_vertex(event.u)  # type: ignore[attr-defined]
            return _EMPTY, _EMPTY, ru, rv
        raise ValueError(f"unknown mutation kind {kind!r}")

    # -- compaction ------------------------------------------------------
    def _delta_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Undirected endpoint arrays ``(add_us, add_vs, rem_us, rem_vs)``."""
        n64 = np.int64(self.n)

        def _pairs(keys: set[int]) -> tuple[np.ndarray, np.ndarray]:
            if not keys:
                return _EMPTY, _EMPTY
            arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
            arr.sort()
            lo, hi = np.divmod(arr, n64)
            return lo, hi

        add_us, add_vs = _pairs(self._added)
        rem_us, rem_vs = _pairs(self._removed)
        return add_us, add_vs, rem_us, rem_vs

    def snapshot(self) -> Graph:
        """The current topology as a fresh immutable :class:`Graph`."""
        return self.base.with_edge_deltas(*self._delta_arrays())

    def compact(self) -> Graph:
        """Fold the delta log into a fresh base CSR (in place).

        Purely representational: the current topology, degrees, and
        every engine-visible aggregate are unchanged, so trajectories
        are bitwise-identical whether or when this runs.  Callers
        holding a :class:`DeltaNeighborOps` must
        :meth:`~DeltaNeighborOps.rebase` afterwards.
        """
        graph = self.snapshot()
        self.base = graph
        self._added.clear()
        self._removed.clear()
        self._m = int(graph.m)
        # Same array object (engines hold references), fresh values —
        # the incremental bookkeeping already equals the rebuilt
        # degrees; re-deriving keeps the two provably in sync.
        np.copyto(self._live_degrees, graph.degrees())
        self._add_keys = self._rem_keys = _EMPTY
        self._touched.clear()
        self.compactions += 1
        return graph

    # -- directed mirror sync -------------------------------------------
    def _sync(self) -> None:
        """Merge the keys touched since the last sync into the mirrors.

        The mutators only note touched keys, so an event that never
        queries pays nothing here.  The sets stay the source of truth;
        only keys whose mirror changed move, so a key added and removed
        again within one window costs nothing.
        """
        if not self._touched:
            return
        moves: dict[str, tuple[list[int], list[int]]] = {
            "add": ([], []),  # (leaving, entering)
            "rem": ([], []),
        }
        for key, was in self._touched.items():
            now = (
                "add" if key in self._added
                else "rem" if key in self._removed
                else None
            )
            if now != was:
                if was is not None:
                    moves[was][0].append(key)
                if now is not None:
                    moves[now][1].append(key)
        self._touched.clear()
        self._add_keys = _merge(self._add_keys, *moves["add"], self.n)
        self._rem_keys = _merge(self._rem_keys, *moves["rem"], self.n)

    def _hit(self, dirkeys: np.ndarray) -> np.ndarray:
        """Membership of directed keys in the (sorted) removed mirror."""
        rem = self._rem_keys
        pos = np.searchsorted(rem, dirkeys)
        pos[pos == rem.size] = rem.size - 1
        return rem[pos] == dirkeys

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay(n={self.n}, m={self._m}, "
            f"delta={self.delta_size()}, "
            f"alive={int(np.count_nonzero(self.alive))}, "
            f"compactions={self.compactions})"
        )


class DeltaNeighborOps(NeighborOps):
    """Churn-aware :class:`NeighborOps` over a :class:`DeltaOverlay`.

    Every aggregate is the base backend's answer corrected by the delta
    mirrors: ``count`` adds a histogram over the added directed edges
    whose destination is in the mask and subtracts one over the removed
    directed edges; ``gather`` filters the base CSR rows against the
    removed keys (only when a requested row lost an edge) and appends
    the added rows.  Results are exact
    integer counts, so the engines (and their bitwise-trajectory
    contract) are oblivious to the representation.
    """

    def __init__(self, overlay: DeltaOverlay) -> None:
        super().__init__(overlay.base)
        self.overlay = overlay
        self._base_ops: NeighborOps = make_neighbor_ops(overlay.base)

    def rebase(self) -> None:
        """Re-anchor on the overlay's new base after a compaction."""
        self.graph = self.overlay.base
        self._base_ops = make_neighbor_ops(self.overlay.base)

    # -- dynamic topology hooks -----------------------------------------
    def degrees(self) -> np.ndarray:
        return self.overlay.degrees()

    def volume(self) -> int:
        return self.overlay.volume()

    def gather(self, vertices: np.ndarray) -> np.ndarray:
        return self.overlay.gather(vertices)

    # -- aggregates ------------------------------------------------------
    def count(self, mask: np.ndarray) -> np.ndarray:
        overlay = self.overlay
        overlay._sync()
        mask = np.asarray(mask)
        if mask.dtype != bool:
            mask = mask != 0
        out = self._base_ops.count(mask).astype(np.int64, copy=False)
        n64 = np.int64(self.n)
        for keys, sign in ((overlay._add_keys, 1), (overlay._rem_keys, -1)):
            if keys.size == 0:
                continue
            src, dst = np.divmod(keys, n64)
            sel = mask[dst]
            if sel.any():
                out += sign * np.bincount(src[sel], minlength=self.n)
        return out

    def apply_count_delta(
        self,
        counts: np.ndarray,
        up: np.ndarray | None,
        down: np.ndarray | None,
    ) -> np.ndarray:
        nbrs = [
            self.gather(np.asarray(verts, dtype=np.int64))
            if verts is not None and len(verts)
            else _EMPTY
            for verts in (up, down)
        ]
        _scatter_unit(counts, nbrs[0], nbrs[1])
        parts = [part for part in nbrs if part.size]
        if not parts:
            return _EMPTY
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)
