"""Incremental frontier aggregates: pay per round for what changed.

The paper's central phenomenon is that the unstable set ``V_t`` shrinks
geometrically, yet a naive engine charges full-graph cost every round:
one neighbourhood reduction (a CSR matvec over all ``2m`` directed
edges) in ``_advance`` plus two more in ``is_stabilized``.  Late in a
large sparse run a round that moves 50 vertices still costs three
passes over millions of edges.

This module maintains the neighbourhood aggregates the processes
actually consume — the per-vertex black-neighbour count, and the
stability bookkeeping (``I_t``, ``N+[I_t]``, the unstable-vertex
counter) behind the stabilization predicate — as *persistent state*,
updated each round by scatter-adds over only the edges incident to
vertices whose state changed.  Per-round cost becomes
``O(n + vol(changed))`` instead of ``O(m)`` (the ``O(n)`` term is the
coin draw and the boolean mask algebra, which every engine pays).

Each round, :meth:`FrontierAggregates.advance` scatter-updates the
persistent counts when the changed set's edge volume is below the
crossover fraction of the graph's total directed edge volume, and
otherwise recomputes them with one full reduction (the counts stay
persistent either way): early rounds where most of the graph moves pay
one matvec, and as ``V_t`` collapses the aggregates switch to scatter
updates.  The choice is the code's, not the caller's.

Both paths produce bitwise-identical trajectories: the aggregates are
exact integer counts however they are computed, and the coin
discipline is untouched (``bits(n)`` is drawn every round even when few
vertices consume it).  ``tests/test_frontier.py`` pins the processes
against the literal per-vertex references of :mod:`repro.core.reference`
with the crossover forced to either extreme as well as at its default.

Stabilization bookkeeping
-------------------------

Alongside the black-neighbour counts, :class:`FrontierAggregates`
maintains ``I_t`` (the stable-black set), the per-vertex count of
stable-black neighbours, the covered mask ``N+[I_t]`` and the number of
uncovered vertices — so ``is_stabilized()`` is an O(1) counter check in
the frontier regime instead of two fresh reductions.  ``I_t`` can only
change where the black mask or a black-neighbour count changed, so the
bookkeeping is scatter-updated along the same edges as the counts.

The 3-state process also consumes a black1 indicator, and its second
count is ``aux_counts[u] = |N(u) ∩ (B1_t \\ I_t)|``: black1
neighbours *outside* ``I_t``.  A stable black vertex re-draws
black1/black0 every round forever, so counting all of ``B1_t`` would
scatter the flips of the whole of ``I_t`` every round; with ``I_t``
excluded, and ``I_t`` monotone, the black1 scatter collapses with
``V_t``.  No consumer can tell the difference: the black1 flags are read
only at black0 vertices, and a black vertex never neighbours a stable
one (a stable vertex has no black neighbour), so at every black vertex
the two counts agree.

The 3-color/switch process stays on the full path for now: its switch
levels perform a ``max`` diffusion over *every* closed neighbourhood
each round (levels decay by 1 per round everywhere), so there is no
small changed set to exploit — the switch state never quiesces the way
the 2-/3-state masks do.

Crossover
---------

``DEFAULT_CROSSOVER`` is the scatter/full switch point as a fraction of
the graph's directed edge volume ``2m``, picked empirically on sparse
G(n, 3/n) workloads (see ``benchmarks/bench_frontier.py``): a bincount
scatter touches ``vol(changed)`` edges but pays an ``O(n)`` histogram
pass per delta sign, while the CSR matvec touches all ``2m`` edges with
a tighter inner loop.  The measured break-even sits near a quarter of
the total volume and is flat around the optimum, matching the
``vol(changed) > m/4``-ish heuristic from frontier-based BFS and
label-propagation systems.
"""

from __future__ import annotations

import numpy as np

from repro.core.neighbor_ops import NeighborOps, unique_flat
from repro.graphs.graph import Graph

#: Scatter/full crossover as a fraction of the directed edge volume 2m
#: (see the module docstring; picked empirically, flat optimum — the
#: bincount scatter stays competitive with the CSR matvec up to about
#: half the total volume on the sparse frontier workloads).
DEFAULT_CROSSOVER = 0.25

#: Token meaning "aggregates out of sync with the process state".
STALE = object()


class FrontierAggregates:
    """Persistent neighbourhood aggregates for one evolving black mask.

    Maintains, for the process that owns it:

    * ``counts``        — int64, ``counts[u] = |N(u) ∩ B_t|``;
    * ``has_black``     — ``counts > 0``, kept materialized (it is what
      the update rules actually consume);
    * ``aux_counts`` / ``aux_has`` — optional second count array for
      processes that consume a second indicator (the 3-state process's
      black1 mask), counting only indicator vertices outside ``I_t``:
      ``aux_counts[u] = |N(u) ∩ (aux \\ I_t)|`` (module docstring);
    * ``stable``        — ``I_t``, the black vertices with no black
      neighbour;
    * ``covered``       — ``N+[I_t]``;
    * ``unstable_total``— ``|V \\ N+[I_t]|``, the O(1) stabilization
      counter.

    The stable-black-neighbour counts behind ``N+[I_t]`` are computed
    at rebuild time to seed ``covered``; per round they are redundant,
    because one synchronous application of any of the update rules can
    only *add* vertices to ``I_t`` (a black vertex with no black
    neighbour keeps its state, and its neighbours — non-black with a
    black neighbour — keep theirs; this holds from any configuration,
    so corrupted starts are covered too).  ``covered`` therefore grows
    by ``added ∪ N(added)`` writes; if a removal is ever observed the
    engine falls back to a from-scratch recomputation
    (:meth:`_recompute_covered`).

    A topology delta (:meth:`apply_topology_delta`) can shrink
    ``N+[I_t]``: a new edge to a black vertex moves a stable vertex out
    of ``I_t`` (call the set of such vertices ``R``), and a deleted edge
    can cut a vertex off its only stable neighbour.  Only ``N+[R]``
    (over the new adjacency) and the deleted edges' endpoints can lose
    their cover — any other covered vertex keeps both the stable
    neighbour and the edge that covered it — so the delta re-derives
    ``covered`` at exactly those candidates
    (:meth:`_recover_covered_at`) in ``O(vol(N+[R]) + vol(near))`` work,
    ``near`` being the stable neighbours of the candidates: about
    ``d^2`` edges at average degree ``d``, instead of ``vol(I_t)``.

    ``token`` is the identity of the state array the aggregates were
    last synced to; owners compare it against their current state array
    and call :meth:`rebuild` on mismatch (which is how transient faults
    injected via ``corrupt`` re-dirty the incremental state).

    Parameters
    ----------
    graph:
        The (immutable) graph.
    ops:
        The owner's :class:`~repro.core.neighbor_ops.NeighborOps`, used
        for full recomputations and scatter deltas.
    track_aux:
        Maintain the auxiliary count array as well.

    The scatter/full switch point is :data:`DEFAULT_CROSSOVER`, read
    whenever the edge volume is (re)measured.
    """

    def __init__(
        self,
        graph: Graph,
        ops: NeighborOps,
        track_aux: bool = False,
    ) -> None:
        self.graph = graph
        self.ops = ops
        self.n = graph.n
        self.track_aux = bool(track_aux)
        # Degrees/volume come from the ops backend, not the graph: the
        # dynamic overlay backend (repro.dynamic.overlay) reports the
        # live churn-adjusted topology through the same hooks.
        self._degrees = ops.degrees()
        #: Directed edge volume 2m — the cost of one full reduction.
        self.volume = int(ops.volume())
        self._threshold = DEFAULT_CROSSOVER * self.volume
        self.token: object = STALE
        self.counts: np.ndarray | None = None
        self.has_black: np.ndarray | None = None
        self.aux_counts: np.ndarray | None = None
        self.aux_has: np.ndarray | None = None
        self.stable: np.ndarray | None = None
        self.covered: np.ndarray | None = None
        self.unstable_total: int = self.n
        #: Round counters by update path (introspection / experiments).
        self.scatter_rounds = 0
        self.full_rounds = 0
        #: Topology-delta counters (incremental repair vs fallback; see
        #: :meth:`apply_topology_delta` and :mod:`repro.dynamic`).
        self.topology_repairs = 0
        self.topology_rebuilds = 0

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Force a rebuild on next access (after in-place state edits)."""
        self.token = STALE

    def _full_counts(self, mask: np.ndarray) -> np.ndarray:
        # int64 counts: np.bincount emits int64, so the scatter adds are
        # cast-free (an int32 store costs an extra conversion pass per
        # histogram; the wider array is noise next to that).
        return self.ops.count(mask).astype(np.int64, copy=False)

    def _counts_for(self, mask: np.ndarray) -> np.ndarray:
        """Counts for a mask, by scatter when its volume is small.

        Rebuild-time analogue of the per-round crossover: a sparse mask
        (e.g. ``I_0`` of a random initial configuration) is cheaper to
        histogram from its members than to push through a full
        reduction.
        """
        members = np.flatnonzero(mask)
        if self.changed_volume(members) <= self._threshold:
            counts = np.zeros(self.n, dtype=np.int64)
            self.ops.apply_count_delta(counts, members, None)
            return counts
        return self._full_counts(mask)

    def rebuild(
        self,
        black: np.ndarray,
        token: object,
        aux: np.ndarray | None = None,
    ) -> None:
        """Recompute every aggregate from scratch for the given mask(s)."""
        if self.track_aux and aux is None:
            raise ValueError("track_aux aggregates need an aux mask")
        self.counts = self._counts_for(black)
        self.has_black = self.counts > 0
        self.stable = black & ~self.has_black
        self._recompute_from_stable(aux)
        self.token = token

    def _recompute_from_stable(self, aux: np.ndarray | None) -> None:
        """Everything derived from ``stable``, from scratch.

        That is ``N+[I_t]`` with the unstable counter and, when tracked,
        the auxiliary counts over ``aux \\ I_t``.
        """
        if self.track_aux:
            self.aux_counts = self._counts_for(aux & ~self.stable)
            self.aux_has = self.aux_counts > 0
        self._recompute_covered()

    def _recompute_covered(self) -> None:
        """``N+[I_t]`` and the unstable counter from the current ``stable``."""
        members = np.flatnonzero(self.stable)
        covered = self.stable.copy()
        if members.size:
            nbrs = self.ops.gather(members)
            if nbrs.size:
                covered[nbrs] = True
        self.covered = covered
        self.unstable_total = self.n - int(np.count_nonzero(covered))

    # ------------------------------------------------------------------
    def changed_volume(self, *vertex_arrays: np.ndarray) -> int:
        """Total degree of the given vertex index arrays (scatter cost)."""
        total = 0
        for verts in vertex_arrays:
            if verts is not None and len(verts):
                total += int(self._degrees[verts].sum())
        return total

    def advance(
        self,
        new_black: np.ndarray,
        up: np.ndarray,
        down: np.ndarray,
        token: object,
        aux_mask: np.ndarray | None = None,
        aux_up: np.ndarray | None = None,
        aux_down: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Advance the aggregates across one synchronous round.

        ``up``/``down`` are the vertices that entered/left the black
        mask this round (``aux_up``/``aux_down`` likewise for the
        auxiliary indicator; entries in the pre-round ``I_t`` are
        ignored, since the auxiliary counts exclude it);
        ``new_black``/``aux_mask`` are the post-round masks, used on
        full-recompute rounds (``aux_mask`` is required whenever the
        auxiliary counts are tracked).

        Returns the scatter targets of the black-count update (the
        vertices whose ``counts`` / ``has_black`` entries may have
        changed, with multiplicity) on scatter rounds, or ``None`` on
        full-recompute rounds — owners maintaining their own
        frontier-localized state (the 2-state process's active-vertex
        index set) key off this.
        """
        black_moved = (up is not None and len(up) > 0) or (
            down is not None and len(down) > 0
        )
        if self.track_aux:
            # The auxiliary counts cover aux \\ I_t: flips inside the
            # pre-round I_t never reach them.  Filter before the
            # stability pass below edits ``stable``.
            aux_up = self._outside_stable(aux_up)
            aux_down = self._outside_stable(aux_down)
        # The scatter/full crossover is decided per indicator: a pooled
        # decision would let a bulky auxiliary round force the black
        # counts through a full recomputation too.
        black_scatter = True
        touched = self.graph.indices[:0]
        if black_moved:
            black_scatter = self.changed_volume(up, down) <= self._threshold
            if black_scatter:
                touched = self.ops.apply_count_delta(self.counts, up, down)
                if touched.size * 16 < self.n:
                    self.has_black[touched] = self.counts[touched] > 0
                else:
                    self.has_black = self.counts > 0
            else:
                touched = None
                self.counts = self._full_counts(new_black)
                self.has_black = self.counts > 0
        # I_t = f(black mask, black counts): both unchanged when no
        # vertex entered or left the black set, so the stability pass
        # can be skipped outright on black-quiescent rounds.
        added: np.ndarray | None = self.graph.indices[:0]
        if black_moved:
            if (
                touched is not None
                and (len(up) + len(down) + touched.size) * 8 < self.n
            ):
                # Small round: I_t can only change at the moved vertices
                # and the scatter targets, so the whole stability pass
                # runs on that candidate set instead of length-n masks
                # (multiplicity is fine — every write is idempotent).
                candidates = np.concatenate((up, down, touched))
                added = self._update_stability_local(
                    new_black, candidates, aux_mask
                )
            else:
                added = self._update_stability(new_black, aux_mask)
        # ``added is None``: I_t lost a vertex and the auxiliary counts
        # were recomputed from scratch along with N+[I_t].
        if self.track_aux and added is not None:
            if added.size:
                # Newly stable black1 vertices leave the counted set.
                aux_down = np.concatenate(
                    (aux_down, unique_flat(added[aux_mask[added]], self.n))
                )
            if self.changed_volume(aux_up, aux_down) <= self._threshold:
                aux_touched = self.ops.apply_count_delta(
                    self.aux_counts, aux_up, aux_down
                )
                if aux_touched.size * 16 < self.n:
                    self.aux_has[aux_touched] = (
                        self.aux_counts[aux_touched] > 0
                    )
                else:
                    self.aux_has = self.aux_counts > 0
            else:
                self.aux_counts = self._full_counts(aux_mask & ~self.stable)
                self.aux_has = self.aux_counts > 0
                black_scatter = False  # label the round "full" below
        if black_scatter:
            self.scatter_rounds += 1
        else:
            self.full_rounds += 1
        self.token = token
        return touched

    def _outside_stable(self, verts: np.ndarray | None) -> np.ndarray:
        """The entries of ``verts`` outside the current ``I_t``."""
        if verts is None or len(verts) == 0:
            return self.graph.indices[:0]
        return verts[~self.stable[verts]]

    def _cover_added(self, added: np.ndarray) -> None:
        """Monotone covered update: ``N+[added]`` becomes covered."""
        self.covered[added] = True
        nbrs = self.ops.gather(added)
        if nbrs.size:
            self.covered[nbrs] = True
        self.unstable_total = self.n - int(np.count_nonzero(self.covered))

    def _update_stability_local(
        self,
        new_black: np.ndarray,
        candidates: np.ndarray,
        aux: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Candidate-set variant of :meth:`_update_stability`.

        ``candidates`` must contain every vertex whose blackness or
        black-neighbour count changed this round (multiplicity is
        harmless, and the returned ``added`` may repeat vertices); the
        stability state is edited in place at O(vol(changed))-many
        positions.  The only length-n work left is the SIMD popcount of
        the covered mask that refreshes the unstable counter (cheaper
        in practice than deduplicating the newly-covered candidates to
        count the delta).
        """
        new_st = new_black[candidates] & ~self.has_black[candidates]
        diff = new_st != self.stable[candidates]
        if not diff.any():
            return candidates[:0]
        moved = candidates[diff]
        moved_new = new_st[diff]
        added = moved[moved_new]
        removed = moved[~moved_new]
        self.stable[added] = True
        if removed.size:
            # Unreachable under the update rules (I_t is monotone, see
            # the class docstring) but kept exact for safety.
            self.stable[removed] = False
            self._recompute_from_stable(aux)
            return None
        self._cover_added(added)
        return added

    # ------------------------------------------------------------------
    # Topology churn (the dynamic overlay, :mod:`repro.dynamic`).

    @staticmethod
    def _patch_counts(
        counts: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        mask: np.ndarray,
        sign: int,
    ) -> None:
        """``counts[u] += sign`` per edge ``(u, v)`` with ``mask[v]`` (both ways)."""
        targets = np.concatenate((us[mask[vs]], vs[mask[us]]))
        if targets.size:
            np.add.at(counts, targets, sign)

    def apply_topology_delta(
        self,
        black: np.ndarray,
        add_us: np.ndarray,
        add_vs: np.ndarray,
        rem_us: np.ndarray,
        rem_vs: np.ndarray,
        token: object,
        aux: np.ndarray | None = None,
    ) -> str:
        """Repair the aggregates across an edge delta; returns the action.

        Must be called *after* the owner's ops backend reflects the new
        adjacency (the dynamic overlay of :mod:`repro.dynamic.overlay`
        mutates first, then repairs).  ``add_us``/``add_vs`` and
        ``rem_us``/``rem_vs`` are endpoint arrays of the edges actually
        inserted/deleted (one entry per undirected edge);
        ``black``/``aux`` are the *current* state masks, which topology
        changes never touch.

        Actions returned:

        * ``"repair"``         — counts, ``has_black``, ``I_t``, and the
          covered mask all patched from only the touched endpoints
          (``O(endpoints + vol(I_t) additions)`` work).
        * ``"repair+recover"`` — counts patched incrementally, but the
          delta can shrink ``N+[I_t]`` (a set ``R`` of vertices left
          ``I_t``, or a deleted edge touched a stable vertex), so the
          cover is re-derived locally at the candidates
          ``N+[R] ∪ {endpoints of deleted edges}`` — the only vertices
          that can lose it (class docstring) — before the monotone
          additions of the plain repair;
          ``O(vol(N+[R]) + vol(near))`` work instead of ``O(vol(I_t))``.
        * ``"rebuild"``        — the aggregates were already stale, or
          the delta volume crossed the full-reduction threshold;
          everything is recomputed (lazily in the stale case).
        """
        add_us = np.asarray(add_us, dtype=np.int64)
        add_vs = np.asarray(add_vs, dtype=np.int64)
        rem_us = np.asarray(rem_us, dtype=np.int64)
        rem_vs = np.asarray(rem_vs, dtype=np.int64)
        if self.track_aux and aux is None:
            raise ValueError("track_aux aggregates need an aux mask")
        # Topology-derived scalars first: degrees and volume moved under
        # us, and every later cost estimate must see the new topology.
        self._degrees = self.ops.degrees()
        self.volume = int(self.ops.volume())
        self._threshold = DEFAULT_CROSSOVER * self.volume
        if self.token is not token or self.counts is None:
            # Already out of sync with the state — nothing worth
            # repairing; the next aggregate access rebuilds.
            self.token = STALE
            self.topology_rebuilds += 1
            return "rebuild"
        endpoints = np.concatenate((add_us, add_vs, rem_us, rem_vs))
        if self.changed_volume(endpoints) > self._threshold:
            self.rebuild(black, token, aux=aux)
            self.topology_rebuilds += 1
            return "rebuild"
        # The auxiliary counts cover aux \\ I_t; patch the edge delta
        # with the pre-repair I_t, then move the I_t changes below.
        counted = aux & ~self.stable if self.track_aux else None
        for us, vs, sign in ((add_us, add_vs, 1), (rem_us, rem_vs, -1)):
            if us.size == 0:
                continue
            self._patch_counts(self.counts, us, vs, black, sign)
            if counted is not None:
                self._patch_counts(self.aux_counts, us, vs, counted, sign)
        uniq = np.unique(endpoints)
        self.has_black[uniq] = self.counts[uniq] > 0
        # I_t can only change at the touched endpoints (blackness is
        # untouched; only their counts moved).
        new_st = black[uniq] & ~self.has_black[uniq]
        diff = new_st != self.stable[uniq]
        added = uniq[diff & new_st]
        removed = uniq[diff & ~new_st]
        self.stable[added] = True
        self.stable[removed] = False
        if self.track_aux:
            # Over the new adjacency: black1 vertices leaving I_t join
            # the counted set, black1 vertices entering it leave.
            aux_touched = self.ops.apply_count_delta(
                self.aux_counts, removed[aux[removed]], added[aux[added]]
            )
            refresh = np.concatenate((uniq, aux_touched))
            self.aux_has[refresh] = self.aux_counts[refresh] > 0
        # Coverage is monotone only while I_t grows and no edge out of a
        # stable vertex disappears; otherwise recompute N+[I_t].  (The
        # removed-edge test is conservative: it fires even when the
        # stable endpoint only just *entered* I_t, which loses nothing
        # but a cheap scatter.)
        recover = removed.size > 0
        if not recover and rem_us.size:
            recover = bool(
                self.stable[rem_us].any() or self.stable[rem_vs].any()
            )
        if recover:
            # Only N+[removed] and the deleted edges' endpoints can lose
            # their cover (class docstring); re-derive it there.
            self._recover_covered_at(
                np.concatenate(
                    (removed, self.ops.gather(removed), rem_us, rem_vs)
                )
            )
        if added.size:
            self._cover_added(added)
        if add_us.size:
            # New edges out of stable vertices extend N+[I_t].
            extra = np.concatenate(
                (add_vs[self.stable[add_us]], add_us[self.stable[add_vs]])
            )
            if extra.size:
                self.covered[extra] = True
                self.unstable_total = self.n - int(
                    np.count_nonzero(self.covered)
                )
        self.token = token
        self.topology_repairs += 1
        return "repair+recover" if recover else "repair"

    def _recover_covered_at(self, cands: np.ndarray) -> None:
        """Re-derive ``covered`` at ``cands`` from the current ``I_t``.

        A candidate is covered iff it is stable or has a stable
        neighbour; every vertex written ``True`` here neighbours a
        stable vertex, so writes outside ``cands`` are exact too.  Costs
        ``O(vol(cands) + vol(stable neighbours of cands))``.
        """
        self.covered[cands] = self.stable[cands]
        nbrs = self.ops.gather(cands)
        near = nbrs[self.stable[nbrs]]
        self.covered[self.ops.gather(near)] = True
        self.unstable_total = self.n - int(np.count_nonzero(self.covered))

    def _update_stability(
        self, new_black: np.ndarray, aux: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Update ``I_t`` / ``N+[I_t]`` / the unstable counter.

        ``I_t`` can only change at vertices whose blackness or
        black-neighbour count changed, and under one application of the
        update rules it can only *grow* (class docstring); the covered
        mask therefore grows by ``added ∪ N(added)``.  Returns
        ``added``.  A removal — impossible under the dynamics — drops
        to the from-scratch recomputation of everything derived from
        ``I_t`` instead (the auxiliary counts over ``aux \\ I_t``
        included) and returns ``None``.
        """
        new_stable = new_black & ~self.has_black
        delta = np.flatnonzero(new_stable != self.stable)
        self.stable = new_stable
        if delta.size == 0:
            return delta
        added = delta[new_stable[delta]]
        if added.size < delta.size:  # removals present
            self._recompute_from_stable(aux)
            return None
        self._cover_added(added)
        return added
