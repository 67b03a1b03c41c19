"""Incremental frontier aggregates for the batched trial engines.

The batched engine family (:mod:`repro.core.batched`) validates the
paper's w.h.p. bounds with fleets of hundreds of replicas, and the
process's defining behaviour — geometric decay of the unstable set —
means that after the first few rounds each replica has only a handful
of vertices still moving.  The PR 2 engines nevertheless paid a full
``(R, n)`` neighbour reduction (plus a second one for the stabilization
predicate) every round, so the long tail cost as much as round 1.

This module is the batched analogue of :mod:`repro.core.frontier`: the
per-replica black-neighbour counts (plus black1 counts for the 3-state
family) live in a persistent ``(R_live, n)`` matrix, scatter-updated
from only the changed ``(replica, vertex)`` pairs.  The scatter targets
are *flattened* ``r * n + v`` COO indices:

* on the shared-graph path the changed vertices' CSR neighbour runs
  are gathered from the one shared graph
  (:func:`repro.core.neighbor_ops.gather_neighbors`) and offset by
  ``r * n`` per pair;
* on the block-diagonal path (per-trial resampled graphs) the changed
  pairs index straight into the block CSR — whose columns already *are*
  flat ``block_row * n + v`` indices — and come back mapped to live
  rows through the engine's ``pos`` permutation.

Each round every replica decides independently between the scatter
update and one full row reduction (the PR 4 crossover,
:data:`repro.core.frontier.DEFAULT_CROSSOVER`, applied to that
replica's own directed edge volume), so a replica mid-collapse
scatters while a freshly corrupted or bulky replica recomputes.

Stability bookkeeping rides the same deltas: per-replica ``I_t`` and
``N+[I_t]`` masks grow add-only (one application of the update rules
can only add to ``I_t``, from any configuration — the serial argument
in :class:`repro.core.frontier.FrontierAggregates` carries over
replica-wise), and a per-replica unstable-vertex counter makes the
retirement test an O(R_live) compare instead of a second reduction:
stabilized replicas retire without ever issuing a final full pass.

All state is aligned with the engine's *live* rows.  A retired row keeps
its slot, idle (no coin draw, no delta), until at most half the slots
still run or a bulk round comes; only then does
:meth:`BatchedFrontierAggregates.filter` compact, so a run copies
``O(R·n)`` cells in all, not per retiring round.  Between runs an
engine keeps its retired replicas' final counts (:class:`ResidentCounts`),
and its next run repairs them from the pairs that changed in between
(:meth:`BatchedFrontierAggregates.repair`) instead of rebuilding — the
fault-wave shape, where a few vertices per stabilized replica flip.
Everything is exact integer arithmetic on the
same coin stream, so replicas stay bitwise-identical to their serial
counterparts, whichever path a round takes — the differential oracle
``tests/test_oracle.py`` pins batched runs against the literal
references of :mod:`repro.core.reference`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core import frontier
from repro.core.neighbor_ops import _scatter_unit, unique_flat
from repro.core.verify import neighbor_or
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, rows_to_words, words_to_rows

if TYPE_CHECKING:  # import cycle: batched.py imports this module
    from repro.core.batched import _BatchedMISEngine

#: |active pairs| bound (as a fraction of R_live * n) below which the
#: 2-state engine advances on the flat active-pair set instead of the
#: (R, n) masks — the batched analogue of the serial engine's
#: ``_ACTIVE_IDX_FRACTION``, but entered much earlier: pair rounds
#: re-extract A_t from a maintained boolean matrix (one cheap scan)
#: instead of merging sorted index sets, so they stay profitable up to
#: activity fractions where the serial index set would thrash.
PAIR_ADVANCE_FRACTION = 10

#: |active pairs| bound (as a fraction of R_live * n) below which the
#: activity set is carried as a sorted flat index array instead of a
#: boolean matrix: deep-tail rounds then merge candidate sets in
#: O(|A_t| log |A_t|) instead of rescanning R_live * n booleans.
PAIR_INDEX_FRACTION = 64

#: Changed-pair bound (as a fraction of R_live * n) above which a
#: round runs as a *bulk* round: one full reduction
#: per indicator and no delta extraction.  Batched reductions amortize
#: far better than serial ones (one CSR × dense product serves every
#: replica), so the batched scatter pays off only at much smaller
#: changed fractions than the serial ``DEFAULT_CROSSOVER``.
BULK_ADVANCE_FRACTION = 24

#: Changed-pair bound (as a fraction of R * n) above which a re-run
#: engine rebuilds its aggregates instead of repairing the resident
#: ones (:meth:`BatchedFrontierAggregates.repair`).  Measured on
#: G(2^14, 3/n) with 128 stabilized replicas (2 vCPU): repair 7 ms
#: against rebuild 76 ms at 1/1024 of the pairs changed (a 16-vertex
#: wave), 96 against 112 ms at 1/64, and 107 against 96 ms at 1/51.
REPAIR_FRACTION = 64

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class ResidentCounts:
    """What a batched engine keeps of its aggregates between runs.

    Every row retired stabilized, and a stabilized replica has
    ``I = B`` and ``N+[I] = V``: its ``has`` is ``~black``, its
    ``stable`` is ``black``, it is covered everywhere and ``unstable``
    is 0.  So the final masks and counts are all a re-run needs to
    repair from (:meth:`BatchedFrontierAggregates.repair`).
    """

    black: np.ndarray
    counts: np.ndarray
    aux: np.ndarray | None = None
    aux_counts: np.ndarray | None = None


@dataclass
class RoundDelta:
    """The ``(replica, vertex)`` pairs that changed in one round.

    ``up_rows[i], up_verts[i]`` is a pair that entered the black mask
    this round (``down_*`` left it); the ``aux_*`` arrays carry the
    auxiliary indicator's deltas for engines that track one (the
    3-state family's black1 mask), with ``aux_mask`` the post-round
    auxiliary mask used on full-recompute rounds.  Rows are *live* row
    indices (positions in the engine's current ``live`` array).
    """

    up_rows: np.ndarray
    up_verts: np.ndarray
    down_rows: np.ndarray
    down_verts: np.ndarray
    aux_up_rows: np.ndarray | None = None
    aux_up_verts: np.ndarray | None = None
    aux_down_rows: np.ndarray | None = None
    aux_down_verts: np.ndarray | None = None
    aux_mask: np.ndarray | None = None


@dataclass
class WordAggregates:
    """The 2-state aggregates as ``(n, ⌈L/64⌉)`` uint64 words, replica
    ``i`` at bit ``i % 64`` of word ``i // 64`` (DESIGN §5): ``B``,
    ``H = OR_N(B)``, ``I = B & ~H`` and ``N+[I] = I | OR_N(I)``, plus
    ``done``, the replicas that ``N+[I]`` covers."""

    black: np.ndarray
    has: np.ndarray
    stable: np.ndarray
    covered: np.ndarray
    done: np.ndarray

    @classmethod
    def of(cls, black: np.ndarray, graph: Graph, rows: int) -> WordAggregates:
        """The aggregates of ``rows`` replicas' black words on ``graph``."""
        has = neighbor_or(black, graph)
        stable = black & ~has
        covered = stable | neighbor_or(stable, graph)
        every = np.bitwise_and.reduce(covered, axis=0, keepdims=True)
        return cls(black, has, stable, covered, words_to_rows(every, rows)[:, 0])


def word_round(
    words: WordAggregates, sources: Sequence[CoinSource]
) -> tuple[np.ndarray, int]:
    """One 2-state round on words, ``(B', |B' ^ B|)``: the active
    ``~(B ^ H)`` take their coin, ``B' = B ^ (A & (Φ ^ B))``."""
    phi = CoinSource.bits_words(sources, words.black.shape[0])
    flip = ~(words.black ^ words.has) & (phi ^ words.black)
    return words.black ^ flip, int(np.bitwise_count(flip).sum())


def apply_flat_delta(
    counts_flat: np.ndarray,
    up: np.ndarray | None,
    down: np.ndarray | None,
) -> None:
    """Scatter ``+1``/``-1`` at flat target indices (with multiplicity).

    The flat-index analogue of
    :meth:`repro.core.neighbor_ops.NeighborOps.apply_count_delta`, for
    callers that already hold the gathered COO targets, through the
    same :func:`~repro.core.neighbor_ops._scatter_unit`: a
    dtype-matched ``np.add.at`` per sign, a histogram above 2 targets
    per entry (the counts are the backend's native int32 here, which a
    bare Python ``1`` would push off numpy's ``ufunc.at`` fast path).
    """
    _scatter_unit(counts_flat, up, down)


class BatchedFrontierAggregates:
    """Persistent per-replica aggregates for one batched engine run.

    Owned by a :class:`repro.core.batched._BatchedMISEngine` for the
    duration of one :meth:`run`; all arrays are aligned with the
    engine's current *live* rows (row ``i`` ↔ replica ``live[i]``);
    retired rows sit idle until :meth:`filter`, and the regime
    thresholds measure the running rows only (``engine._cells``).

    State:

    * ``counts``     — int64 ``(L, n)``, ``counts[i, u] = |N(u) ∩ B_t|``
      in replica ``live[i]``;
    * ``aux_counts`` — optional second count matrix (3-state black1);
    * ``stable``     — ``I_t`` per replica;
    * ``covered``    — ``N+[I_t]`` per replica (add-only);
    * ``unstable``   — int64 ``(L,)``, ``|V \\ N+[I_t]|`` per replica —
      the retirement test is ``unstable == 0``, no reduction needed.

    Parameters
    ----------
    engine:
        The owning batched engine (provides the shared-graph /
        block-diagonal reductions, flat-target gathers and per-pair
        degrees).
    track_aux:
        Maintain the auxiliary count matrix as well.

    Each replica's scatter/full switch point is
    :data:`repro.core.frontier.DEFAULT_CROSSOVER` of its own directed
    edge volume, read at every rebuild.
    """

    def __init__(
        self,
        engine: "_BatchedMISEngine",
        track_aux: bool = False,
    ) -> None:
        self.engine = engine
        self.n = engine.n
        self.track_aux = bool(track_aux)
        self.counts: np.ndarray | None = None
        self.has: np.ndarray | None = None
        self.aux_counts: np.ndarray | None = None
        self.aux_has: np.ndarray | None = None
        self.stable: np.ndarray | None = None
        self.covered: np.ndarray | None = None
        self.unstable: np.ndarray | None = None
        self.row_vols: np.ndarray | None = None
        self._thresholds: np.ndarray | None = None
        #: The word form, from :meth:`start_words` to :meth:`rebuild`.
        self.words: WordAggregates | None = None
        #: Round counters by update path (introspection / benchmarks).
        self.scatter_rounds = 0
        self.full_rounds = 0

    # ------------------------------------------------------------------
    def _counts_for(
        self, mask: np.ndarray, pos: np.ndarray | None
    ) -> np.ndarray:
        """Counts for a mask matrix, by flat scatter when it is sparse.

        The rebuild-time analogue of the per-round crossover: a sparse
        indicator (a near-stable fleet's black mask, a thin black1
        mask) is cheaper to histogram from its members' gathered edges
        than to push through a full reduction.
        """
        # Cheap density precheck first (the exact per-pair degrees are
        # only worth computing for masks that could plausibly win).
        members = int(np.count_nonzero(mask))
        if members == 0:
            return np.zeros(mask.shape, dtype=np.int64)
        if members * 8 > mask.size:
            return self.engine._count_nbrs(mask, pos)
        rows, verts = np.nonzero(mask)
        vol = int(
            self.engine._pair_degrees(
                rows.astype(np.int64), verts.astype(np.int64), pos
            ).sum()
        ) if rows.size else 0
        if rows.size and vol * 8 <= int(self.row_vols.sum()):
            counts = np.zeros(mask.size, dtype=np.int64)
            apply_flat_delta(
                counts,
                self.engine._flat_targets(
                    rows.astype(np.int64), verts.astype(np.int64), pos
                ),
                None,
            )
            return counts.reshape(mask.shape)
        return self.engine._count_nbrs(mask, pos)

    def rebuild(
        self,
        black: np.ndarray,
        pos: np.ndarray | None,
        aux_mask: np.ndarray | None = None,
    ) -> None:
        """Recompute every aggregate from scratch for the given mask(s).

        After word rounds this is the hand-over: one reduction for the
        counts; the masks unpack C-contiguous from :attr:`words`.
        """
        self.row_vols = self.engine._row_volumes(pos)
        self._thresholds = frontier.DEFAULT_CROSSOVER * self.row_vols
        words, self.words = self.words, None
        if words is not None:
            self.counts = np.ascontiguousarray(self.engine._count_nbrs(black, pos))
            self.has, self.stable, self.covered = (
                words_to_rows(w, black.shape[0])
                for w in (words.has, words.stable, words.covered)
            )
            self.unstable = self.n - np.count_nonzero(self.covered, axis=1)
            return
        # The backend's native count dtype is kept (int32 for the
        # matvec backends): the scatter adds stay exact — counts never
        # leave [0, n) — and narrower rows halve mask-pass traffic.
        # ``has`` is the materialized ``counts > 0`` every consumer
        # actually reads (update rules, activity, stability).
        self.counts = self._counts_for(black, pos)
        self.has = self.counts != 0
        if self.track_aux:
            if aux_mask is None:
                raise ValueError("track_aux aggregates need an aux mask")
            self.aux_counts = self._counts_for(aux_mask, pos)
            self.aux_has = self.aux_counts != 0
        self.stable = np.ascontiguousarray(black & ~self.has)
        # N+[I_0] needs the stable-black neighbour counts.  Three ways,
        # cheapest by shape: (a) near-stable fleets (the recovery
        # workload: I_0 ≈ B_0) subtract the few unstable-black pairs'
        # edges from the black counts already in hand; (b) sparse I_0
        # gathers its members' edges; (c) everything else pays one more
        # reduction.
        stable_count = int(np.count_nonzero(self.stable))
        if stable_count * PAIR_ADVANCE_FRACTION <= self.stable.size:
            # Sparse I_0 (e.g. a fresh random configuration): gather
            # its members' edges.
            self.covered = self.stable.copy()
            self.unstable = np.zeros(black.shape[0], dtype=np.int64)
            self._recompute_covered_rows(
                np.arange(black.shape[0], dtype=np.int64), pos
            )
            return
        conflicted = black & self.has  # B_0 \ I_0
        c_rows, c_verts = np.nonzero(conflicted)
        if c_rows.size * PAIR_ADVANCE_FRACTION < black.size:
            # Near-stable fleet (the recovery workload: I_0 ≈ B_0):
            # the stable-black counts are the black counts minus the
            # few conflicted pairs' edges — no second reduction.  Its
            # next rounds scatter, so the counts go C-contiguous here,
            # once, and ``has`` is re-derived from them in that layout.
            if not self.counts.flags.c_contiguous:
                self.counts = np.ascontiguousarray(self.counts)
                self.has = self.counts != 0
            stable_counts = self.counts.copy()
            apply_flat_delta(
                stable_counts.reshape(-1),
                None,
                self.engine._flat_targets(
                    c_rows.astype(np.int64), c_verts.astype(np.int64), pos
                ),
            )
            self.covered = self.stable | (stable_counts > 0)
        else:
            # Bulky I_0: one reduction beats gathering its edges.
            self.covered = np.ascontiguousarray(
                self.stable | (self.engine._count_nbrs(self.stable, pos) > 0)
            )
        self.unstable = self.n - np.count_nonzero(
            self.covered, axis=1
        ).astype(np.int64)

    def repair(
        self,
        black: np.ndarray,
        pos: np.ndarray | None,
        resident: ResidentCounts,
        aux_mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int] | None:
        """Adopt ``resident``'s aggregates, repaired to the given mask(s).

        The changed pairs ``F`` are the XOR of ``black`` (and
        ``aux_mask``) against the resident masks.  The counts move by
        ±1 at ``F``'s neighbours; ``has`` and ``stable`` can differ from
        the stabilized prior's only at ``N+[F]``, and ``covered`` only
        around the stable vertices lost there, in ``N+[N+[F]]``.  So the
        cost is O(vol(N+[N+[F]])) plus a few O(R·n) mask passes, with no
        reduction.  The result equals :meth:`rebuild`'s exactly.

        Returns the flat candidate pairs (``F`` and its scatter
        targets, with repeats), the only pairs whose activity can
        differ from the prior's, which had none, and the number of
        changed indicator pairs (the bulk-round signal, as if one round
        had moved them).  Returns ``None``, and
        adopts nothing, when more than ``1/REPAIR_FRACTION`` of the
        pairs changed: the caller then rebuilds.  ``resident.counts``
        (and ``aux_counts``) are updated in place.
        """
        changed = np.flatnonzero((black != resident.black).reshape(-1))
        aux_changed = _EMPTY
        if self.track_aux:
            if aux_mask is None:
                raise ValueError("track_aux aggregates need an aux mask")
            aux_changed = np.flatnonzero(
                (aux_mask != resident.aux).reshape(-1)
            )
        if (changed.size + aux_changed.size) * REPAIR_FRACTION > black.size:
            return None
        engine = self.engine
        n = np.int64(self.n)
        self.row_vols = engine._row_volumes(pos)
        self._thresholds = frontier.DEFAULT_CROSSOVER * self.row_vols
        black_flat = black.reshape(-1)
        self.counts = resident.counts
        touched = self._scatter_changed(
            self.counts, black_flat, changed, pos
        )
        self.has = ~resident.black
        has_flat = self.has.reshape(-1)
        has_flat[touched] = self.counts.reshape(-1)[touched] != 0
        if self.track_aux:
            self.aux_counts = resident.aux_counts
            self._scatter_changed(
                self.aux_counts, aux_mask.reshape(-1), aux_changed, pos
            )
            self.aux_has = self.aux_counts != 0
        # I = B \ has moves only at F and its targets; N+[I] loses
        # coverage only around the stable vertices that left I.
        candidates = np.concatenate((changed, touched))
        self.stable = resident.black.copy()
        stable_flat = self.stable.reshape(-1)
        stable_flat[candidates] = (
            black_flat[candidates] & ~has_flat[candidates]
        )
        self.covered = np.ones(black.shape, dtype=bool)
        self.unstable = np.zeros(black.shape[0], dtype=np.int64)
        was_stable = resident.black.reshape(-1)[candidates]
        removed = unique_flat(
            candidates[was_stable & ~stable_flat[candidates]], black.size
        )
        if removed.size:
            rows = removed // n
            around = unique_flat(
                np.concatenate(
                    (removed, engine._flat_targets(rows, removed - rows * n, pos))
                ),
                black.size,
            )
            rows = around // n
            verts = around - rows * n
            owner = np.repeat(
                np.arange(around.size, dtype=np.int64),
                engine._pair_degrees(rows, verts, pos),
            )
            nbr_stable = stable_flat[engine._flat_targets(rows, verts, pos)]
            cover = stable_flat[around] | (
                np.bincount(owner[nbr_stable], minlength=around.size) > 0
            )
            self.covered.reshape(-1)[around] = cover
            _scatter_unit(self.unstable, rows[~cover], None)
        return candidates, int(changed.size + aux_changed.size)

    def kept_buffers(
        self, replicas: int, repaired: ResidentCounts | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Where :meth:`keep` puts retiring rows' final (aux) counts.

        The repaired matrices themselves when this run repaired them (a
        row is written only as it retires, so a live row is never
        overwritten), else new C-contiguous ``(replicas, n)`` ones.
        """
        if repaired is not None:
            return repaired.counts, repaired.aux_counts
        shape = (replicas, self.n)
        aux = None
        if self.aux_counts is not None:
            aux = np.empty(shape, dtype=self.aux_counts.dtype)
        return np.empty(shape, dtype=self.counts.dtype), aux

    def keep(
        self,
        counts: np.ndarray,
        aux_counts: np.ndarray | None,
        replicas: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Copy the live ``rows`` (a mask) to ``replicas`` of the buffers
        (no copy while the counts are the buffers: slot ``i`` then holds
        replica ``i``)."""
        if counts is not self.counts:
            counts[replicas] = self.counts[rows]
        if aux_counts is not None and aux_counts is not self.aux_counts:
            aux_counts[replicas] = self.aux_counts[rows]

    def _scatter_changed(
        self,
        counts: np.ndarray,
        mask_flat: np.ndarray,
        changed: np.ndarray,
        pos: np.ndarray | None,
    ) -> np.ndarray:
        """Count the flat ``changed`` pairs in or out; their targets.

        A changed pair now in ``mask_flat`` adds one at each of its
        neighbours, one now out of it subtracts one.
        """
        n = np.int64(self.n)
        rows = changed // n
        verts = changed - rows * n
        up = mask_flat[changed]
        up_t = self.engine._flat_targets(rows[up], verts[up], pos)
        down_t = self.engine._flat_targets(rows[~up], verts[~up], pos)
        apply_flat_delta(counts.reshape(-1), up_t, down_t)
        return np.concatenate((up_t, down_t))

    def start_words(self, black: np.ndarray) -> WordAggregates:
        """Enter the word form: :meth:`rebuild`'s aggregates as words."""
        graph = self.engine.processes[0].graph
        self.words = WordAggregates.of(rows_to_words(black), graph, len(black))
        return self.words

    def full_round(
        self,
        new_black: np.ndarray,
        pos: np.ndarray | None,
        aux_mask: np.ndarray | None = None,
    ) -> None:
        """One bulk round: full count reductions, add-only stability.

        The shortcut for rounds where most of the
        graph is still moving: recomputing the count matrices with one
        reduction each is cheaper than extracting the changed pairs,
        and the stability bookkeeping still advances through the
        add-only mask compare (no second coverage reduction).  The raw
        reduction output is stored as-is — possibly an F-contiguous
        transpose view — and only materialized C-contiguous when a
        scatter round first needs flat-index writes into it
        (:meth:`_ensure_scatterable`).

        In the word form (:meth:`start_words`) it takes black words and
        recomputes :attr:`words`: two OR-reduces, no reduction.
        """
        self.full_rounds += 1
        if self.words is not None:
            graph = self.engine.processes[0].graph
            self.words = WordAggregates.of(new_black, graph, len(self.words.done))
            return
        self.counts = self.engine._count_nbrs(new_black, pos)
        self.has = self.counts != 0
        if self.track_aux:
            self.aux_counts = self.engine._count_nbrs(aux_mask, pos)
            self.aux_has = self.aux_counts != 0
        if self.engine.shared_graph:
            # Stability by one more (cheap, multi-RHS) reduction: on
            # bulk rounds the I_t delta is large, and the per-edge
            # cover gather costs more than the matvec it avoids.  On
            # the block path the matvec is the expensive side, so the
            # add-only gather update below stays the right call.
            new_stable = new_black & ~self.has
            self.stable = new_stable
            self.covered = new_stable | (
                self.engine._count_nbrs(new_stable, pos) > 0
            )
            self.unstable = self.n - np.count_nonzero(
                self.covered, axis=1
            ).astype(np.int64)
        else:
            self._update_stability_masks(new_black, pos)

    def _ensure_scatterable(self) -> None:
        """Materialize the count/has matrices C-contiguous.

        The scatter paths mutate through flat ``reshape(-1)`` *views*;
        on an F-contiguous array (the sparse ``count_batch`` hands back
        transposes, and ufuncs propagate the layout to ``has``) the
        reshape would silently copy and drop every update.
        """
        if not self.counts.flags.c_contiguous:
            self.counts = np.ascontiguousarray(self.counts)
        if not self.has.flags.c_contiguous:
            self.has = np.ascontiguousarray(self.has)
        if not self.stable.flags.c_contiguous:
            self.stable = np.ascontiguousarray(self.stable)
        if not self.covered.flags.c_contiguous:
            self.covered = np.ascontiguousarray(self.covered)
        if self.track_aux:
            if not self.aux_counts.flags.c_contiguous:
                self.aux_counts = np.ascontiguousarray(self.aux_counts)
            if not self.aux_has.flags.c_contiguous:
                self.aux_has = np.ascontiguousarray(self.aux_has)

    def _recompute_covered_rows(
        self, rows: np.ndarray, pos: np.ndarray | None
    ) -> None:
        """``N+[I_t]`` and the unstable counter, from scratch, per row."""
        n = self.n
        self.covered[rows] = self.stable[rows]
        m_rows, m_verts = np.nonzero(self.stable[rows])
        if m_rows.size:
            targets = self.engine._flat_targets(
                rows[m_rows].astype(np.int64), m_verts.astype(np.int64), pos
            )
            self.covered.reshape(-1)[targets] = True
        self.unstable[rows] = n - np.count_nonzero(self.covered[rows], axis=1)
        if n == 0:
            self.unstable[rows] = 0

    # ------------------------------------------------------------------
    def _indicator_advance(
        self,
        counts: np.ndarray,
        has: np.ndarray,
        new_mask: np.ndarray,
        up_rows: np.ndarray,
        up_verts: np.ndarray,
        down_rows: np.ndarray,
        down_verts: np.ndarray,
        pos: np.ndarray | None,
    ) -> np.ndarray | None:
        """Advance one count matrix; return touched targets or ``None``.

        Per replica, the changed pairs' edge volume is compared against
        that replica's crossover threshold: below it the replica's row
        is scatter-updated, above it the row is recomputed with one
        full reduction over the offending rows.  Returns the
        concatenated flat scatter targets when *every* replica took the
        scatter path (the candidate set for local stability and
        active-pair maintenance), else ``None``.
        """
        engine = self.engine
        L = new_mask.shape[0]
        moved = up_rows.size + down_rows.size > 0
        if not moved:
            return _EMPTY
        vol = np.zeros(L, dtype=np.int64)
        if up_rows.size:
            np.add.at(
                vol, up_rows, engine._pair_degrees(up_rows, up_verts, pos)
            )
        if down_rows.size:
            np.add.at(
                vol,
                down_rows,
                engine._pair_degrees(down_rows, down_verts, pos),
            )
        heavy = vol > self._thresholds
        counts_flat = counts.reshape(-1)
        has_flat = has.reshape(-1)
        if not heavy.any():
            up_t = engine._flat_targets(up_rows, up_verts, pos)
            down_t = engine._flat_targets(down_rows, down_verts, pos)
            apply_flat_delta(counts_flat, up_t, down_t)
            if up_t.size and down_t.size:
                touched = np.concatenate((up_t, down_t))
            else:
                touched = up_t if up_t.size else down_t
            if touched.size * 16 < engine._cells(L):
                has_flat[touched] = counts_flat[touched] > 0
            else:
                np.not_equal(counts, 0, out=has)
            return touched
        # Mixed round: heavy replicas recompute their row, the rest
        # scatter.  (`heavy` rows' pairs are dropped from the scatter.)
        full_rows = np.flatnonzero(heavy)
        sub_pos = None if pos is None else pos[full_rows]
        counts[full_rows] = engine._count_nbrs(new_mask[full_rows], sub_pos)
        light_up = ~heavy[up_rows]
        light_down = ~heavy[down_rows]
        up_t = engine._flat_targets(
            up_rows[light_up], up_verts[light_up], pos
        )
        down_t = engine._flat_targets(
            down_rows[light_down], down_verts[light_down], pos
        )
        apply_flat_delta(counts_flat, up_t, down_t)
        np.not_equal(counts, 0, out=has)
        return None

    def advance(
        self,
        new_black: np.ndarray,
        delta: RoundDelta,
        pos: np.ndarray | None,
    ) -> np.ndarray | None:
        """Advance all aggregates across one synchronous round.

        ``new_black`` is the post-round black matrix of the live rows;
        ``delta`` carries the changed pairs.  Returns the black-count
        scatter targets (the candidate set — vertices whose counts may
        have changed, with multiplicity) on all-scatter rounds, or
        ``None`` when some replica fell back to a full row reduction —
        engines maintaining frontier-localized state (the 2-state
        active-pair set) key off this.
        """
        self._ensure_scatterable()
        touched = self._indicator_advance(
            self.counts,
            self.has,
            new_black,
            delta.up_rows,
            delta.up_verts,
            delta.down_rows,
            delta.down_verts,
            pos,
        )
        if self.track_aux:
            aux_touched = self._indicator_advance(
                self.aux_counts,
                self.aux_has,
                delta.aux_mask,
                delta.aux_up_rows,
                delta.aux_up_verts,
                delta.aux_down_rows,
                delta.aux_down_verts,
                pos,
            )
            if aux_touched is None:
                self.full_rounds += 1
            else:
                self.scatter_rounds += 1
        elif touched is None:
            self.full_rounds += 1
        else:
            self.scatter_rounds += 1
        # Stability: I_t = f(black, counts) changes only at moved
        # vertices and scatter targets; with candidates in hand the
        # pass is local, otherwise one (L, n) mask compare.
        black_moved = delta.up_rows.size + delta.down_rows.size > 0
        if black_moved or touched is None:
            changed = np.concatenate(
                (
                    delta.up_rows * np.int64(self.n) + delta.up_verts,
                    delta.down_rows * np.int64(self.n) + delta.down_verts,
                )
            )
            if (
                touched is not None
                and (changed.size + touched.size) * 8
                < self.engine._cells(new_black.shape[0])
            ):
                self._update_stability_local(
                    new_black, np.concatenate((changed, touched)), pos
                )
            else:
                self._update_stability_masks(new_black, pos)
        return touched

    # ------------------------------------------------------------------
    def _cover_added(
        self, added: np.ndarray, pos: np.ndarray | None
    ) -> None:
        """Monotone covered update: ``N+[added]`` becomes covered.

        Writes are idempotent, so the pairs may repeat; the unstable
        counters are refreshed by re-popcounting only the *affected
        rows* (deduplicating the scatter targets to count the delta
        directly benchmarks far slower — the hash-based ``np.unique``
        dominated the whole engine on bulky rounds).
        """
        n = self.n
        rows = added // n
        verts = added - rows * n
        targets = self.engine._flat_targets(rows, verts, pos)
        covered_flat = self.covered.reshape(-1)
        if targets.size:
            all_t = np.concatenate((added, targets))
        else:
            all_t = added
        if all_t.size * 64 < self.engine._cells(self.unstable.shape[0]):
            # Small round: count the fresh coverage exactly (a sort
            # dedups the small candidate set) — no length-L*n pass at
            # all.
            fresh = unique_flat(
                all_t[~covered_flat[all_t]], covered_flat.size
            )
            if fresh.size == 0:
                return
            covered_flat[fresh] = True
            _scatter_unit(self.unstable, None, fresh // n)
            return
        covered_flat[all_t] = True
        row_mask = np.zeros(self.unstable.shape[0], dtype=bool)
        row_mask[rows] = True
        if targets.size:
            row_mask[targets // n] = True
        touched_rows = np.flatnonzero(row_mask)
        self.unstable[touched_rows] = n - np.count_nonzero(
            self.covered[touched_rows], axis=1
        )

    def _update_stability_local(
        self,
        new_black: np.ndarray,
        candidates: np.ndarray,
        pos: np.ndarray | None,
    ) -> None:
        """Candidate-pair variant of :meth:`_update_stability_masks`.

        ``candidates`` must contain every flat pair whose blackness or
        black-neighbour count changed this round (multiplicity is
        harmless).
        """
        nb = new_black.reshape(-1)
        has_flat = self.has.reshape(-1)
        stable_flat = self.stable.reshape(-1)
        new_st = nb[candidates] & ~has_flat[candidates]
        diff = new_st != stable_flat[candidates]
        if not diff.any():
            return
        moved = candidates[diff]
        moved_new = new_st[diff]
        added = moved[moved_new]
        removed = moved[~moved_new]
        stable_flat[added] = True
        if removed.size:
            # Unreachable under the update rules (I_t grows monotonely,
            # replica-wise — see the serial argument) but kept exact.
            stable_flat[removed] = False
            self._recompute_covered_rows(
                np.unique(moved // self.n), pos
            )
            return
        self._cover_added(added, pos)

    def _update_stability_masks(
        self, new_black: np.ndarray, pos: np.ndarray | None
    ) -> None:
        """Update ``I_t`` / ``N+[I_t]`` / the counters from full masks."""
        new_stable = new_black & ~self.has
        delta = np.flatnonzero(
            (new_stable != self.stable).reshape(-1)
        )
        self.stable = new_stable
        if delta.size == 0:
            return
        added = delta[new_stable.reshape(-1)[delta]]
        if added.size < delta.size:  # removals present (defensive)
            self._recompute_covered_rows(np.unique(delta // self.n), pos)
            removed_rows = np.unique(delta[~new_stable.reshape(-1)[delta]] // self.n)
            clean = added[~np.isin(added // self.n, removed_rows)]
            if clean.size:
                self._cover_added(clean, pos)
            return
        self._cover_added(added, pos)

    # ------------------------------------------------------------------
    def filter(self, keep: np.ndarray) -> None:
        """Compact every aggregate to the kept live rows: ``O(L·n)``,
        at most about ``log2(R)`` times per run."""
        self.counts = self.counts[keep]
        self.has = self.has[keep]
        if self.track_aux:
            self.aux_counts = self.aux_counts[keep]
            self.aux_has = self.aux_has[keep]
        self.stable = self.stable[keep]
        self.covered = self.covered[keep]
        self.unstable = self.unstable[keep]
        self.row_vols = self.row_vols[keep]
        self._thresholds = self._thresholds[keep]

    def __repr__(self) -> str:
        live = 0 if self.unstable is None else self.unstable.shape[0]
        return (
            f"BatchedFrontierAggregates(live={live}, n={self.n}, "
            f"aux={self.track_aux}, "
            f"scatter_rounds={self.scatter_rounds}, "
            f"full_rounds={self.full_rounds})"
        )
