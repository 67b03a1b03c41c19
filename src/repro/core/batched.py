"""Batched trial engines for the paper's MIS process families.

Monte-Carlo validation of the paper's w.h.p. stabilization bounds needs
hundreds of independent trials per parameter point.  Running those
trials one process at a time wastes the hardware: every round of every
trial is a tiny matrix product plus Python overhead.  This module
simulates ``R`` independent replicas of a process family as a single
``(R, n)`` state matrix with a handful of vectorized neighbour
reductions per round (see
:meth:`repro.core.neighbor_ops.NeighborOps.count_batch` /
:meth:`~repro.core.neighbor_ops.NeighborOps.max_closed_batch`), while
keeping every replica bitwise-identical to the serial process it wraps.

Engine family
-------------

One engine per batchable process family, all sharing the run loop,
replica retirement and block-compaction machinery of
:class:`_BatchedMISEngine`:

* :class:`BatchedTwoStateMIS` — plain :class:`~repro.core.two_state.TwoStateMIS`
  (boolean state matrix, one ``count_batch`` per round);
* :class:`BatchedThreeStateMIS` — :class:`~repro.core.three_state.ThreeStateMIS`
  (int8 state matrix, two batched ``exists`` reductions per round);
* :class:`BatchedThreeColorMIS` — :class:`~repro.core.three_color.ThreeColorMIS`
  with the randomized logarithmic switch (colors plus a batched
  :class:`~repro.core.switch.RandomizedLogSwitch`, levels advancing in
  lockstep with Definition 28's coin order);
* :class:`BatchedScheduledTwoStateMIS` —
  :class:`~repro.core.schedulers.ScheduledTwoStateMIS` under the
  synchronous or independent-participation daemons (per-replica
  Bernoulli activation masks).

The :data:`dispatch table <_ENGINE_DISPATCH>` maps serial process types
to engines; :func:`engine_for` / :func:`batchable` are the lookups used
by :func:`repro.sim.runner.run_many_until_stable` and
:func:`repro.sim.montecarlo.estimate_stabilization_time` to group
processes by engine (no hardcoded type checks).

Aggregate engine
----------------

Engines with ``supports_frontier`` (the 2-state, 3-state and scheduled
families) maintain the per-replica neighbour counts and the stability
bookkeeping incrementally (:mod:`repro.core.batched_frontier`) wherever
scatter can win — the block-diagonal path, or a shared graph whose
``count_batch`` runs on CSR (not ``blas_batch``) — so a round's cost
tracks the fleet's changed set: bulk rounds for the early collapse,
flat-index scatter updates plus O(1) retirement for the long tail.  A
2-state clean start on a shared graph runs its opening bulk rounds on
bit words, 64 replicas a word and OR-reduces for counts, then hands
over with one reduction (:meth:`BatchedTwoStateMIS._word_rounds`).
Elsewhere, and always for the 3-color engine (its switch diffuses over
every closed neighbourhood per round), they pay full ``(R, n)`` reductions every round.
Engines are reusable across :meth:`~_BatchedMISEngine.run` calls
(state is re-adopted per call), so fault-injection campaigns keep
their block-diagonal adjacency.

Equivalence contract
--------------------

Each replica keeps its *own* :class:`~repro.sim.rng.CoinSource` and
draws exactly the arrays its serial counterpart would, in the same
per-replica order (§2.1's φ_t discipline; for the 3-color process the
main φ_t draw precedes the switch's Bernoulli draw, and for scheduled
processes the daemon's draw precedes φ_t).  Each such step is one row
draw over the live replicas (:meth:`~repro.sim.rng.CoinSource.bits_rows`,
``bits_rows_at``, ``bernoulli_rows``), which advances every live stream
by exactly one draw.  Neighbour aggregates are
exact integer reductions, so the trajectory of replica ``r`` is
bitwise-identical to running ``processes[r]`` through
:func:`repro.sim.runner.run_until_stable` with the same seed — the
differential oracle ``tests/test_oracle.py`` pins this, and every
replica, against the literal references of :mod:`repro.core.reference`.

Replicas *retire* from the batch as they stabilize (or exhaust the
round budget): a stabilized replica stops consuming coins and stops
advancing, exactly as a serial trial would stop running.  A frontier
run leaves its row idle in its slot until at most half the slots still
run or a bulk round comes, so compaction copies ``O(R·n)`` cells per run.

Graph sharing
-------------

* If all replicas observe the *same* :class:`~repro.graphs.graph.Graph`
  object, each reduction is one ``(R, n) × (n, n)`` product against
  that graph's backend.
* Otherwise (e.g. G(n, p) experiments that resample the graph per
  trial), the replicas' adjacencies are stacked into one block-diagonal
  CSR matrix and each reduction is a single sparse matvec over the
  concatenated state vector.  The block matrix is rebuilt (compacted to
  the live replicas) only once at least half its rows have retired, so
  total rebuild cost is amortized logarithmic in ``R``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.batched_frontier import (
    BULK_ADVANCE_FRACTION,
    PAIR_ADVANCE_FRACTION,
    PAIR_INDEX_FRACTION,
    BatchedFrontierAggregates,
    ResidentCounts,
    RoundDelta,
    word_round,
)
from repro.core.neighbor_ops import (
    SparseNeighborOps,
    gather_neighbors,
    setdiff_sorted,
    unique_flat,
)
from repro.core.schedulers import (
    IndependentScheduler,
    ScheduledTwoStateMIS,
    SynchronousScheduler,
)
from repro.core.states import (
    BLACK,
    BLACK0,
    BLACK1,
    GRAY,
    SWITCH_ON_MAX_LEVEL,
    WHITE,
)
from repro.core.switch import RandomizedLogSwitch
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.core.verify import assert_valid_mis
from repro.sim.rng import CoinSource, words_to_rows

#: Dispatch table: serial process type → batched engine class.  Filled
#: by :func:`register_engine`; keyed by the *exact* type (subclasses do
#: not inherit batchability — their ``_advance`` may differ).
_ENGINE_DISPATCH: dict[type, type["_BatchedMISEngine"]] = {}


def register_engine(
    engine_cls: type["_BatchedMISEngine"],
) -> type["_BatchedMISEngine"]:
    """Class decorator: register an engine in the dispatch table."""
    _ENGINE_DISPATCH[engine_cls.process_type] = engine_cls
    return engine_cls


def engine_for(process: object) -> type["_BatchedMISEngine"] | None:
    """The batched engine class for ``process``, or ``None``.

    Looks the process's exact type up in the dispatch table, then lets
    the engine veto instances it cannot reproduce bitwise (e.g. a
    3-color process with an :class:`~repro.core.switch.OracleSwitch`, or
    a scheduled process under a single-vertex daemon).
    """
    engine = _ENGINE_DISPATCH.get(type(process))
    if engine is not None and engine.accepts(process):
        return engine
    return None


def batchable(process: object) -> bool:
    """Whether some registered engine can batch ``process``.

    Plain :class:`~repro.core.two_state.TwoStateMIS`,
    :class:`~repro.core.three_state.ThreeStateMIS`,
    :class:`~repro.core.three_color.ThreeColorMIS` (with the randomized
    switch on the same graph) and
    :class:`~repro.core.schedulers.ScheduledTwoStateMIS` (under the
    synchronous or independent daemons) qualify; everything else falls
    back to the serial engine.
    """
    return engine_for(process) is not None


def _stack_block_diag(blocks: list, n: int) -> sp.csr_matrix:
    """Block-diagonal CSR from same-order square CSR blocks.

    Equivalent to ``scipy.sparse.block_diag`` but assembled directly in
    CSR form with numpy concatenation (the scipy helper routes through
    COO and is noticeably slower for many small blocks).
    """
    data = np.concatenate([b.data for b in blocks])
    size = len(blocks) * n
    nnzs = np.array([b.nnz for b in blocks], dtype=np.int64)
    total_nnz = int(nnzs.sum())
    # Index dtype: int32 whenever the flat dimension and nnz fit (the
    # block matvec is memory-bound, so narrow indices halve its index
    # traffic); int64 otherwise — R*n can exceed int32 range for large
    # batches of large graphs, and a wrap would corrupt columns
    # silently.
    idx_t = (
        np.int32
        if size < np.iinfo(np.int32).max
        and total_nnz < np.iinfo(np.int32).max
        else np.int64
    )
    # Per-block offsetting keeps each temporary cache-sized; a fully
    # vectorized repeat-offsets construction benchmarks slower (it
    # materializes an nnz-length offset array and streams it twice).
    indices = np.concatenate(
        [
            b.indices.astype(idx_t, copy=False) + idx_t(i * n)
            for i, b in enumerate(blocks)
        ]
    )
    nnz_offsets = np.concatenate(([0], np.cumsum(nnzs, dtype=np.int64)))
    indptr = np.concatenate(
        [blocks[0].indptr.astype(idx_t, copy=False)]
        + [
            b.indptr[1:].astype(idx_t, copy=False)
            + idx_t(nnz_offsets[i + 1])
            for i, b in enumerate(blocks[1:], 0)
        ]
    )
    # Bypass the (data, indices, indptr) constructor: its check_format
    # pass re-scans every index, an O(nnz) validation of arrays that
    # are correct by construction here.
    out = sp.csr_matrix((size, size), dtype=data.dtype)
    out.data, out.indices, out.indptr = data, indices, indptr
    return out


class _BatchedMISEngine:
    """Shared machinery of the batched engines (see module docs).

    Subclasses set :attr:`process_type` and implement the four-hook
    contract: :meth:`_gather` (adopt per-replica state into ``(R, n)``
    arrays), :meth:`_black_rows` (black mask of selected replicas),
    :meth:`_advance_rows` (one synchronous round for the live replicas,
    drawing each replica's coins from its own source), and
    :meth:`_writeback_states` (sync final states into the wrapped
    processes).  The base class owns the run loop: stabilization
    detection, replica retirement, round budgets, and the shared-graph /
    block-diagonal reduction paths.
    """

    #: Serial process type this engine batches (subclasses override).
    process_type: type | None = None

    #: Whether the engine implements the incremental frontier contract
    #: (delta-reporting ``_advance_rows``); families without it run the
    #: full-reduction loop.
    supports_frontier = False

    #: Whether the frontier path maintains a second count matrix
    #: (the 3-state family's black1 indicator).
    track_aux_counts = False

    #: Compact the block-diagonal adjacency once the live fraction of
    #: its rows drops below this threshold.
    _COMPACT_THRESHOLD = 0.5

    @classmethod
    def accepts(cls, process: object) -> bool:
        """Whether this engine can reproduce ``process`` bitwise."""
        return type(process) is cls.process_type

    def __init__(self, processes: Sequence) -> None:
        processes = list(processes)
        if not processes:
            raise ValueError("need at least one process to batch")
        for p in processes:
            if not self.accepts(p):
                raise TypeError(
                    f"{type(self).__name__} cannot batch "
                    f"{type(p).__name__} instances"
                )
        n = processes[0].n
        if any(p.n != n for p in processes):
            raise ValueError("all batched processes must share n")
        self.processes = processes
        self.n = n
        self.replicas = len(processes)
        self.shared_graph = all(
            p.graph is processes[0].graph for p in processes
        )
        self._rounds = np.array([p.round for p in processes], dtype=np.int64)
        self._ops = processes[0].ops if self.shared_graph else None
        self._block: sp.csr_matrix | None = None
        self._block_indptr64: np.ndarray | None = None
        self._scratch: np.ndarray | None = None
        self._block_size = 0
        #: Live incremental aggregates while a frontier run is active.
        self._frontier_state: BatchedFrontierAggregates | None = None
        #: The last frontier run's final aggregates, when every replica
        #: retired stabilized: the next run repairs them instead of
        #: rebuilding (:meth:`BatchedFrontierAggregates.repair`).
        self._resident: ResidentCounts | None = None
        #: Live activity set, when maintained (2-state): as an
        #: ``(L, n)`` boolean mask, or — once small — as a sorted flat
        #: ``row * n + v`` index array.  At most one is non-None.
        self._act_mask: np.ndarray | None = None
        self._act_pairs: np.ndarray | None = None
        #: Post-round live black matrix stashed by frontier-mode
        #: ``_advance_rows`` (global-matrix writes are deferred to
        #: retirement, see :meth:`_on_drop`).
        self._last_new_black: np.ndarray | None = None
        #: Pairs changed by the previous round (the bulk-round signal);
        #: engines stash it whenever a frontier run is active.
        self._changed_count: int | None = None
        #: Set by the run loop when ``_advance_rows`` must report deltas.
        self._collect_delta = False
        #: Running slots of the live matrices while some hold retired
        #: rows (``None`` when every slot runs); see :meth:`run`.
        self._run_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    def _gather(self) -> None:
        """Adopt the wrapped processes' state into ``(R, n)`` arrays."""
        raise NotImplementedError

    def _black_rows(self, rows: np.ndarray) -> np.ndarray:
        """Boolean black mask of the selected replicas (``B_t`` rows)."""
        raise NotImplementedError

    def _advance_rows(
        self,
        live: np.ndarray,
        pos: np.ndarray | None,
        black: np.ndarray,
        counts: np.ndarray,
    ) -> "RoundDelta | None":
        """One synchronous round for the ``live`` replicas.

        ``black`` and ``counts`` are the current black mask and
        black-neighbour counts of the live rows (cached from the end of
        the previous round, saving one reduction per round).  Frontier
        engines return the round's :class:`RoundDelta` when
        ``_collect_delta`` is set; the bulk path returns ``None``.
        """
        raise NotImplementedError

    def _writeback_states(self) -> None:
        """Sync final per-replica states into the wrapped processes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Frontier contract (engines with supports_frontier = True)
    # ------------------------------------------------------------------
    def _aux_rows(self, rows: np.ndarray) -> np.ndarray | None:
        """Auxiliary indicator rows (engines with track_aux_counts)."""
        return None

    def _advance_rows_pairs(
        self, live: np.ndarray, black: np.ndarray, counts: np.ndarray
    ) -> RoundDelta:
        """One round driven off the flat active-pair set (optional).

        Engines that maintain ``_act_mask`` (the 2-state engine)
        override this with an advance that touches only the active
        pairs and the changed edges, mutating ``black`` *in place*.
        """
        raise NotImplementedError

    def _word_rounds(
        self, live: np.ndarray, black: np.ndarray, budget: int
    ) -> np.ndarray:
        """A clean start's opening bulk rounds on bit words, if the
        engine has them; returns the rows ``rebuild`` hands over from."""
        return black

    def _reset_frontier_scratch(self) -> None:
        """Clear per-run frontier-local state (run start and end)."""
        self._act_mask = None
        self._act_pairs = None
        self._changed_count = None
        self._last_new_black = None
        self._run_mask = None

    def _pair_round_ready(self, size: int) -> bool:
        """Whether the next round can run on the active-pair set.

        Also manages the activity representation: once the active
        count drops below ``size / PAIR_INDEX_FRACTION`` the boolean
        mask is converted to a sorted flat index array, after which
        the per-round bookkeeping is O(|A_t|) with no length-``L*n``
        scans at all.
        """
        if self._act_pairs is not None:
            return self._act_pairs.size * PAIR_ADVANCE_FRACTION < size
        mask = self._act_mask
        if mask is None:
            return False
        count = int(np.count_nonzero(mask))
        if count * PAIR_ADVANCE_FRACTION >= size:
            return False
        if count * PAIR_INDEX_FRACTION < size:
            self._act_pairs = np.flatnonzero(mask.reshape(-1))
            self._act_mask = None
        return True

    def _seed_act_mask(
        self,
        black: np.ndarray,
        has: np.ndarray,
        candidates: np.ndarray | None = None,
    ) -> None:
        """Seed the activity set after a bulk round (pair engines).

        ``candidates`` (flat pairs, repeats allowed), when given, holds
        every pair that can be active: the run started from repaired
        aggregates whose prior configuration had no active pair.
        """
        self._act_mask = None
        self._act_pairs = None

    def _sync_act_pairs(
        self,
        black: np.ndarray,
        counts: np.ndarray,
        delta: RoundDelta,
        touched: np.ndarray | None,
    ) -> None:
        """Merge this round's candidates into the activity mask."""
        # Base engines do not maintain an activity mask.

    def _on_drop(
        self, live: np.ndarray, keep: np.ndarray, black: np.ndarray
    ) -> None:
        """Hook before live rows are filtered out (retire / budget).

        Frontier engines defer their per-round writes into the global
        ``(R, n)`` state matrices; this hook syncs the dropped rows'
        final states back (so write-back and ``_writeback_states`` see
        them) and compacts any frontier-local row-aligned state.
        """
        if self._act_mask is not None:
            self._act_mask = self._act_mask[keep]
        elif self._act_pairs is not None:
            n = np.int64(self.n)
            pairs = self._act_pairs
            rows = pairs // n
            keep_pair = keep[rows]
            if not keep_pair.all():
                pairs, rows = pairs[keep_pair], rows[keep_pair]
            new_rows = (np.cumsum(keep, dtype=np.int64) - 1)[rows]
            self._act_pairs = new_rows * n + (pairs - rows * n)

    # ------------------------------------------------------------------
    # Flat (replica, vertex) COO helpers for the frontier aggregates
    # ------------------------------------------------------------------
    def _row_volumes(self, pos: np.ndarray | None) -> np.ndarray:
        """Directed edge volume (2m) of each live replica's graph."""
        if self.shared_graph:
            vol = self.processes[0].graph.indices.shape[0]
            size = self.replicas if pos is None else pos.size
            return np.full(size, vol, dtype=np.int64)
        indptr = self._block_indptr64
        n = np.int64(self.n)
        starts = pos.astype(np.int64) * n
        return indptr[starts + n] - indptr[starts]

    def _inv_pos(self, pos: np.ndarray) -> np.ndarray:
        """Inverse of ``pos``: block row → live row."""
        inv = np.zeros(self._block_size, dtype=np.int64)
        inv[pos] = np.arange(pos.size, dtype=np.int64)
        return inv

    def _pair_degrees(
        self,
        rows: np.ndarray,
        verts: np.ndarray,
        pos: np.ndarray | None,
    ) -> np.ndarray:
        """Degree of each (replica, vertex) pair in its own graph."""
        if self.shared_graph:
            degs = self.processes[0].graph.degrees()
            return degs[verts].astype(np.int64, copy=False)
        indptr = self._block_indptr64
        b = pos[rows].astype(np.int64) * np.int64(self.n) + verts
        return indptr[b + 1] - indptr[b]

    def _flat_targets(
        self,
        rows: np.ndarray,
        verts: np.ndarray,
        pos: np.ndarray | None,
    ) -> np.ndarray:
        """Flat ``live_row * n + u`` neighbour targets of the pairs.

        The concatenated neighbour lists of every (replica, vertex)
        pair, as flat indices into the live ``(L, n)`` matrices — the
        scatter targets of the batched frontier.  Shared-graph path:
        one CSR gather from the shared graph plus per-pair ``r * n``
        offsets.  Block path: the pairs index the block-diagonal CSR
        directly (its columns are already flat ``block_row * n + u``
        indices) and come back remapped through ``pos``'s inverse.
        """
        n = np.int64(self.n)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        if self.shared_graph:
            graph = self.processes[0].graph
            nbrs = gather_neighbors(
                graph.indptr, graph.indices, verts
            ).astype(np.int64, copy=False)
            offsets = np.repeat(
                rows.astype(np.int64) * n, graph.degrees()[verts]
            )
            return nbrs + offsets
        b = pos[rows].astype(np.int64) * n + verts
        targets = gather_neighbors(
            self._block_indptr64, self._block.indices, b
        ).astype(np.int64, copy=False)
        brow = targets // n
        return self._inv_pos(pos)[brow] * n + (targets - brow * n)

    # ------------------------------------------------------------------
    # Batched neighbour reductions
    # ------------------------------------------------------------------
    def _rebuild_block(self, live: np.ndarray) -> None:
        """Compact the block-diagonal adjacency to the ``live`` replicas."""
        self._block = _stack_block_diag(
            [
                self.processes[int(r)].graph.adjacency_csr_int32()
                for r in live
            ],
            self.n,
        )
        self._block_size = live.size
        self._scratch = np.zeros((live.size, self.n), dtype=np.int32)
        # Cached int64 view of the block indptr: the frontier's flat
        # gathers index it with 64-bit pair offsets every round, and an
        # astype per call would copy the whole array each time.
        self._block_indptr64 = self._block.indptr.astype(np.int64)

    def _count_nbrs(
        self, masks: np.ndarray, pos: np.ndarray | None
    ) -> np.ndarray:
        """``out[i, u] = |N(u) ∩ masks[i]|`` for each selected replica.

        ``pos`` maps mask rows to rows of the current block matrix
        (``None`` on the shared-graph path).  Rows of the block not in
        ``pos`` (replicas retired since the last compaction) multiply
        stale state; their counts are discarded by the gather.
        """
        if self.shared_graph:
            return self._ops.count_batch(masks)
        self._scratch[pos] = masks
        counts = self._block.dot(self._scratch.reshape(-1))
        grid = counts.reshape(self._block_size, self.n)
        if pos.size == self._block_size:
            return grid  # pos is the identity permutation; skip the gather
        return grid[pos]

    def _exists_nbrs(
        self, masks: np.ndarray, pos: np.ndarray | None
    ) -> np.ndarray:
        """Batched ``exists``: whether some neighbour is in the mask."""
        return self._count_nbrs(masks, pos) > 0

    def _max_closed_rows(
        self, values: np.ndarray, pos: np.ndarray | None
    ) -> np.ndarray:
        """``out[i, u] = max over N+(u) of values[i, w]`` per replica.

        Shared-graph path: one :meth:`NeighborOps.max_closed_batch`
        call.  Block path: the same level-set probes expressed as
        block-diagonal reductions (values take few distinct levels —
        switch levels 0..5 — so this is a handful of matvecs).
        """
        if self.shared_graph:
            return self._ops.max_closed_batch(values)
        out = values.astype(np.int64).copy()  # self is included in N+.
        # Minimum level skipped (all-True probe, no-op write): one fewer
        # block-diagonal reduction per switch round.
        # reduction-budget: 1
        for level in np.unique(values)[1:]:
            has = self._exists_nbrs(values >= level, pos)
            out[has & (out < level)] = level
        return out

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def _covered_rows(
        self,
        black: np.ndarray,
        counts: np.ndarray,
        pos: np.ndarray | None,
    ) -> np.ndarray:
        """Stabilization predicate ``N+[I_t] = V`` per selected replica.

        ``counts`` are the black-neighbour counts of ``black`` (reused
        from the round's reduction).  The coverage reduction only runs
        for replicas that have stable black vertices at all — a replica
        with ``I_t = ∅`` cannot be covered.
        """
        stable_black = black & (counts == 0)
        candidates = stable_black.any(axis=1)
        covered_all = np.zeros(black.shape[0], dtype=bool)
        if candidates.any():
            sub = np.flatnonzero(candidates)
            nbr_stable = self._count_nbrs(
                stable_black[sub], None if pos is None else pos[sub]
            )
            covered = stable_black[sub] | (nbr_stable > 0)
            covered_all[sub] = covered.all(axis=1)
        if self.n == 0:
            covered_all[:] = True
        return covered_all

    def run(self, max_rounds: int = 1_000_000, verify: bool = True) -> list:
        """Run every replica to stabilization or the round budget.

        Returns a list of :class:`repro.sim.runner.RunResult`, one per
        wrapped process, in input order; the wrapped processes' states
        and round counters are synchronized with the outcome.

        Engines are reusable: each call re-adopts the wrapped
        processes' *current* states and round counters, so a
        fault-injection campaign can corrupt the processes between
        calls and re-run the same engine (the block-diagonal adjacency
        is kept across calls — the graphs are immutable — unless a
        previous run compacted it).  A frontier run whose replicas all
        retired stabilized keeps their final counts, and the next call
        repairs them at the pairs that changed in between instead of
        rebuilding (:meth:`BatchedFrontierAggregates.repair`); the
        results are the same either way.

        Parameters
        ----------
        max_rounds:
            Per-replica round budget (counted from the replica's
            current round), as in :func:`repro.sim.runner.run_until_stable`.
        verify:
            Assert each stabilized replica's black set is a valid MIS —
            after the run, one ``(k, n)`` check per graph over every
            replica that stabilized (:meth:`_verify_retired`).
        """
        from repro.sim.runner import RunResult

        if max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        results: list[RunResult | None] = [None] * self.replicas
        # Adopt the processes' *current* state (constructors don't:
        # anything may mutate the processes — fault injection, manual
        # steps — between construction and each run).
        self._rounds = np.array(
            [p.round for p in self.processes], dtype=np.int64
        )
        self._gather()
        start_rounds = self._rounds.copy()
        # A run that fails part-way leaves nothing resident.
        resident, self._resident = self._resident, None

        retired: list[int] = []

        live = np.arange(self.replicas, dtype=np.int64)
        pos: np.ndarray | None = None
        if not self.shared_graph:
            if self._block is None or self._block_size != self.replicas:
                self._rebuild_block(live)
            pos = np.arange(self.replicas, dtype=np.int64)
        black = self._black_rows(live)
        frontier: BatchedFrontierAggregates | None = None
        kept_counts: np.ndarray | None = None
        kept_aux: np.ndarray | None = None
        kept_rows = 0
        self._reset_frontier_scratch()
        # The frontier only engages where scatter can win: the
        # block-diagonal path, or a shared graph whose count_batch runs
        # on CSR.  Where it is a BLAS product (small dense graphs) a
        # full reduction is near-free and the incremental bookkeeping
        # only adds overhead.  The scatters read the graph's own CSR,
        # so other backends (the dynamic overlay) never engage it.
        engage = not self.shared_graph or (
            isinstance(self._ops, SparseNeighborOps)
            and not self._ops.blas_batch
        )
        if engage and self.supports_frontier:
            frontier = BatchedFrontierAggregates(
                self, track_aux=self.track_aux_counts
            )
            self._frontier_state = frontier
            aux_mask = self._aux_rows(live)
            repaired = None
            if resident is not None:
                repaired = frontier.repair(black, pos, resident, aux_mask)
            candidates = None
            if repaired is None:
                black = self._word_rounds(live, black, max_rounds)  # repro-lint: disable=coin-flow (word rounds take the one φ_t row draw per live stream of the bulk rounds they replace)
                frontier.rebuild(black, pos, aux_mask=aux_mask)
            else:
                # The first round then picks its regime from the
                # repaired delta, as every later round does from its own.
                candidates, self._changed_count = repaired
            # In frontier mode the loop's `counts` variable carries the
            # materialized ``counts > 0`` boolean (what the update
            # rules consume); the integer matrix lives in the
            # aggregates and is only touched by the scatter paths.
            counts = frontier.has
            # Seed the activity set from the initial aggregates: a
            # fleet that starts near-stable (the self-stabilization
            # recovery shape) then rides pair rounds from round 1.
            self._seed_act_mask(black, counts, candidates)
            covered = frontier.unstable == 0
            kept_counts, kept_aux = frontier.kept_buffers(
                self.replicas, None if candidates is None else resident
            )
        else:
            counts = self._count_nbrs(black, pos)
            covered = self._covered_rows(black, counts, pos)

        running = np.ones(live.size, dtype=bool)

        def compact() -> None:
            """Drop the idle slots from every row-aligned array."""
            nonlocal live, black, counts, pos, running
            self._on_drop(live, running, black)
            live, black = live[running], black[running]
            if frontier is not None:
                frontier.filter(running)
                counts = frontier.has
            else:
                counts = counts[running]
            if pos is not None:
                pos = pos[running]
            running = np.ones(live.size, dtype=bool)
            self._run_mask = None
            # The frontier path leaves the block uncompacted: its
            # scatter gathers index only live rows' CSR runs, so stale
            # rows cost nothing per round, while a rebuild costs a full
            # re-stack (bulk rounds, which do pay for stale rows in
            # their block matvec, happen before anything retires).
            if (
                pos is not None
                and frontier is None
                and 0 < live.size < self._COMPACT_THRESHOLD * self._block_size
            ):
                self._rebuild_block(live)
                pos = np.arange(live.size, dtype=np.int64)

        def retire(covered: np.ndarray) -> None:
            """Retire the running rows in ``covered``, all stabilized;
            a frontier run compacts only once at most half still run."""
            nonlocal kept_rows
            covered &= running
            if not covered.any():
                return
            rows = live[covered]
            if frontier is not None:
                frontier.keep(kept_counts, kept_aux, rows, covered)
                kept_rows += rows.size
            retired.extend(rows.tolist())
            # A flatnonzero per row: about 10x faster than one 2-D
            # nonzero pass plus a split, which writes two index arrays.
            for r, row in zip(rows.tolist(), black[covered]):
                elapsed = int(self._rounds[r] - start_rounds[r])
                results[r] = RunResult(
                    stabilized=True,
                    stabilization_round=elapsed,
                    rounds_executed=elapsed,
                    mis=np.flatnonzero(row),
                )
            running[covered] = False
            if (
                frontier is None
                or np.count_nonzero(running)
                <= self._COMPACT_THRESHOLD * running.size
            ):
                compact()
            else:
                self._run_mask = running

        retire(covered)

        # Per round: one count + one coverage reduction on the
        # non-frontier path; the frontier path replaces both with
        # scatter updates (its reductions live in the engine).
        # reduction-budget: 2
        while live.size:
            moving = live if self._run_mask is None else live[running]
            executed = self._rounds[moving] - start_rounds[moving]
            in_budget = executed < max_rounds
            if not in_budget.all():
                for r in moving[~in_budget]:
                    results[int(r)] = RunResult(
                        stabilized=False,
                        stabilization_round=None,
                        rounds_executed=int(max_rounds),
                        mis=None,
                    )
                running[running] = in_budget
                compact()
                if not live.size:
                    break
                moving = live

            # One synchronous round; the cached `black`/`counts` are the
            # mask and black-neighbour counts of the current configuration.
            if frontier is not None:
                cells = self._cells(live.size)
                if self._pair_round_ready(cells):
                    # Tail regime: advance on the flat active pairs
                    # (`black` is updated in place, no re-gather).
                    delta = self._advance_rows_pairs(live, black, counts)  # repro-lint: disable=coin-flow (bits_rows_at: each running stream takes the same one φ_t draw as in every regime)
                    self._rounds[moving] += 1
                    touched = frontier.advance(black, delta, pos)
                    counts = frontier.has
                    self._sync_act_pairs(black, counts, delta, touched)
                elif (
                    self._changed_count is None
                    or self._changed_count * BULK_ADVANCE_FRACTION > cells
                ):
                    # Bulk regime: a large fraction of all pairs moved
                    # last round — recompute the counts with one
                    # reduction per indicator instead of extracting
                    # and scattering the changed pairs.  No reduction
                    # reads an idle row: compact first.
                    if self._run_mask is not None:
                        compact()
                    self._advance_rows(live, pos, black, counts)  # repro-lint: disable=coin-flow (every regime takes one φ_t row draw per running stream)
                    self._rounds[live] += 1
                    black = self._last_new_black
                    frontier.full_round(
                        black, pos, aux_mask=self._aux_rows(live)
                    )
                    counts = frontier.has
                    self._seed_act_mask(black, counts)
                else:
                    self._collect_delta = True
                    try:
                        delta = self._advance_rows(live, pos, black, counts)  # repro-lint: disable=coin-flow (every regime takes one φ_t row draw per running stream)
                    finally:
                        self._collect_delta = False
                    black = self._last_new_black
                    self._rounds[moving] += 1
                    touched = frontier.advance(black, delta, pos)
                    counts = frontier.has
                    self._sync_act_pairs(black, counts, delta, touched)
                covered = frontier.unstable == 0
            else:
                self._advance_rows(live, pos, black, counts)  # repro-lint: disable=coin-flow (every regime takes one φ_t row draw per live stream)
                self._rounds[live] += 1
                black = self._black_rows(live)
                counts = self._count_nbrs(black, pos)
                covered = self._covered_rows(black, counts, pos)

            retire(covered)

        self._frontier_state = None
        self._reset_frontier_scratch()
        self._writeback()
        if kept_counts is not None and kept_rows == self.replicas:
            every = np.arange(self.replicas, dtype=np.int64)
            self._resident = ResidentCounts(
                black=self._black_rows(every),
                counts=kept_counts,
                aux=self._aux_rows(every),
                aux_counts=kept_aux,
            )
        if verify:
            self._verify_retired(sorted(retired), results)
        return results

    #: Cells (rows × max(n, m)) of one batched MIS check: bounds the
    #: memory of :meth:`_verify_retired`'s row matrices.
    _VERIFY_CELLS = 1 << 23

    def _verify_retired(self, rows: list[int], results: list) -> None:
        """Assert every retired replica's MIS, one ``(k, n)`` pass per graph.

        Replicas sharing a graph are checked together (in row chunks
        of at most :attr:`_VERIFY_CELLS` cells); a failure names the
        replica's row in this engine.
        """
        groups: dict[int, list[int]] = {}
        for r in rows:
            groups.setdefault(id(self.processes[r].graph), []).append(r)
        for group in groups.values():
            graph = self.processes[group[0]].graph
            step = max(1, self._VERIFY_CELLS // max(graph.n, graph.m, 1))
            for lo in range(0, len(group), step):
                chunk = group[lo:lo + step]
                # A row at a time: one flat scatter of all rows measured
                # slower (4.7 against 2.7 ms for 128 rows of 2^14).
                mask = np.zeros((len(chunk), self.n), dtype=bool)
                for i, r in enumerate(chunk):
                    mask[i, results[r].mis] = True
                assert_valid_mis(graph, mask, rows=chunk)

    def _live_coins(self, live: np.ndarray) -> list[CoinSource]:
        """The live replicas' coin sources, in row order."""
        processes = self.processes
        return [processes[r].coins for r in live.tolist()]

    def _cells(self, slots: int) -> int:
        """Running rows × ``n`` of the ``slots`` live rows: the size
        every regime threshold measures (idle slots are left out)."""
        mask = self._run_mask
        rows = slots if mask is None else int(np.count_nonzero(mask))
        return rows * self.n

    def _phi_rows(self, live: np.ndarray) -> np.ndarray:
        """φ_t of the live replicas: row ``i`` is replica ``live[i]``'s
        next ``bits(n)`` draw, all rows in one
        :meth:`CoinSource.bits_rows` call (each running stream advances
        one draw; an idle slot's row is all zeros and draws nothing)."""
        mask = self._run_mask
        drawing = live if mask is None else live[mask]
        drawn = CoinSource.bits_rows(self._live_coins(drawing), self.n)
        if mask is None:
            return drawn
        phi = np.zeros((live.size, self.n), dtype=bool)
        phi[mask] = drawn
        return phi

    def _writeback(self) -> None:
        """Sync final states and round counters into the wrapped processes."""
        self._writeback_states()
        for r, process in enumerate(self.processes):
            process.round = int(self._rounds[r])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(replicas={self.replicas}, n={self.n}, "
            f"shared_graph={self.shared_graph})"
        )


class _BlackStateEngine(_BatchedMISEngine):
    """Shared machinery for engines whose full state is one black mask
    (the plain and scheduled 2-state engines): the ``_black`` matrix
    adoption/write-back and the frontier round epilogue."""

    def _black_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._black[rows]

    def _finish_black_advance(
        self,
        live: np.ndarray,
        black: np.ndarray,
        new_black: np.ndarray,
    ) -> tuple[RoundDelta | None, np.ndarray | None]:
        """Deferred-write epilogue of one black-mask round.

        Full mode writes the global matrix; frontier mode stashes the
        live matrix, records the bulk-round signal, and (when the loop
        asked for it) extracts the changed pairs.  Returns
        ``(delta_or_None, changed_mask_or_None)``.
        """
        if self._frontier_state is None:
            self._black[live] = new_black
            return None, None
        self._last_new_black = new_black
        changed_mask = new_black != black
        self._changed_count = int(np.count_nonzero(changed_mask))
        if not self._collect_delta:
            return None, changed_mask
        rows, verts = np.nonzero(changed_mask)
        vals = new_black[rows, verts]
        return (
            RoundDelta(rows[vals], verts[vals], rows[~vals], verts[~vals]),
            changed_mask,
        )

    def _on_drop(
        self, live: np.ndarray, keep: np.ndarray, black: np.ndarray
    ) -> None:
        if self._frontier_state is not None:
            out = ~keep
            if out.any():
                self._black[live[out]] = black[out]
        super()._on_drop(live, keep, black)

    def _writeback_states(self) -> None:
        for r, process in enumerate(self.processes):
            process.black = self._black[r].copy()


@register_engine
class BatchedTwoStateMIS(_BlackStateEngine):
    """``R`` independent 2-state MIS replicas advanced in lockstep.

    Parameters
    ----------
    processes:
        Non-empty sequence of :class:`~repro.core.two_state.TwoStateMIS`
        instances, all on graphs with the same vertex count ``n``.  The
        engine adopts each process's current state and coin source;
        after :meth:`run` the final states and round counters are
        written back, so the wrapped processes end up exactly as if they
        had been run serially.

    Notes
    -----
    Construct the processes first (their constructors consume the
    initial-state coin draws), then batch them.  The convenience entry
    points are :func:`repro.sim.runner.run_many_until_stable` and
    :func:`repro.sim.montecarlo.estimate_stabilization_time`
    (``batch="auto"``), which handle grouping and serial fallback.
    """

    process_type = TwoStateMIS
    supports_frontier = True

    def _gather(self) -> None:
        self._black = np.stack([p.black for p in self.processes])
        self._eager = np.array(
            [p.eager_white_promotion for p in self.processes], dtype=bool
        )
        #: Pair rounds assume the plain activity rule; any eager
        #: (footnote-1 ablation) replica in the batch vetoes them.
        self._pair_capable = not bool(self._eager.any())

    def _seed_act_mask(
        self,
        black: np.ndarray,
        has: np.ndarray,
        candidates: np.ndarray | None = None,
    ) -> None:
        self._act_pairs = None
        self._act_mask = None
        if not self._pair_capable:
            return
        if candidates is None:
            self._act_mask = black == has  # elementwise XNOR
            return
        # The representation _pair_round_ready would pick for the mask.
        candidates = unique_flat(candidates, black.size)
        act = candidates[
            black.reshape(-1)[candidates] == has.reshape(-1)[candidates]
        ]
        if act.size * PAIR_INDEX_FRACTION < black.size:
            self._act_pairs = act
        else:
            mask = np.zeros(black.size, dtype=bool)
            mask[act] = True
            self._act_mask = mask.reshape(black.shape)

    def _word_rounds(
        self, live: np.ndarray, black: np.ndarray, budget: int
    ) -> np.ndarray:
        """Bulk rounds on vertex-major bit words, 64 replicas a word
        (DESIGN §5), until the run loop would take no bulk round: a
        replica is covered, the budget ends, or the activity or the
        last change fell below the bulk fractions.  Shared graphs
        without eager replicas only: the words follow the plain rule."""
        frontier = self._frontier_state
        if frontier is None or not (self.shared_graph and self._pair_capable):
            return black
        cells = self._cells(live.size)
        coins = self._live_coins(live)
        words = frontier.start_words(black)
        rounds = 0
        while rounds < budget and not words.done.any():
            active = cells - int(np.bitwise_count(words.black ^ words.has).sum())
            changed = self._changed_count
            if active * PAIR_ADVANCE_FRACTION < cells or (
                changed is not None and changed * BULK_ADVANCE_FRACTION <= cells
            ):
                break
            new_black, self._changed_count = word_round(words, coins)
            frontier.full_round(new_black, None)
            words = frontier.words
            rounds += 1
        self._rounds[live] += rounds
        return words_to_rows(words.black, live.size)

    def _advance_rows(
        self,
        live: np.ndarray,
        pos: np.ndarray | None,
        black: np.ndarray,
        counts: np.ndarray,
    ) -> RoundDelta | None:
        # A_t = (black & has) | (~black & ~has), i.e. elementwise XNOR
        # (`counts` is the materialized boolean hint in frontier mode).
        has = counts if counts.dtype == np.bool_ else counts > 0
        active = black == has
        phi = self._phi_rows(live)
        eager = self._eager[live]
        any_eager = bool(eager.any())
        if any_eager:
            # Ablation replicas: active white vertices promote with
            # probability 1 (their coin is drawn but ignored).
            promote = active & ~black & eager[:, None]
            new_black = np.where(active, phi, black) | promote
        else:
            new_black = np.where(active, phi, black)
        delta, changed_mask = self._finish_black_advance(
            live, black, new_black
        )
        if delta is not None:
            # Seed the activity mask for the pair regime; eager
            # replicas veto it (their activity rule differs).
            self._act_pairs = None
            if self._pair_capable:
                self._act_mask = active & ~changed_mask
            else:
                self._act_mask = None
        return delta

    def _advance_rows_pairs(
        self, live: np.ndarray, black: np.ndarray, counts: np.ndarray
    ) -> RoundDelta:
        """One round touching only A_t and the changed pairs.

        Trajectory-identical to the mask path: every live replica's
        stream still advances one φ_t draw (§2.1's coin discipline),
        but :meth:`CoinSource.bits_rows_at` computes the coins at the
        active pairs only, and every update is index-based — the
        batched analogue of the serial
        ``TwoStateMIS._advance_on_active_idx``.
        """
        n = np.int64(self.n)
        if self._act_pairs is not None:
            act = self._act_pairs
        else:
            act = np.flatnonzero(self._act_mask.reshape(-1))
        rows = act // n
        verts = act - rows * n
        drawing, at = live, rows
        if self._run_mask is not None:
            # Idle slots own no active pair: rank the running ones.
            drawing = live[self._run_mask]
            at = (np.cumsum(self._run_mask, dtype=np.int64) - 1)[rows]
        phi = CoinSource.bits_rows_at(
            self._live_coins(drawing), self.n, at, verts
        )
        black_flat = black.reshape(-1)
        flips = phi ^ black_flat[act]
        changed = act[flips]
        rows = rows[flips]
        verts = verts[flips]
        new_vals = ~black_flat[changed]
        black_flat[changed] = new_vals
        if self._act_pairs is not None:
            self._act_pairs = act[~flips]
        self._changed_count = int(changed.size)
        return RoundDelta(
            rows[new_vals], verts[new_vals], rows[~new_vals], verts[~new_vals]
        )

    def _sync_act_pairs(
        self,
        black: np.ndarray,
        counts: np.ndarray,
        delta: RoundDelta,
        touched: np.ndarray | None,
    ) -> None:
        if touched is None:
            self._act_mask = None
            self._act_pairs = None
            return
        n = np.int64(self.n)
        candidates = np.concatenate(
            (
                delta.up_rows * n + delta.up_verts,
                delta.down_rows * n + delta.down_verts,
                touched,
            )
        )
        # A_t flips only where blackness or has_black changed, so the
        # update touches the candidate pairs only (`counts` is the
        # boolean has-black hint here).
        act_at = (
            black.reshape(-1)[candidates]
            == counts.reshape(-1)[candidates]
        )
        if self._act_pairs is not None:
            idx = self._act_pairs
            deactivated = candidates[~act_at]
            activated = candidates[act_at]
            # (np.setdiff1d / np.union1d / np.isin dedup by hashing,
            # which costs far more than a binary search, a sort or a
            # mask pass at these sizes.)
            if deactivated.size:
                idx = setdiff_sorted(idx, deactivated)
            if activated.size:
                idx = unique_flat(np.concatenate((idx, activated)), black.size)
            if idx.size * PAIR_INDEX_FRACTION >= self._cells(black.shape[0]):
                # Index regime left: widen back to the boolean mask.
                mask = np.zeros(black.size, dtype=bool)
                mask[idx] = True
                self._act_mask = mask.reshape(black.shape)
                self._act_pairs = None
            else:
                self._act_pairs = idx
        elif self._act_mask is not None:
            self._act_mask.reshape(-1)[candidates] = act_at

@register_engine
class BatchedThreeStateMIS(_BatchedMISEngine):
    """``R`` independent 3-state MIS replicas advanced in lockstep.

    The state matrix is int8 over {WHITE, BLACK0, BLACK1}; each round
    costs two batched ``exists`` reductions (black neighbours — reused
    from the stabilization check — and black1 neighbours) plus one
    φ_t row draw (each replica's next ``bits(n)``), exactly mirroring
    :meth:`repro.core.three_state.ThreeStateMIS._advance`.
    """

    process_type = ThreeStateMIS
    supports_frontier = True
    track_aux_counts = True

    def _gather(self) -> None:
        self._states = np.stack([p.states for p in self.processes])
        #: Live states matrix while a frontier run defers global writes.
        self._live_states: np.ndarray | None = None

    def _reset_frontier_scratch(self) -> None:
        super()._reset_frontier_scratch()
        self._live_states = None

    def _black_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._states[rows] != WHITE

    def _aux_rows(self, rows: np.ndarray) -> np.ndarray:
        if self._live_states is not None:
            return self._live_states == BLACK1
        return self._states[rows] == BLACK1

    def _on_drop(
        self, live: np.ndarray, keep: np.ndarray, black: np.ndarray
    ) -> None:
        if self._live_states is not None:
            out = ~keep
            if out.any():
                self._states[live[out]] = self._live_states[out]
            self._live_states = self._live_states[keep]
        super()._on_drop(live, keep, black)

    def _advance_rows(
        self,
        live: np.ndarray,
        pos: np.ndarray | None,
        black: np.ndarray,
        counts: np.ndarray,
    ) -> RoundDelta | None:
        if self._live_states is not None:
            states = self._live_states
        else:
            states = self._states[live]
        is_black1 = states == BLACK1
        is_black0 = states == BLACK0
        is_white = states == WHITE
        if self._frontier_state is not None:
            has_black1_nbr = self._frontier_state.aux_has
        else:
            has_black1_nbr = self._exists_nbrs(is_black1, pos)
        has_black_nbr = (
            counts if counts.dtype == np.bool_ else counts > 0
        )
        randomize = (
            is_black1
            | (is_black0 & ~has_black1_nbr)
            | (is_white & ~has_black_nbr)
        )
        demote = is_black0 & ~randomize  # black0 hearing a black1 beep
        if self._run_mask is not None:
            # Idle (stabilized) rows would only redraw black vertices.
            randomize &= self._run_mask[:, None]
        phi = self._phi_rows(live)
        new_states = states.copy()
        new_states[randomize & phi] = BLACK1
        new_states[randomize & ~phi] = BLACK0
        new_states[demote] = WHITE
        if self._frontier_state is None:
            self._states[live] = new_states
            return None
        # Frontier mode: defer the global-matrix write to retirement.
        self._live_states = new_states
        self._last_new_black = new_states != WHITE
        changed_mask = new_states != states
        self._changed_count = int(np.count_nonzero(changed_mask))
        if not self._collect_delta:
            return None
        rows, verts = np.nonzero(changed_mask)
        old = states[rows, verts]
        new = new_states[rows, verts]
        old_black = old != WHITE
        new_black = new != WHITE
        old_b1 = old == BLACK1
        new_b1 = new == BLACK1
        up = new_black & ~old_black
        down = old_black & ~new_black
        aux_up = new_b1 & ~old_b1
        aux_down = old_b1 & ~new_b1
        return RoundDelta(
            rows[up],
            verts[up],
            rows[down],
            verts[down],
            aux_up_rows=rows[aux_up],
            aux_up_verts=verts[aux_up],
            aux_down_rows=rows[aux_down],
            aux_down_verts=verts[aux_down],
            aux_mask=new_states == BLACK1,
        )

    def _writeback_states(self) -> None:
        for r, process in enumerate(self.processes):
            process.states = self._states[r].copy()


@register_engine
class BatchedThreeColorMIS(_BatchedMISEngine):
    """``R`` independent 3-color MIS replicas advanced in lockstep.

    Batches the color matrix *and* the per-replica
    :class:`~repro.core.switch.RandomizedLogSwitch` levels: the switch
    update's ``max over N+(u)`` diffusion runs as one
    :meth:`~repro.core.neighbor_ops.NeighborOps.max_closed_batch`
    aggregate over the ``(R, n)`` level matrix.  Per replica and per
    round the coin order is Definition 28's: the main process draws
    φ_t = ``bits(n)`` first, then the switch draws ``bernoulli(n, ζ)``
    — and the color update reads σ_{t-1} (the levels *before* the
    switch advances).

    Only processes whose switch is a plain ``RandomizedLogSwitch`` on
    the same graph are accepted (:class:`~repro.core.switch.OracleSwitch`
    and cross-graph switches fall back to the serial engine); ζ may
    differ between replicas.
    """

    process_type = ThreeColorMIS

    @classmethod
    def accepts(cls, process: object) -> bool:
        return (
            type(process) is ThreeColorMIS
            and type(process.switch) is RandomizedLogSwitch
            and process.switch.graph is process.graph
        )

    def _gather(self) -> None:
        self._colors = np.stack([p.colors for p in self.processes])
        self._levels = np.stack([p.switch.levels for p in self.processes])
        self._switch_rounds = np.array(
            [p.switch.round for p in self.processes], dtype=np.int64
        )
        self._zeta = np.array(
            [p.switch.zeta for p in self.processes], dtype=np.float64
        )

    def _black_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._colors[rows] == BLACK

    def _advance_rows(
        self,
        live: np.ndarray,
        pos: np.ndarray | None,
        black: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        colors = self._colors[live]
        levels = self._levels[live]
        white = colors == WHITE
        gray = colors == GRAY
        has_black_nbr = counts > 0
        sigma = levels <= SWITCH_ON_MAX_LEVEL  # σ_{t-1}

        conflicted_black = black & has_black_nbr
        lonely_white = white & ~has_black_nbr
        waking_gray = gray & sigma

        phi = self._phi_rows(live)
        new_colors = colors.copy()
        # Conflicted black → coin ? black : gray.
        new_colors[conflicted_black & ~phi] = GRAY
        # Lonely white → coin ? black : white.
        new_colors[lonely_white & phi] = BLACK
        # Gray with switch on → white.
        new_colors[waking_gray] = WHITE
        self._colors[live] = new_colors

        # Switch step (Definition 26), after the main φ_t draws.
        at_five = levels == 5
        at_zero = levels == 0
        b_zero = CoinSource.bernoulli_rows(
            [self.processes[r].switch.coins for r in live.tolist()],
            self.n,
            self._zeta[live],
        )
        stay_five = at_five & ~b_zero  # b = 1 → remain at level 5
        reset_to_five = stay_five | at_zero
        nbr_max = self._max_closed_rows(levels, pos)
        self._levels[live] = np.where(
            reset_to_five, 5, np.maximum(nbr_max - 1, 0)
        ).astype(np.int8)
        self._switch_rounds[live] += 1

    def _writeback_states(self) -> None:
        for r, process in enumerate(self.processes):
            process.colors = self._colors[r].copy()
            process.switch.levels = self._levels[r].copy()
            process.switch.round = int(self._switch_rounds[r])


@register_engine
class BatchedScheduledTwoStateMIS(_BlackStateEngine):
    """``R`` independent scheduled 2-state replicas advanced in lockstep.

    Supports the coin-free :class:`~repro.core.schedulers.SynchronousScheduler`
    and the :class:`~repro.core.schedulers.IndependentScheduler` daemon
    (one ``bernoulli(n, q)`` activation mask per replica per round,
    drawn *before* the replica's φ_t — the serial coin order).  The
    single-vertex daemons are state-dependent and stay on the serial
    path; ``q`` may differ between replicas.
    """

    process_type = ScheduledTwoStateMIS
    supports_frontier = True

    @classmethod
    def accepts(cls, process: object) -> bool:
        return type(process) is ScheduledTwoStateMIS and type(
            process.scheduler
        ) in (SynchronousScheduler, IndependentScheduler)

    def _gather(self) -> None:
        self._black = np.stack([p.black for p in self.processes])
        # q per replica; NaN marks the synchronous (draw-free) daemon.
        self._q = np.array(
            [
                p.scheduler.q
                if isinstance(p.scheduler, IndependentScheduler)
                else np.nan
                for p in self.processes
            ],
            dtype=np.float64,
        )

    def _advance_rows(
        self,
        live: np.ndarray,
        pos: np.ndarray | None,
        black: np.ndarray,
        counts: np.ndarray,
    ) -> RoundDelta | None:
        # The independent daemons' rows draw their activation masks;
        # synchronous rows (q = NaN) draw nothing and select everyone.
        drawing = ~np.isnan(self._q[live])
        if self._run_mask is not None:
            drawing &= self._run_mask
        daemons = live[drawing]
        selected = np.ones((live.size, self.n), dtype=bool)
        selected[drawing] = CoinSource.bernoulli_rows(
            self._live_coins(daemons), self.n, self._q[daemons]
        )
        has = counts if counts.dtype == np.bool_ else counts > 0
        rule_enabled = black == has  # elementwise XNOR
        active = rule_enabled & selected
        phi = self._phi_rows(live)
        new_black = black.copy()
        new_black[active] = phi[active]
        delta, _ = self._finish_black_advance(live, black, new_black)
        return delta
