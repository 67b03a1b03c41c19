"""Neighbourhood aggregation backends for the vectorized engines.

Every update rule in the paper depends on a vertex's neighbourhood only
through three aggregates:

* ``count(mask)``   — ``|N(u) ∩ mask|`` (how many neighbours are black, ...)
* ``exists(mask)``  — whether some neighbour is in ``mask``
* ``max_closed(v)`` — ``max_{w ∈ N+(u)} v[w]`` (used by the switch rule)

plus one *incremental* primitive, ``apply_count_delta(counts, up,
down)``, which scatter-updates a persistent count array along only the
edges incident to a changed vertex set (the frontier engine of
:mod:`repro.core.frontier`).

Two backends implement the interface:

* :class:`DenseNeighborOps`  — int8 adjacency matrix + matmul; fastest
  for small or dense graphs.
* :class:`SparseNeighborOps` — scipy CSR matvec; fastest for large
  sparse graphs.

:func:`make_neighbor_ops` picks one from the graph's size and density;
the ablation benchmark ``bench_ablation_backends.py`` quantifies the
choice.  A caller that needs a particular backend constructs it and
passes it as ``ops=`` (e.g. ``ops=SparseNeighborOps(graph)``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

#: Largest n for which the dense backend is considered at all.
_DENSE_MAX_N = 4096
#: Minimum density for which dense wins over sparse at large n.
_DENSE_MIN_DENSITY = 0.02


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenated neighbour lists of ``vertices`` (with multiplicity).

    Vectorized CSR slice gather: equivalent to
    ``np.concatenate([indices[indptr[v]:indptr[v + 1]] for v in vertices])``
    with no per-vertex Python loop.  The frontier engine
    (:mod:`repro.core.frontier`) uses this to find the scatter targets
    of a changed vertex set.

    The flat index array is built as a cumulative walk — ``+1`` inside
    each CSR run, a jump to the next run's start at each boundary —
    which benchmarks ~2x faster than the textbook
    ``arange + repeat(offsets)`` construction (``np.repeat`` over the
    run lengths is the slow part).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return indices[:0]
    starts = indptr[vertices].astype(np.int64, copy=False)
    lens = indptr[vertices + 1].astype(np.int64, copy=False) - starts
    nonempty = lens > 0
    if not nonempty.all():  # drop empty runs: keeps boundaries unique
        starts = starts[nonempty]
        lens = lens[nonempty]
        if starts.size == 0:
            return indices[:0]
    ends = np.cumsum(lens, dtype=np.int64)
    total = int(ends[-1])
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    if starts.size > 1:
        steps[ends[:-1]] = starts[1:] - starts[:-1] - lens[:-1] + 1
    return indices[np.cumsum(steps, dtype=np.int64)]


def unique_flat(idx: np.ndarray, size: int) -> np.ndarray:
    """The distinct entries of ``idx`` (all in ``[0, size)``), sorted.

    What ``np.unique(idx)`` returns, without its hashing: on numpy 2.x
    ``np.unique`` deduplicates integers through a hash table, about 20×
    a sort for 50K indices.  Large sets go through one boolean pass
    over ``size`` instead of the sort.
    """
    if idx.size * 64 >= size:
        mask = np.zeros(size, dtype=bool)
        mask[idx] = True
        return np.flatnonzero(mask).astype(idx.dtype, copy=False)
    idx = np.sort(idx)
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))[: idx.size]]


def _scatter_unit(
    counts: np.ndarray, up: np.ndarray | None, down: np.ndarray | None
) -> None:
    """``counts[up] += 1`` and ``counts[down] -= 1`` in place, with multiplicity.

    The one count-delta scatter behind every ``apply_count_delta`` /
    ``apply_flat_delta``.  ``np.add.at`` costs a few ns per target on
    numpy 2.x *when the value has the array's dtype*; a bare Python
    ``1`` into int32 counts misses that fast path and costs ~10-30x
    more, so the unit is ``counts.dtype.type(1)``.  A side with more
    than 2 targets per entry of ``counts`` goes through one
    ``bincount(minlength=size)`` + add instead: the two break even
    near 2 per entry and the histogram is 1.2-1.7x faster from 4 up.
    The crossover caps a serial round's scatter at ``0.25 * 2m``
    targets, a quarter of the average degree per entry: below 1 on
    G(n, 3/n), so sparse rounds always take ``np.add.at``, but up to
    n/4 on ``K_n``, where a round that flips k vertices puts k targets
    on every entry.  The batched engines' per-row unstable counters
    also take many targets per row.
    """
    one = counts.dtype.type(1)
    for targets, op in ((up, np.add), (down, np.subtract)):
        if targets is None or targets.size == 0:
            continue
        if targets.size > 2 * counts.size:
            hist = np.bincount(targets, minlength=counts.size)
            op(counts, hist, out=counts, casting="unsafe")
        else:
            op.at(counts, targets, one)


def setdiff_sorted(idx: np.ndarray, remove: np.ndarray) -> np.ndarray:
    """``idx`` without the entries of ``remove``; ``idx`` sorted, distinct.

    What ``np.setdiff1d(idx, remove)`` returns, by binary search:
    ``np.setdiff1d`` and ``np.isin`` deduplicate through
    ``np.unique``'s hash table (measured 4× slower for 200K indices).
    ``remove`` may repeat entries and hold entries not in ``idx``.
    """
    if idx.size == 0 or remove.size == 0:
        return idx
    at = np.searchsorted(idx, remove)
    np.minimum(at, idx.size - 1, out=at)
    keep = np.ones(idx.size, dtype=bool)
    keep[at[idx[at] == remove]] = False
    return idx[keep]


class NeighborOps:
    """Abstract neighbourhood-aggregation interface (see module docs)."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.n = graph.n

    def count(self, mask: np.ndarray) -> np.ndarray:
        """``out[u] = |N(u) ∩ {v : mask[v]}|`` as an int array."""
        raise NotImplementedError

    def exists(self, mask: np.ndarray) -> np.ndarray:
        """``out[u] = (N(u) ∩ mask != ∅)`` as a boolean array."""
        return self.count(mask) > 0

    def degrees(self) -> np.ndarray:
        """Current per-vertex degree sequence (callers must not mutate).

        Static backends serve the graph's cached degrees; the dynamic
        overlay backend (:mod:`repro.dynamic.overlay`) overrides this
        with the live, churn-adjusted sequence so frontier cost
        estimates track the mutable topology.
        """
        return self.graph.degrees()

    def volume(self) -> int:
        """Current directed edge volume ``2m`` (one full-reduction's cost)."""
        return int(self.graph.indices.shape[0])

    def gather(self, vertices: np.ndarray) -> np.ndarray:
        """Concatenated current neighbour lists (with multiplicity).

        The frontier engine routes its neighbour gathers through this
        hook (instead of reading ``graph.indptr``/``indices`` directly)
        so dynamic backends can splice their delta log in.
        """
        return gather_neighbors(self.graph.indptr, self.graph.indices, vertices)

    def _validate_masks(self, masks: np.ndarray) -> np.ndarray:
        """Coerce and shape-check an ``(R, n)`` replica-mask matrix."""
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != self.n:
            raise ValueError(
                f"masks must have shape (R, {self.n}), got {masks.shape}"
            )
        return masks

    def count_batch(self, masks: np.ndarray) -> np.ndarray:
        """Batched :meth:`count` over ``R`` replica masks at once.

        ``masks`` has shape ``(R, n)``; the result ``out`` has the same
        shape with ``out[r, u] = |N(u) ∩ {v : masks[r, v]}|``.  Backends
        override this with a single matrix product, which is what makes
        the batched trial engine (:class:`repro.core.batched.BatchedTwoStateMIS`)
        fast; the generic fallback loops over rows.
        """
        masks = self._validate_masks(masks)
        if masks.shape[0] == 0:
            return np.zeros(masks.shape, dtype=np.int64)
        return np.stack([self.count(row) for row in masks])

    def exists_batch(self, masks: np.ndarray) -> np.ndarray:
        """Batched :meth:`exists`: ``out[r, u] = (N(u) ∩ masks[r] != ∅)``."""
        return self.count_batch(masks) > 0

    def apply_count_delta(
        self,
        counts: np.ndarray,
        up: np.ndarray | None,
        down: np.ndarray | None,
    ) -> np.ndarray:
        """Scatter-update neighbour counts along the edges of a delta set.

        Applies ``counts[u] += |N(u) ∩ up| - |N(u) ∩ down|`` in place by
        gathering the CSR neighbour lists of ``up`` / ``down`` and
        scatter-adding them, touching only ``vol(up) + vol(down)`` edges
        instead of all ``2m``.  This is the count-delta primitive behind
        the incremental frontier engine (:mod:`repro.core.frontier`).

        The scatter is one dtype-matched ``np.add.at`` per sign, or a
        histogram for a sign with more than 2 targets per entry (see
        :func:`_scatter_unit`).

        Returns the concatenated gathered neighbour array (the scatter
        targets, with multiplicity) so callers can cheaply locate every
        entry of ``counts`` that may have changed.
        """
        graph = self.graph
        nbrs_up = nbrs_down = None
        if up is not None and len(up):
            nbrs_up = gather_neighbors(graph.indptr, graph.indices, up)
        if down is not None and len(down):
            nbrs_down = gather_neighbors(graph.indptr, graph.indices, down)
        _scatter_unit(counts, nbrs_up, nbrs_down)
        up_size = 0 if nbrs_up is None else nbrs_up.size
        down_size = 0 if nbrs_down is None else nbrs_down.size
        if up_size and down_size:
            return np.concatenate((nbrs_up, nbrs_down))
        if up_size:
            return nbrs_up
        if down_size:
            return nbrs_down
        return graph.indices[:0]

    def max_closed(self, values: np.ndarray) -> np.ndarray:
        """``out[u] = max over N+(u) of values[w]``.

        Generic implementation via level-set probes: assumes values take
        a small number of distinct non-negative integer levels (true for
        switch levels 0..5).  Backends may override with something
        faster.
        """
        values = np.asarray(values)
        out = values.astype(np.int64).copy()  # self is included in N+.
        # The minimum level needs no probe: ``exists(values >= min)`` is
        # all-True wherever a neighbour exists, and ``out`` already
        # starts >= min everywhere, so the write would be a no-op.
        # reduction-budget: 1
        for level in np.unique(values)[1:]:
            has = self.exists(values >= level)
            out[has & (out < level)] = level
        return out

    def max_closed_batch(self, values: np.ndarray) -> np.ndarray:
        """Batched :meth:`max_closed` over ``R`` replica value rows.

        ``values`` has shape ``(R, n)``; the result has the same shape
        with ``out[r, u] = max over N+(u) of values[r, w]``.  Implemented
        with the same level-set probes as :meth:`max_closed`, but each
        probe is one batched ``exists`` reduction over all replicas —
        the aggregate behind the batched randomized-switch engine
        (:class:`repro.core.batched.BatchedThreeColorMIS`).
        """
        values = self._validate_masks(np.asarray(values))
        out = values.astype(np.int64).copy()  # self is included in N+.
        # Minimum level skipped for the same reason as in max_closed:
        # one fewer batched reduction per switch round, same output.
        # reduction-budget: 1
        for level in np.unique(values)[1:]:
            has = self.exists_batch(values >= level)
            out[has & (out < level)] = level
        return out


class DenseNeighborOps(NeighborOps):
    """Dense adjacency-matrix backend (int8 matrix, int32 matvec)."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._a = graph.adjacency_dense()
        self._a_f32: np.ndarray | None = None  # lazy BLAS copy for batches

    def count(self, mask: np.ndarray) -> np.ndarray:
        return self._a @ np.asarray(mask, dtype=np.int32)

    def count_batch(self, masks: np.ndarray) -> np.ndarray:
        # A is symmetric, so right-multiplying the (R, n) mask matrix
        # computes every replica's neighbour counts in one matmul.  The
        # product runs in float32 to hit BLAS (numpy integer matmul is a
        # generic loop): every partial sum is an integer <= n < 2^24, so
        # float32 arithmetic is exact and the cast back is lossless.
        masks = self._validate_masks(masks)
        if self._a_f32 is None:
            self._a_f32 = self._a.astype(np.float32)
        return (masks.astype(np.float32) @ self._a_f32).astype(np.int32)


class SparseNeighborOps(NeighborOps):
    """scipy CSR backend for large sparse graphs."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._a = graph.adjacency_csr_int32()

    def count(self, mask: np.ndarray) -> np.ndarray:
        return self._a.dot(np.asarray(mask, dtype=np.int32))

    def count_batch(self, masks: np.ndarray) -> np.ndarray:
        # One CSR × dense (n, R) product serves all replicas (A = Aᵀ).
        # The operand is cast straight into C order: scipy would copy an
        # F-ordered transpose again.  The result stays a transposed view.
        masks = self._validate_masks(masks)
        return self._a.dot(masks.T.astype(np.int32, order="C")).T


def make_neighbor_ops(graph: Graph) -> NeighborOps:
    """The neighbourhood-ops backend for ``graph``.

    Dense for small graphs (n <= 512) and for graphs with n <= 4096 and
    density >= 2%; CSR otherwise.
    """
    if graph.n <= 512:
        return DenseNeighborOps(graph)
    if graph.n <= _DENSE_MAX_N and graph.density() >= _DENSE_MIN_DENSITY:
        return DenseNeighborOps(graph)
    return SparseNeighborOps(graph)
