"""Immutable graph data structure used throughout the reproduction.

The paper's processes operate on arbitrary finite simple undirected graphs
``G = (V, E)`` with ``V = {0, ..., n-1}``.  :class:`Graph` is *array
native*: the single source of truth is a CSR adjacency structure — an
``indptr`` offset array and a row-sorted ``indices`` array (int32
whenever the vertex count and directed edge count fit, so a million-edge
graph costs ~12 bytes per edge instead of the hundreds that per-vertex
Python tuples and sets used to) — and every derived representation is
computed lazily and cached:

* the Python views (:meth:`neighbors` tuples, the ``_adj_sets`` set
  list) materialize only when legacy per-vertex code asks for them;
* :meth:`adjacency_csr` wraps the native arrays into scipy without
  copying; :meth:`adjacency_dense` builds the int8 matrix on demand;
* the hot derived-graph/property paths (:meth:`degrees`,
  :meth:`subgraph`, :meth:`complement`, :meth:`relabeled`,
  :meth:`edges_between`, :meth:`induced_edge_count`,
  :meth:`bfs_distances`) run directly on the CSR arrays.

Use :class:`GraphBuilder` (or the classmethod constructors) to construct
graphs; :class:`Graph` itself performs full validation on construction.
:meth:`Graph.from_numpy_edges` is the zero-Python-loop constructor the
large random-graph generators route through.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # scipy is a lazy import everywhere else
    from scipy.sparse import csr_matrix

#: Pickle payload: ``(n, m, indptr, indices)`` — the CSR arrays ARE the
#: graph; every lazy view is rebuilt on demand after restore.
_GraphState = tuple[int, int, np.ndarray, np.ndarray]

_INT32_MAX = np.iinfo(np.int32).max


class Graph:
    """A finite simple undirected graph on vertex set ``{0, ..., n-1}``.

    Parameters
    ----------
    n:
        Number of vertices.  Must be non-negative.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n`` and ``u != v``.
        Duplicate edges (in either orientation) are collapsed.

    Notes
    -----
    The instance is immutable: all mutating operations return new graphs.
    Adjacency is stored as CSR arrays (:attr:`indptr` / :attr:`indices`);
    the tuple/set views are lazy caches over them.  Sorted neighbor
    tuples are exposed via :meth:`neighbors`.
    """

    __slots__ = (
        "_n",
        "_m",
        "_indptr",
        "_indices",
        "_adj_cache",
        "_adj_sets_cache",
        "_nbr_cache",
        "_degrees",
        "_csr",
        "_csr32",
        "_dense",
        "_edges",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"number of vertices must be >= 0, got {n}")
        n = int(n)
        us: list[int] = []
        vs: list[int] = []
        for u, v in edges:
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for n={n}"
                )
            if u == v:
                raise ValueError(f"self-loop ({u}, {u}) is not allowed")
            us.append(u)
            vs.append(v)
        self._build(
            n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # CSR construction core
    # ------------------------------------------------------------------
    def _build(self, n: int, us: np.ndarray, vs: np.ndarray) -> None:
        """Initialize the CSR arrays from validated endpoint arrays.

        ``us``/``vs`` are parallel int64 arrays with entries in ``[0, n)``
        and no self-loops; duplicates (in either orientation) collapse.
        One sort + keep-mask dedup over the pair keys (skipped outright
        when the keys arrive strictly increasing, as the generators
        emit them) plus one sort over the directed pairs — no
        per-vertex Python work.
        """
        self._n = n
        self._adj_cache = None
        self._adj_sets_cache = None
        self._nbr_cache = {}
        self._degrees = None
        self._csr = None
        self._csr32 = None
        self._dense = None
        self._edges = None
        if us.size == 0 or n == 0:
            self._m = 0
            dtype = np.int32 if n <= _INT32_MAX else np.int64
            self._indptr = np.zeros(n + 1, dtype=dtype)
            self._indices = np.zeros(0, dtype=dtype)
            return
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = lo * np.int64(n) + hi
        # Generators emit strictly increasing pair keys; checking is two
        # orders of magnitude cheaper than re-sorting a sorted array.
        if keys.size > 1 and not np.all(keys[1:] > keys[:-1]):
            keys.sort()
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
        self._m = int(keys.size)
        lo, hi = np.divmod(keys, np.int64(n))
        # Both directions, row-major sorted in one pass on linear keys.
        directed = np.concatenate([keys, hi * np.int64(n) + lo])
        directed.sort()
        src, dst = np.divmod(directed, np.int64(n))
        nnz = dst.size
        dtype = np.int32 if n <= _INT32_MAX and nnz <= _INT32_MAX else np.int64
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._indptr = indptr.astype(dtype, copy=False)
        self._indices = dst.astype(dtype, copy=False)

    @classmethod
    def _from_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """Internal fast constructor from validated endpoint arrays."""
        graph = cls.__new__(cls)
        graph._build(int(n), us, vs)
        return graph

    def _row(self, u: int) -> np.ndarray:
        """The sorted neighbor indices of ``u`` as a CSR slice (no copy)."""
        if not (0 <= u < self._n):
            raise IndexError(f"vertex {u} out of range for n={self._n}")
        return self._indices[self._indptr[u]:self._indptr[u + 1]]

    def _gather_rows(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated ``(src, dst)`` arrays of the given rows' edges.

        Vectorized multi-row CSR slice: ``src`` repeats each requested
        row by its degree, ``dst`` holds the corresponding neighbors.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self._indptr[rows].astype(np.int64)
        counts = (self._indptr[rows + 1] - self._indptr[rows]).astype(
            np.int64
        )
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        shifts = np.cumsum(counts, dtype=np.int64) - counts
        out_idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - shifts, counts
        )
        return (
            np.repeat(rows, counts),
            self._indices[out_idx].astype(np.int64),
        )

    # ------------------------------------------------------------------
    # Lazy Python views (legacy tuple/set access)
    # ------------------------------------------------------------------
    @property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples, materialized on demand."""
        if self._adj_cache is None:
            flat = self._indices.tolist()
            ptr = self._indptr.tolist()
            self._adj_cache = tuple(
                tuple(flat[ptr[u]:ptr[u + 1]]) for u in range(self._n)
            )
        return self._adj_cache

    @property
    def _adj_sets(self) -> list[set[int]]:
        """Per-vertex neighbor sets, materialized on demand."""
        if self._adj_sets_cache is None:
            self._adj_sets_cache = [set(row) for row in self._adj]
        return self._adj_sets_cache

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-offset array (length ``n + 1``; do not mutate)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (row-sorted, length ``2m``; do not mutate)."""
        return self._indices

    def memory_nbytes(self) -> int:
        """Bytes held by the native CSR arrays (the resident footprint)."""
        return self._indptr.nbytes + self._indices.nbytes

    def vertices(self) -> range:
        """The vertex set as a :class:`range`."""
        return range(self._n)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted tuple of neighbors of ``u`` (the set ``N(u)``).

        Served from a per-vertex memo over the CSR row, so one lookup on
        a million-vertex graph costs one row slice — the bulk
        tuple-of-tuples view only materializes for callers that go
        through ``_adj`` / ``_adj_sets``.
        """
        if self._adj_cache is not None:
            return self._adj_cache[u]
        n = self._n
        if not -n <= u < n:
            raise IndexError(f"vertex {u} out of range for n={n}")
        if u < 0:
            u += n
        tup = self._nbr_cache.get(u)
        if tup is None:
            tup = tuple(self._row(u).tolist())
            self._nbr_cache[u] = tup
        return tup

    def closed_neighborhood(self, u: int) -> tuple[int, ...]:
        """Sorted tuple of ``N+(u) = N(u) ∪ {u}``."""
        row = self._row(u)
        pos = int(np.searchsorted(row, u))
        return tuple(np.insert(row.astype(np.int64), pos, u).tolist())

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        if not (0 <= u < self._n):
            raise IndexError(f"vertex {u} out of range for n={self._n}")
        return int(self._indptr[u + 1] - self._indptr[u])

    def degrees(self) -> np.ndarray:
        """Degree sequence as a cached ``int64`` array (do not mutate)."""
        if self._degrees is None:
            self._degrees = np.diff(self._indptr).astype(np.int64)
        return self._degrees

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        if self._n == 0:
            return 0
        return int(self.degrees().max())

    def average_degree(self) -> float:
        """Average degree ``2m / n`` (0.0 for the empty graph)."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._m / self._n

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        row = self._row(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as parallel int64 arrays ``(us, vs)`` with ``us < vs``.

        Lexicographically ordered; the inverse of
        :meth:`from_numpy_edges`.  This is the array-native edge view the
        vectorized derived-graph operations run on.  Built once and
        cached as read-only arrays (callers must copy before mutating).
        """
        if self._edges is None:
            src = np.repeat(
                np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
            )
            dst = self._indices.astype(np.int64)
            mask = src < dst
            us, vs = src[mask], dst[mask]
            us.setflags(write=False)
            vs.setflags(write=False)
            self._edges = (us, vs)
        return self._edges

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` with ``u < v``."""
        us, vs = self.edge_arrays()
        yield from zip(us.tolist(), vs.tolist())

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as a list of ``(u, v)`` pairs with ``u < v``."""
        us, vs = self.edge_arrays()
        return list(zip(us.tolist(), vs.tolist()))

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        """Sorted tuple of vertices adjacent to both ``u`` and ``v``."""
        both = np.intersect1d(
            self._row(u), self._row(v), assume_unique=True
        )
        return tuple(both.astype(np.int64).tolist())

    # ------------------------------------------------------------------
    # Set-valued neighborhood helpers (paper notation, §"Notation")
    # ------------------------------------------------------------------
    def neighborhood_of_set(self, s: Iterable[int]) -> set[int]:
        """``N(S)``: vertices outside ``S`` adjacent to some vertex of ``S``."""
        s_set = {int(u) for u in s}
        if not s_set:
            return set()
        rows = np.fromiter(s_set, dtype=np.int64, count=len(s_set))
        if rows.size and (rows.min() < 0 or rows.max() >= self._n):
            raise IndexError("vertex in S out of range")
        _, dst = self._gather_rows(rows)
        return set(np.unique(dst).tolist()) - s_set

    def closed_neighborhood_of_set(self, s: Iterable[int]) -> set[int]:
        """``N+(S) = N(S) ∪ S``."""
        s_set = {int(u) for u in s}
        return self.neighborhood_of_set(s_set) | s_set

    def edges_between(self, s: Iterable[int], t: Iterable[int]) -> int:
        """``|E(S, T)|``: edges with one endpoint in ``S``, the other in ``T``.

        Edges with both endpoints in ``S ∩ T`` are counted once, matching
        the paper's set-of-edges definition ``E(S, T)``.  Cost is
        proportional to the volume of ``S``, not to ``m``.
        """
        s_set = {int(u) for u in s}
        if not s_set:
            return 0
        rows = np.fromiter(s_set, dtype=np.int64, count=len(s_set))
        if rows.min() < 0 or rows.max() >= self._n:
            raise IndexError("vertex in S out of range")
        t_ids = [int(v) for v in t if 0 <= int(v) < self._n]
        t_mask = np.zeros(self._n, dtype=bool)
        t_mask[t_ids] = True
        src, dst = self._gather_rows(rows)
        sel = t_mask[dst]
        su, sv = src[sel], dst[sel]
        keys = np.minimum(su, sv) * np.int64(self._n) + np.maximum(su, sv)
        return int(np.unique(keys).size)

    def induced_edge_count(self, s: Iterable[int]) -> int:
        """``|E(S)|``: number of edges with both endpoints in ``S``."""
        s_set = {int(u) for u in s}
        if not s_set:
            return 0
        rows = np.fromiter(s_set, dtype=np.int64, count=len(s_set))
        if rows.min() < 0 or rows.max() >= self._n:
            raise IndexError("vertex in S out of range")
        s_mask = np.zeros(self._n, dtype=bool)
        s_mask[rows] = True
        src, dst = self._gather_rows(rows)
        return int(np.count_nonzero(s_mask[dst] & (src < dst)))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, s: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph ``G[S]``.

        Returns
        -------
        (graph, mapping):
            ``graph`` is the induced subgraph with vertices relabelled to
            ``0..|S|-1`` in the order of the (deduplicated, sorted) input;
            ``mapping`` maps original labels to new labels.
        """
        s_sorted = np.unique(np.asarray(list(s), dtype=np.int64))
        if s_sorted.size and (
            s_sorted[0] < 0 or s_sorted[-1] >= self._n
        ):
            raise IndexError("vertex in S out of range")
        mapping = {int(orig): i for i, orig in enumerate(s_sorted)}
        s_mask = np.zeros(self._n, dtype=bool)
        s_mask[s_sorted] = True
        src, dst = self._gather_rows(s_sorted)
        keep = s_mask[dst] & (src < dst)
        new_us = np.searchsorted(s_sorted, src[keep])
        new_vs = np.searchsorted(s_sorted, dst[keep])
        return Graph._from_arrays(int(s_sorted.size), new_us, new_vs), mapping

    def complement(self) -> "Graph":
        """The complement graph (no self-loops), via the dense adjacency."""
        n = self._n
        if n < 2:
            return Graph(n)
        present = np.zeros((n, n), dtype=bool)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        present[src, self._indices] = True
        us, vs = np.nonzero(np.triu(~present, k=1))
        return Graph._from_arrays(n, us.astype(np.int64), vs.astype(np.int64))

    def with_edges_added(self, new_edges: Iterable[tuple[int, int]]) -> "Graph":
        """A new graph with ``new_edges`` added."""
        add_us: list[int] = []
        add_vs: list[int] = []
        for u, v in new_edges:
            u = int(u)
            v = int(v)
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for n={self._n}"
                )
            if u == v:
                raise ValueError(f"self-loop ({u}, {u}) is not allowed")
            add_us.append(u)
            add_vs.append(v)
        us, vs = self.edge_arrays()
        return Graph._from_arrays(
            self._n,
            np.concatenate([us, np.array(add_us, dtype=np.int64)]),
            np.concatenate([vs, np.array(add_vs, dtype=np.int64)]),
        )

    def with_edge_deltas(
        self,
        add_us: np.ndarray,
        add_vs: np.ndarray,
        rem_us: np.ndarray,
        rem_vs: np.ndarray,
    ) -> "Graph":
        """A new graph with an edge delta applied: ``(E \\ rem) ∪ add``.

        ``add_us``/``add_vs`` and ``rem_us``/``rem_vs`` are parallel
        endpoint arrays over *undirected* pairs (either orientation).
        Removals absent from the graph and additions already present
        are ignored; duplicates collapse.  This is the compaction
        primitive of the dynamic overlay
        (:mod:`repro.dynamic.overlay`), which folds an accumulated
        delta log back into a fresh CSR with a few numpy set
        operations instead of per-edge Python work.
        """
        n = self._n
        add_us = np.asarray(add_us, dtype=np.int64).ravel()
        add_vs = np.asarray(add_vs, dtype=np.int64).ravel()
        rem_us = np.asarray(rem_us, dtype=np.int64).ravel()
        rem_vs = np.asarray(rem_vs, dtype=np.int64).ravel()
        for us_, vs_ in ((add_us, add_vs), (rem_us, rem_vs)):
            if us_.shape != vs_.shape:
                raise ValueError("endpoint arrays must be equal-length")
            if us_.size:
                if (
                    int(us_.min()) < 0
                    or int(vs_.min()) < 0
                    or max(int(us_.max()), int(vs_.max())) >= n
                ):
                    raise ValueError(f"edge endpoint out of range for n={n}")
                if np.any(us_ == vs_):
                    raise ValueError("self-loops are not allowed")
        us, vs = self.edge_arrays()
        keys = us * np.int64(n) + vs  # us < vs: sorted undirected keys
        if rem_us.size:
            rem_keys = np.minimum(rem_us, rem_vs) * np.int64(n) + np.maximum(
                rem_us, rem_vs
            )
            keys = keys[~np.isin(keys, rem_keys)]
        if add_us.size:
            add_keys = np.minimum(add_us, add_vs) * np.int64(n) + np.maximum(
                add_us, add_vs
            )
            keys = np.union1d(keys, add_keys)  # sorted + deduplicated
        lo, hi = np.divmod(keys, np.int64(n))
        return Graph._from_arrays(n, lo, hi)

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex ``u`` renamed to ``perm[u]``.

        ``perm`` must be a permutation of ``0..n-1``.
        """
        p = np.asarray(perm, dtype=np.int64)
        if p.shape != (self._n,) or not np.array_equal(
            np.sort(p), np.arange(self._n, dtype=np.int64)
        ):
            raise ValueError("perm must be a permutation of range(n)")
        us, vs = self.edge_arrays()
        return Graph._from_arrays(self._n, p[us], p[vs])

    # ------------------------------------------------------------------
    # Matrix / external representations
    # ------------------------------------------------------------------
    def adjacency_csr(self) -> "csr_matrix":
        """Adjacency matrix as a cached ``scipy.sparse.csr_matrix`` of int8.

        Wraps the native ``indptr`` / ``indices`` arrays without copying.
        """
        if self._csr is None:
            from scipy import sparse

            data = np.ones(self._indices.size, dtype=np.int8)
            mat = sparse.csr_matrix(
                (data, self._indices, self._indptr),
                shape=(self._n, self._n),
                copy=False,
            )
            mat.has_sorted_indices = True
            mat.has_canonical_format = True
            self._csr = mat
        return self._csr

    def adjacency_csr_int32(self) -> "csr_matrix":
        """int32-data variant of :meth:`adjacency_csr` (cached).

        The sparse matvec backends reduce in int32; handing every
        :class:`~repro.core.neighbor_ops.SparseNeighborOps` instance
        one shared, canonical-format int32 matrix avoids a per-process
        data copy and scipy's O(m) canonical-format re-check on the
        first product.
        """
        if self._csr32 is None:
            from scipy import sparse

            data = np.ones(self._indices.size, dtype=np.int32)
            mat = sparse.csr_matrix(
                (data, self._indices, self._indptr),
                shape=(self._n, self._n),
                copy=False,
            )
            mat.has_sorted_indices = True
            mat.has_canonical_format = True
            self._csr32 = mat
        return self._csr32

    def adjacency_dense(self) -> np.ndarray:
        """Adjacency matrix as a cached dense int8 numpy array."""
        if self._dense is None:
            a = np.zeros((self._n, self._n), dtype=np.int8)
            src = np.repeat(
                np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
            )
            a[src, self._indices] = 1
            self._dense = a
        return self._dense

    def density(self) -> float:
        """Edge density ``m / C(n, 2)`` (0.0 when n < 2)."""
        if self._n < 2:
            return 0.0
        return self._m / (self._n * (self._n - 1) / 2)

    @classmethod
    def from_edge_list(
        cls, edges: Iterable[tuple[int, int]], n: int | None = None
    ) -> "Graph":
        """Build a graph from an edge list, inferring ``n`` if omitted."""
        edge_list = [(int(u), int(v)) for u, v in edges]
        if n is None:
            n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
        return cls(n, edge_list)

    @classmethod
    def from_numpy_edges(
        cls, n: int, us: np.ndarray, vs: np.ndarray
    ) -> "Graph":
        """Vectorized constructor from parallel endpoint arrays.

        Semantically identical to ``Graph(n, zip(us, vs))`` but builds
        the CSR arrays with a couple of numpy sorts — no per-edge or
        per-vertex Python work, which is what lets a million-vertex
        G(n, p) sample construct in milliseconds.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise ValueError("us and vs must be equal-length 1-d arrays")
        if us.size:
            if us.min() < 0 or vs.min() < 0 or max(us.max(), vs.max()) >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(us == vs):
                raise ValueError("self-loops are not allowed")
        return cls._from_arrays(int(n), us, vs)

    @classmethod
    def from_csr_arrays(
        cls, n: int, m: int, indptr: np.ndarray, indices: np.ndarray
    ) -> "Graph":
        """Adopt existing CSR arrays without copying or re-validating.

        The shared-memory attach path of :mod:`repro.parallel`: workers
        rebuild published graphs directly over mapped segments, so the
        arrays may be read-only views into a buffer owned by the caller
        (who must keep that buffer alive for the graph's lifetime).
        Only shape invariants are checked — the arrays are trusted to
        be a valid row-sorted CSR adjacency as another :class:`Graph`
        produced them (``indices`` holds both directions of each edge,
        hence length ``2m``).
        """
        if n < 0 or m < 0:
            raise ValueError("n and m must be >= 0")
        if indptr.shape != (n + 1,):
            raise ValueError(
                f"indptr must have shape ({n + 1},), got {indptr.shape}"
            )
        if indices.shape != (2 * m,):
            raise ValueError(
                f"indices must have shape ({2 * m},), got {indices.shape}"
            )
        graph = cls.__new__(cls)
        graph.__setstate__((int(n), int(m), indptr, indices))
        return graph

    @classmethod
    def from_adjacency(cls, adj: Sequence[Iterable[int]]) -> "Graph":
        """Build a graph from an adjacency-list representation.

        Rows may be arbitrary iterables (including one-shot generators):
        each row is materialized exactly once before the symmetry check,
        so consuming iterators cannot silently skip the asymmetry
        validation.
        """
        rows = [tuple(int(v) for v in nbrs) for nbrs in adj]
        row_sets = [set(row) for row in rows]
        edges = []
        for u, nbrs in enumerate(rows):
            for v in nbrs:
                if u < v:
                    edges.append((u, v))
                elif v < u and u not in row_sets[v]:
                    raise ValueError(
                        f"asymmetric adjacency: {v} lists {u}? missing"
                    )
        return cls(len(rows), edges)

    def to_networkx(self) -> Any:  # networkx ships no stubs
        """Convert to a ``networkx.Graph`` (requires networkx installed)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g: Any) -> "Graph":
        """Build from a ``networkx.Graph`` with integer-convertible labels."""
        nodes = sorted(g.nodes())
        mapping = {node: i for i, node in enumerate(nodes)}
        edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
        return cls(len(nodes), edges)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> np.ndarray:
        """Single-source BFS distances; unreachable vertices get -1.

        Frontier-at-a-time on the CSR arrays: each level is one
        vectorized multi-row gather instead of a per-vertex Python loop.
        """
        if not (0 <= source < self._n):
            raise ValueError(f"source {source} out of range")
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        d = 0
        while frontier.size:
            d += 1
            _, nbrs = self._gather_rows(frontier)
            nbrs = nbrs[dist[nbrs] < 0]
            if nbrs.size == 0:
                break
            frontier = np.unique(nbrs)
            dist[frontier] = d
        return dist

    # ------------------------------------------------------------------
    # Pickling (drop the lazy caches; the CSR arrays are the state)
    # ------------------------------------------------------------------
    def __getstate__(self) -> _GraphState:
        return (self._n, self._m, self._indptr, self._indices)

    def __setstate__(self, state: _GraphState) -> None:
        self._n, self._m, self._indptr, self._indices = state
        self._adj_cache = None
        self._adj_sets_cache = None
        self._nbr_cache = {}
        self._degrees = None
        self._csr = None
        self._csr32 = None
        self._dense = None
        self._edges = None

    def __reduce__(self) -> tuple[Any, tuple[_GraphState]]:
        return (_rebuild_graph, (self.__getstate__(),))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._n,
                self._m,
                self._indptr.astype(np.int64, copy=False).tobytes(),
                self._indices.astype(np.int64, copy=False).tobytes(),
            )
        )

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    def __len__(self) -> int:
        return self._n


def _rebuild_graph(state: _GraphState) -> Graph:
    """Unpickle helper: restore a :class:`Graph` from its CSR state."""
    graph = Graph.__new__(Graph)
    graph.__setstate__(state)
    return graph


class GraphBuilder:
    """Mutable accumulator for constructing a :class:`Graph`.

    Examples
    --------
    >>> b = GraphBuilder(3)
    >>> b.add_edge(0, 1).add_edge(1, 2)  # doctest: +ELLIPSIS
    <repro.graphs.graph.GraphBuilder object at ...>
    >>> b.build().m
    2
    """

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self._n = int(n)
        self._edges: list[tuple[int, int]] = []

    @property
    def n(self) -> int:
        """Current number of vertices."""
        return self._n

    def add_vertex(self) -> int:
        """Add one vertex; returns its index."""
        self._n += 1
        return self._n - 1

    def add_vertices(self, count: int) -> range:
        """Add ``count`` vertices; returns the range of new indices."""
        if count < 0:
            raise ValueError("count must be >= 0")
        start = self._n
        self._n += count
        return range(start, self._n)

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Add edge ``{u, v}``; vertices must already exist."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self._n}")
        if u == v:
            raise ValueError("self-loops are not allowed")
        self._edges.append((u, v))
        return self

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "GraphBuilder":
        """Add many edges."""
        for u, v in edges:
            self.add_edge(u, v)
        return self

    def add_clique(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Add all edges among ``vertices``."""
        vs = list(vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                self.add_edge(u, v)
        return self

    def add_path(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Add a path through ``vertices`` in order."""
        vs = list(vertices)
        for u, v in zip(vs, vs[1:]):
            self.add_edge(u, v)
        return self

    def add_cycle(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Add a cycle through ``vertices`` in order."""
        vs = list(vertices)
        if len(vs) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        self.add_path(vs)
        self.add_edge(vs[-1], vs[0])
        return self

    def build(self) -> Graph:
        """Materialize the accumulated graph."""
        return Graph(self._n, self._edges)
