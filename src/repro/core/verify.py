"""MIS verification utilities.

The correctness claim underlying every theorem is: *once the process
stabilizes, the black set is a maximal independent set*.  These functions
check independence and maximality of arbitrary vertex sets, enumerate
violations, and provide an assertion helper used across the test suite
and the experiment harness.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.graphs.graph import Graph
from repro.sim.rng import rows_to_words


def _as_mask(graph: Graph, vertices: Iterable[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(vertices)
    if arr.dtype == bool:
        if arr.ndim not in (1, 2) or arr.shape[-1] != graph.n:
            raise ValueError(
                f"boolean mask must have shape ({graph.n},) or "
                f"(k, {graph.n}), got {arr.shape}"
            )
        return arr
    mask = np.zeros(graph.n, dtype=bool)
    if arr.size:
        idx = arr.astype(np.int64)
        if idx.min() < 0 or idx.max() >= graph.n:
            raise ValueError("vertex index out of range")
        mask[idx] = True
    return mask


def neighbor_or(words: np.ndarray, graph: Graph) -> np.ndarray:
    """Row ``v``: the OR of ``v``'s neighbours' word rows (the beep it
    hears, 64 rows a word), by one ``np.bitwise_or.reduceat`` over the
    non-empty CSR rows (it mishandles empty slices)."""
    out = np.zeros_like(words)
    indptr = graph.indptr.astype(np.intp)
    busy = np.flatnonzero(np.diff(indptr))
    if busy.size:
        out[busy] = np.bitwise_or.reduceat(
            words[graph.indices], indptr[busy], axis=0
        )
    return out


def _by_row(hits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, items)`` of the set bits of ``hits`` (one word row per
    item), ordered by row, then item."""
    bits = np.unpackbits(hits.view(np.uint8), axis=1, count=k, bitorder="little")
    items, rows = np.nonzero(bits)
    order = np.argsort(rows, kind="stable")
    return rows[order], items[order]


def independence_violations(
    graph: Graph,
    vertices: Iterable[int] | np.ndarray,
    *,
    words: np.ndarray | None = None,
) -> list[tuple[int, ...]]:
    """Edges with both endpoints in the set (empty iff independent).

    Row form: a ``(k, n)`` boolean matrix checks ``k`` sets in one pass
    and reports ``(row, u, v)`` triples, ordered by row.  It costs one
    packing of the matrix (``O(k·n)`` byte operations, skipped when the
    caller passes the packed ``words``, as :func:`assert_valid_mis`
    does) plus one AND of two ``⌈k/64⌉``-word gathers per edge.
    """
    mask = _as_mask(graph, vertices)
    us, vs = graph.edge_arrays()
    if mask.ndim == 1:
        bad = mask[us] & mask[vs]
        return list(zip(us[bad].tolist(), vs[bad].tolist()))
    words = rows_to_words(mask) if words is None else words
    both = words[us] & words[vs]
    edges = np.flatnonzero(both.any(axis=1))
    rows, hit = _by_row(both[edges], mask.shape[0])
    edges = edges[hit]
    return list(zip(rows.tolist(), us[edges].tolist(), vs[edges].tolist()))


def maximality_violations(
    graph: Graph,
    vertices: Iterable[int] | np.ndarray,
    *,
    words: np.ndarray | None = None,
) -> list[int] | list[tuple[int, int]]:
    """Vertices outside the set with no neighbour inside (empty iff maximal).

    Only meaningful when the set is independent.  Row form: a
    ``(k, n)`` boolean matrix checks ``k`` sets in one pass and reports
    ``(row, v)`` pairs, ordered by row.  It costs one packing of the
    matrix (skipped given the packed ``words``) plus one
    ``⌈k/64⌉``-word OR per CSR slot.
    """
    mask = _as_mask(graph, vertices)
    if graph.n == 0:
        return []
    if mask.ndim == 1:
        counts = graph.adjacency_csr().dot(mask.astype(np.int32))
        return np.flatnonzero(~mask & (counts == 0)).tolist()
    # Covered words: own word OR-ed with every neighbour's.
    words = rows_to_words(mask) if words is None else words
    covered = words | neighbor_or(words, graph)
    missing = ~covered & rows_to_words(np.ones((mask.shape[0], 1), dtype=bool))
    verts = np.flatnonzero(missing.any(axis=1))
    rows, hit = _by_row(missing[verts], mask.shape[0])
    return list(zip(rows.tolist(), verts[hit].tolist()))


def is_independent_set(
    graph: Graph, vertices: Iterable[int] | np.ndarray
) -> bool:
    """Whether the set is independent."""
    return not independence_violations(graph, vertices)


def is_maximal_independent_set(
    graph: Graph, vertices: Iterable[int] | np.ndarray
) -> bool:
    """Whether the set is a maximal independent set."""
    return (
        not independence_violations(graph, vertices)
        and not maximality_violations(graph, vertices)
    )


def assert_valid_mis(
    graph: Graph,
    vertices: Iterable[int] | np.ndarray,
    rows: Sequence[int] | None = None,
) -> None:
    """Raise ``AssertionError`` with diagnostics if the set is not an MIS.

    A ``(k, n)`` boolean matrix checks ``k`` sets in one pass: the
    matrix is packed once and both checks share the words, so the cost
    is one ``O(k·n)`` packing plus ``O(⌈k/64⌉·m)`` word operations.  The
    error then names the first failing row, as ``rows[i]`` when row
    labels are given (the batched engines pass replica indices).
    """
    mask = _as_mask(graph, vertices)
    words = rows_to_words(mask) if mask.ndim == 2 else None
    where = ""
    ind: list[Any] = independence_violations(graph, mask, words=words)
    if ind and mask.ndim == 2:
        row = ind[0][0]
        where = f"row {row if rows is None else rows[row]}: "
        ind = [(u, v) for r, u, v in ind if r == row]
    if ind:
        raise AssertionError(
            f"{where}independence violated on {len(ind)} edge(s), "
            f"e.g. {ind[:5]}"
        )
    maxi: list[Any] = maximality_violations(graph, mask, words=words)
    if maxi and mask.ndim == 2:
        row = maxi[0][0]
        where = f"row {row if rows is None else rows[row]}: "
        maxi = [v for r, v in maxi if r == row]
    if maxi:
        raise AssertionError(
            f"{where}maximality violated at {len(maxi)} vertex(ices), "
            f"e.g. {maxi[:5]}"
        )


def greedy_mis_size_bounds(graph: Graph) -> tuple[int, int]:
    """Crude lower/upper bounds on any MIS size.

    Lower: n / (Δ + 1) (every MIS is dominating).  Upper: n minus a crude
    matching-based bound.  Used by tests as sanity envelopes for the
    MIS sizes the processes produce.
    """
    n = graph.n
    if n == 0:
        return (0, 0)
    delta = graph.max_degree()
    lower = max(1, -(-n // (delta + 1)))  # ceil
    # Greedy maximal matching: each matched edge kills at least one
    # candidate, so any independent set has size <= n - matching_size.
    matched = np.zeros(n, dtype=bool)
    matching_size = 0
    for u, v in graph.edges():
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            matching_size += 1
    upper = n - matching_size
    return (lower, upper)
