"""Structural graph properties used by the paper's theorems.

* Theorem 11 is parameterized by *arboricity*; :func:`degeneracy` is the
  arboricity proxy that :func:`repro.theory.budgets.recommended_budget`
  uses.
* Theorem 12 is parameterized by the maximum degree (on :class:`Graph`).
* Definition 17 (P5, P6) needs common-neighbour counts and the diameter.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph


def connected_components(graph: Graph) -> list[list[int]]:
    """Connected components, each as a sorted vertex list."""
    seen = [False] * graph.n
    components: list[list[int]] = []
    for root in graph.vertices():
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        components.append(sorted(comp))
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.n <= 1:
        return True
    return len(connected_components(graph)) == 1


def eccentricity(graph: Graph, u: int) -> int:
    """Eccentricity of ``u``; raises if the graph is disconnected."""
    dist = graph.bfs_distances(u)
    if np.any(dist < 0):
        raise ValueError("eccentricity undefined on disconnected graphs")
    return int(dist.max())


def diameter(graph: Graph) -> int:
    """Exact diameter via all-sources BFS; inf-like error if disconnected.

    Used by good-graph property P6 (``diam(G) <= 2`` when
    ``p >= 2 sqrt(ln n / n)``).
    """
    if graph.n == 0:
        return 0
    best = 0
    for u in graph.vertices():
        best = max(best, eccentricity(graph, u))
    return best


def core_numbers(graph: Graph) -> np.ndarray:
    """Core number of each vertex (Matula–Beck peeling, O(n + m))."""
    n = graph.n
    degree = graph.degrees().copy()
    max_deg = int(degree.max()) if n else 0
    # Bucket sort vertices by degree.
    bins = [0] * (max_deg + 2)
    for d in degree:
        bins[int(d)] += 1
    start = 0
    for d in range(max_deg + 1):
        count = bins[d]
        bins[d] = start
        start += count
    pos = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    fill = bins.copy()
    for v in range(n):
        pos[v] = fill[int(degree[v])]
        order[pos[v]] = v
        fill[int(degree[v])] += 1
    core = degree.copy()
    for i in range(n):
        v = order[i]
        for w in graph.neighbors(int(v)):
            if core[w] > core[v]:
                # Move w one bucket down (swap with first of its bucket).
                dw = int(core[w])
                first = bins[dw]
                u = order[first]
                if u != w:
                    order[first], order[pos[w]] = w, u
                    pos[u], pos[w] = pos[w], first
                bins[dw] += 1
                core[w] -= 1
    return core


def degeneracy(graph: Graph) -> int:
    """Degeneracy (max core number).

    Satisfies ``arboricity <= degeneracy <= 2*arboricity - 1``.
    """
    if graph.n == 0:
        return 0
    return int(core_numbers(graph).max())


def max_common_neighbors(graph: Graph) -> int:
    """Maximum number of common neighbours over all vertex pairs.

    This is the quantity bounded by good-graph property P5.  Computed as
    the maximum off-diagonal entry of ``A @ A`` (dense for small graphs,
    sparse otherwise).
    """
    n = graph.n
    if n < 2:
        return 0
    if n <= 1500:
        a = graph.adjacency_dense().astype(np.int32)
        sq = a @ a
        np.fill_diagonal(sq, 0)
        return int(sq.max())
    a = graph.adjacency_csr_int32()
    sq = (a @ a).tolil()
    sq.setdiag(0)
    data = sq.tocsr().data
    return int(data.max()) if data.size else 0
