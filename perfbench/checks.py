"""An MIS check of the benchmark's own, independent of ``repro.core.verify``.

It reads only the CSR arrays of a graph, so a broken verifier in the
program cannot pass its own output through this check.
"""

from __future__ import annotations

import numpy as np


class MISCheck:
    """Independence and maximality of vertex sets on one CSR adjacency."""

    def __init__(self, graph) -> None:
        indptr = np.asarray(graph.indptr, dtype=np.int64)
        self.n = int(graph.n)
        self.dst = np.asarray(graph.indices, dtype=np.int64)
        self.src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))

    def problem(self, members, alive=None) -> str | None:
        """Why ``members`` is not an MIS (of the ``alive`` subgraph), or ``None``.

        ``members`` is a sorted index array or a boolean mask; ``alive``
        an optional boolean mask of the vertices that must be covered.
        """
        members = np.asarray(members)
        if members.dtype == bool:
            mask = members.copy()
        else:
            mask = np.zeros(self.n, dtype=bool)
            mask[members] = True
        if alive is not None and (mask & ~alive).any():
            return "a member is not an alive vertex"
        member_dst = mask[self.dst]
        if (mask[self.src] & member_dst).any():
            return "two members are adjacent"
        covered = mask.copy()
        covered[self.src[member_dst]] = True
        uncovered = ~covered if alive is None else alive & ~covered
        if uncovered.any():
            return f"vertex {int(np.flatnonzero(uncovered)[0])} has no member in N+"
        return None
