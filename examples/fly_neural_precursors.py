#!/usr/bin/env python3
"""Sensory-organ-precursor (SOP) selection: the fly's MIS computation.

§1 cites Afek et al. (Science 2011): during fly nervous-system
development, proneural cells self-select so that each cell either
becomes an SOP or neighbours one, and no two SOPs touch — an MIS, solved
by lateral inhibition (Delta/Notch signalling).  Cells cannot count
signals or identify senders — they detect only "some neighbour is
inhibiting me", which is exactly the stone-age/beeping observation
model.

This example models the proneural field as a hex-like lattice of cell
clusters and runs the 3-state MIS process (Definition 5) as a stone-age
network (:class:`repro.core.reference.ReferenceThreeState`): black1/black0
play the role of the Delta-expressing (inhibiting) states, white is the
inhibited state.

It then reports the biologically relevant observables: time to pattern
completion, SOP density, and the minimum pairwise SOP distance (always
>= 2 by independence).

Run:  python examples/fly_neural_precursors.py
"""

from repro import Graph, assert_valid_mis, run_until_stable
from repro.core.reference import ReferenceThreeState


def proneural_field(rows: int, cols: int) -> Graph:
    """A brick-wall (hex-like) lattice: each cell touches up to 6 others."""
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
                # Staggered diagonal, alternating by row parity.
                if r % 2 == 0 and c + 1 < cols:
                    edges.append((vid(r, c), vid(r + 1, c + 1)))
                elif r % 2 == 1 and c - 1 >= 0:
                    edges.append((vid(r, c), vid(r + 1, c - 1)))
    return Graph(rows * cols, edges)


def main() -> None:
    rows, cols = 20, 30
    field = proneural_field(rows, cols)
    print(f"proneural field: {field.n} cells, {field.m} contacts, "
          f"max contacts/cell = {field.max_degree()}")

    # All cells start in the undecided (white) state — but the process
    # would work from ANY initial pattern (self-stabilization).
    culture = ReferenceThreeState(field, coins=11, init="all_white")
    result = run_until_stable(culture, max_rounds=20_000)
    sops = result.mis
    print(f"pattern complete after {result.stabilization_round} "
          f"signalling rounds: {len(sops)} SOPs "
          f"({len(sops) / field.n:.1%} of cells)")
    assert_valid_mis(field, sops)

    # Independence ⇒ no two SOPs are adjacent; check minimum pairwise
    # lattice distance via BFS from each SOP (small field, exact).
    min_dist = None
    sop_set = set(int(s) for s in sops)
    for s in sops:
        dist = field.bfs_distances(int(s))
        for t in sops:
            if int(t) != int(s) and dist[t] >= 0:
                d = int(dist[t])
                min_dist = d if min_dist is None else min(min_dist, d)
    print(f"minimum SOP-SOP contact distance: {min_dist} (>= 2 required)")

    # Lateral-inhibition realism check: every non-SOP cell is inhibited
    # by (adjacent to) at least one SOP.
    uncovered = [
        u for u in field.vertices()
        if u not in sop_set
        and not any(v in sop_set for v in field.neighbors(u))
    ]
    print(f"cells lacking inhibition: {len(uncovered)} (must be 0)")


if __name__ == "__main__":
    main()
