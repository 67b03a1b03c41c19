#!/usr/bin/env python3
"""Wireless sensor network: self-healing cluster-head election via beeps.

The intro's motivating scenario: a field of cheap radio sensors must
elect a set of cluster heads such that every sensor is adjacent to a
head and no two heads interfere — exactly an MIS of the communication
graph.  Nodes have no IDs, no knowledge of the network size, one bit of
state, and can only beep/listen (with sender collision detection).

This example:

1. builds a random geometric-ish communication graph (grid + random
   long links, a classic sensor-field stand-in);
2. runs the 2-state MIS process *as an actual beeping protocol*
   (`repro.core.reference.ReferenceTwoState`) until cluster heads
   stabilize;
3. kills 20% of the elected heads (battery failure) and shows the
   network re-electing heads around the failures without any restart —
   the self-stabilization guarantee.

Run:  python examples/wireless_sensor_network.py
"""

import numpy as np

from repro import Graph, assert_valid_mis, run_until_stable
from repro.graphs.generators import grid_graph
from repro.core.reference import ReferenceTwoState


def sensor_field(side: int, extra_links: int, rng: np.random.Generator) -> Graph:
    """A side x side sensor grid plus a few random long-range links."""
    base = grid_graph(side, side)
    edges = list(base.edges())
    n = base.n
    for _ in range(extra_links):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return Graph(n, edges)


def main() -> None:
    rng = np.random.default_rng(2023)
    graph = sensor_field(side=24, extra_links=60, rng=rng)
    print(f"sensor field: {graph.n} nodes, {graph.m} links")

    network = ReferenceTwoState(graph, coins=5)
    result = run_until_stable(network, max_rounds=50_000)
    heads = result.mis
    print(f"cluster heads elected after {result.stabilization_round} "
          f"beeping rounds: {len(heads)} heads")
    assert_valid_mis(graph, heads)

    # --- transient fault: 20% of heads die (turn white) ---
    dead = rng.choice(heads, size=max(1, len(heads) // 5), replace=False)
    states = network.state_vector()
    states[dead] = False
    network.corrupt(states)
    disturbed = int(network.unstable_mask().sum())
    print(f"killed {len(dead)} heads -> {disturbed} nodes lost coverage")

    recovery = run_until_stable(network, max_rounds=50_000)
    print(f"re-stabilized after {recovery.stabilization_round} more rounds; "
          f"{len(recovery.mis)} heads now")
    assert_valid_mis(graph, recovery.mis)

    # Every protocol message in this whole run was a single beep.
    print("communication used: 1-bit beep channel, "
          "1 random bit per node per round, 1 bit of node state")


if __name__ == "__main__":
    main()
