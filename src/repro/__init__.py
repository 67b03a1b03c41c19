"""repro — reproduction of Giakkoupis & Ziccardi (PODC 2023),
"Distributed Self-Stabilizing MIS with Few States and Weak Communication".

Public API overview
-------------------
Graphs (``repro.graphs``):
    :class:`~repro.graphs.Graph`, deterministic generators
    (:func:`~repro.graphs.complete_graph`, ...), random models
    (:func:`~repro.graphs.gnp_random_graph`, ...), structural properties
    and the good-graph checkers of Definition 17.

Processes (``repro.core``):
    :class:`~repro.core.TwoStateMIS` (Definition 4),
    :class:`~repro.core.ThreeStateMIS` (Definition 5),
    :class:`~repro.core.RandomizedLogSwitch` (Definition 26),
    :class:`~repro.core.ThreeColorMIS` (Definition 28).

Communication models (``repro.models``):
    beeping with sender collision detection, synchronous stone age, and
    transient-fault adversaries.

Baselines (``repro.baselines``):
    Luby's algorithm, greedy MIS, the sequential self-stabilizing
    algorithm under several schedulers.

Simulation & experiments (``repro.sim``, ``repro.experiments``):
    run-until-stable engine, Monte-Carlo estimation, polylog fitting,
    and one registered experiment per theorem/lemma (E1-E12).

Quickstart
----------
>>> from repro import gnp_random_graph, TwoStateMIS, run_until_stable
>>> g = gnp_random_graph(200, 0.05, rng=1)
>>> proc = TwoStateMIS(g, coins=7)
>>> result = run_until_stable(proc, max_rounds=10_000)
>>> result.stabilized
True
"""

from repro.graphs import (
    Graph,
    GraphBuilder,
    complete_graph,
    path_graph,
    cycle_graph,
    star_graph,
    grid_graph,
    balanced_tree,
    disjoint_cliques,
    gnp_random_graph,
    random_tree,
    random_regular_graph,
    check_good_graph,
)
from repro.core import (
    TwoStateMIS,
    ThreeStateMIS,
    ThreeColorMIS,
    RandomizedLogSwitch,
    is_independent_set,
    is_maximal_independent_set,
    assert_valid_mis,
)
from repro.sim import (
    SeededCoins,
    run_until_stable,
    estimate_stabilization_time,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "grid_graph",
    "balanced_tree",
    "disjoint_cliques",
    "gnp_random_graph",
    "random_tree",
    "random_regular_graph",
    "check_good_graph",
    "TwoStateMIS",
    "ThreeStateMIS",
    "ThreeColorMIS",
    "RandomizedLogSwitch",
    "is_independent_set",
    "is_maximal_independent_set",
    "assert_valid_mis",
    "SeededCoins",
    "run_until_stable",
    "estimate_stabilization_time",
    "__version__",
]
