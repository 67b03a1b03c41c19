"""Graph substrate for the MIS-process reproduction.

This subpackage provides an immutable adjacency-set :class:`Graph`, a
mutable :class:`GraphBuilder`, deterministic graph families
(:mod:`repro.graphs.generators`), random graph models
(:mod:`repro.graphs.random_graphs`), structural property computations
(:mod:`repro.graphs.properties`) and the good-graph checkers of the paper's
Definition 17 (:mod:`repro.graphs.good`).

Everything is implemented from scratch on top of numpy/scipy; networkx is
only used (optionally) for conversion in :meth:`Graph.to_networkx`.
"""

from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.generators import (
    empty_graph,
    complete_graph,
    path_graph,
    cycle_graph,
    star_graph,
    complete_bipartite_graph,
    grid_graph,
    hypercube_graph,
    balanced_tree,
    caterpillar_graph,
    disjoint_cliques,
    disjoint_union,
    ring_of_cliques,
    lollipop_graph,
    barbell_graph,
    petersen_graph,
)
from repro.graphs.random_graphs import (
    gnp_random_graph,
    gnm_random_graph,
    random_tree,
    random_regular_graph,
    random_bipartite_graph,
    planted_partition_graph,
)
from repro.graphs.properties import (
    degeneracy,
    core_numbers,
    diameter,
    eccentricity,
    connected_components,
    is_connected,
    max_common_neighbors,
)
from repro.graphs.good import (
    GoodGraphReport,
    check_good_graph,
    check_p1_induced_density,
    check_p2_dominating_degree,
    check_p3_neighborhood_growth,
    check_p4_cut_edges,
    check_p5_common_neighbors,
    check_p6_diameter,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    # generators
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite_graph",
    "grid_graph",
    "hypercube_graph",
    "balanced_tree",
    "caterpillar_graph",
    "disjoint_cliques",
    "disjoint_union",
    "ring_of_cliques",
    "lollipop_graph",
    "barbell_graph",
    "petersen_graph",
    # random graphs
    "gnp_random_graph",
    "gnm_random_graph",
    "random_tree",
    "random_regular_graph",
    "random_bipartite_graph",
    "planted_partition_graph",
    # properties
    "degeneracy",
    "core_numbers",
    "diameter",
    "eccentricity",
    "connected_components",
    "is_connected",
    "max_common_neighbors",
    # good graphs
    "GoodGraphReport",
    "check_good_graph",
    "check_p1_induced_density",
    "check_p2_dominating_degree",
    "check_p3_neighborhood_growth",
    "check_p4_cut_edges",
    "check_p5_common_neighbors",
    "check_p6_diameter",
]
