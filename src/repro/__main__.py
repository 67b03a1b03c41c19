"""Top-level CLI: run a process on a generated or loaded graph.

Usage examples::

    python -m repro run --graph gnp --n 500 --p 0.02 --process 2-state
    python -m repro run --graph clique --n 256 --process 3-state --seed 7
    python -m repro run --graph tree --n 1000 --process 3-color --trace
    python -m repro run --edge-list mygraph.txt --process 2-state
    python -m repro budget --graph gnp --n 4096 --p 0.01
    python -m repro doctor

``doctor`` self-checks the worker fleet, the chaos recovery paths and
the churn service on the current machine (:mod:`repro.doctor`).

(Experiments have their own CLI: ``python -m repro.experiments``.)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _build_graph(args):
    from repro.graphs import (
        complete_graph,
        cycle_graph,
        disjoint_cliques,
        gnp_random_graph,
        grid_graph,
        path_graph,
        random_regular_graph,
        random_tree,
        star_graph,
    )

    if args.edge_list:
        from repro.io import read_edge_list

        try:
            return read_edge_list(args.edge_list)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
    n = args.n
    rng = np.random.default_rng(args.seed)
    builders = {
        "clique": lambda: complete_graph(n),
        "path": lambda: path_graph(n),
        "cycle": lambda: cycle_graph(n),
        "star": lambda: star_graph(n),
        "grid": lambda: grid_graph(
            int(round(n ** 0.5)), int(round(n ** 0.5))
        ),
        "tree": lambda: random_tree(n, rng=rng),
        "gnp": lambda: gnp_random_graph(n, args.p, rng=rng),
        "regular": lambda: random_regular_graph(n, args.d, rng=rng),
        "disjoint-cliques": lambda: disjoint_cliques(
            int(round(n ** 0.5)), int(round(n ** 0.5))
        ),
    }
    if args.graph not in builders:
        raise SystemExit(f"unknown graph family {args.graph!r}")
    return builders[args.graph]()


def _build_process(args, graph):
    """The process ``--process`` names, and its budget family."""
    from repro.core import ThreeColorMIS, ThreeStateMIS, TwoStateMIS
    from repro.core.reference import ReferenceThreeState, ReferenceTwoState

    seed = args.seed
    processes = {
        "2-state": ("2-state", lambda: TwoStateMIS(graph, coins=seed)),
        "3-state": ("3-state", lambda: ThreeStateMIS(graph, coins=seed)),
        "3-color": ("3-color",
                    lambda: ThreeColorMIS(graph, coins=seed, a=args.a)),
        "beeping": ("2-state", lambda: ReferenceTwoState(graph, coins=seed)),
        "stone-age": ("3-state",
                      lambda: ReferenceThreeState(graph, coins=seed)),
    }
    if args.process not in processes:
        raise SystemExit(f"unknown process {args.process!r}")
    family, build = processes[args.process]
    return build(), family


def _cmd_run(args) -> int:
    from repro.sim.runner import run_until_stable
    from repro.theory.budgets import recommended_budget

    graph = _build_graph(args)
    process, family = _build_process(args, graph)
    budget = args.max_rounds
    if budget is None:
        budget = recommended_budget(graph, family)
    print(f"graph: n={graph.n} m={graph.m} Δ={graph.max_degree()}")
    print(f"process: {args.process}  budget: {budget} rounds  "
          f"seed: {args.seed}")
    result = run_until_stable(
        process, max_rounds=budget, record_trace=args.trace
    )
    if not result.stabilized:
        print(f"DID NOT STABILIZE within {budget} rounds "
              f"(|V_t| = {int(process.unstable_mask().sum())})")
        return 1
    print(f"stabilized after {result.stabilization_round} rounds; "
          f"MIS size {len(result.mis)}")
    if args.trace:
        from repro.experiments.asciiplot import ascii_plot

        curve = result.trace.unstable_counts
        if len(curve) >= 2 and max(curve) > 0:
            print(ascii_plot(
                list(range(len(curve))), curve,
                title="|V_t| (non-stable vertices) per round",
            ))
    if args.print_mis:
        print("MIS:", " ".join(map(str, result.mis.tolist())))
    return 0


def _cmd_budget(args) -> int:
    from repro.theory.budgets import recommended_budget

    graph = _build_graph(args)
    for process in ("2-state", "3-state", "3-color"):
        print(f"{process}: {recommended_budget(graph, process)} rounds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("--graph", default="gnp",
                       help="clique|path|cycle|star|grid|tree|gnp|regular|"
                            "disjoint-cliques")
        p.add_argument("--edge-list", default=None,
                       help="load graph from an edge-list file instead")
        p.add_argument("--n", type=int, default=100)
        p.add_argument("--p", type=float, default=0.05,
                       help="edge probability for gnp")
        p.add_argument("--d", type=int, default=4,
                       help="degree for regular graphs")
        p.add_argument("--seed", type=int, default=0)

    run_parser = sub.add_parser("run", help="run a process to stabilization")
    add_graph_args(run_parser)
    run_parser.add_argument("--process", default="2-state",
                            help="2-state|3-state|3-color|beeping|stone-age")
    run_parser.add_argument("--a", type=float, default=16.0,
                            help="3-color switch parameter a (paper: 512)")
    run_parser.add_argument("--max-rounds", type=int, default=None,
                            help="round budget (default: from theory)")
    run_parser.add_argument("--trace", action="store_true",
                            help="plot the |V_t| curve")
    run_parser.add_argument("--print-mis", action="store_true")

    budget_parser = sub.add_parser(
        "budget", help="print theory-derived round budgets for a graph"
    )
    add_graph_args(budget_parser)

    sub.add_parser(
        "doctor", help="self-check the fleet, chaos recovery and churn service"
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "budget":
        return _cmd_budget(args)
    if args.command == "doctor":
        from repro import doctor
        from repro.parallel.pool import install_signal_backstop

        install_signal_backstop()
        return doctor.run()
    return 2


if __name__ == "__main__":
    sys.exit(main())
