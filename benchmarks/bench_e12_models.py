"""E12 — beeping / stone-age network executions.

Also quantifies the cost of simulating the networks of
:mod:`repro.core.reference` vs the vectorized abstract process.
"""

import math

from repro.core.two_state import TwoStateMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.core.reference import ReferenceThreeState, ReferenceTwoState
from repro.sim.runner import run_until_stable

_N = 256
_GRAPH = gnp_random_graph(_N, 2 * math.log(_N) / _N, rng=5)


def test_e12_regenerate(regen):
    regen("E12")


def test_beeping_execution(benchmark):
    def run():
        result = run_until_stable(
            ReferenceTwoState(_GRAPH, coins=1), max_rounds=100_000
        )
        assert result.stabilized

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_stone_age_execution(benchmark):
    def run():
        result = run_until_stable(
            ReferenceThreeState(_GRAPH, coins=2), max_rounds=100_000
        )
        assert result.stabilized

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_abstract_process_same_workload(benchmark):
    # The baseline the networks are compared against.
    def run():
        result = run_until_stable(
            TwoStateMIS(_GRAPH, coins=1), max_rounds=100_000
        )
        assert result.stabilized

    benchmark.pedantic(run, rounds=3, iterations=1)
