"""Ablation: neighbourhood-ops backend choice (DESIGN.md §6).

Times 100 rounds of the 2-state process on the same graphs under the
dense (matmul) and CSR backends, pinned through ``ops=``.  The
heuristic in ``make_neighbor_ops`` is justified by these numbers; the
mid-size dense case (n past the dense cap, density high enough that
CSR indirection hurts) shows what routing it to CSR costs.
"""

import pytest

from repro.core.neighbor_ops import DenseNeighborOps, SparseNeighborOps
from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import complete_graph
from repro.graphs.random_graphs import gnp_random_graph

_DENSE_GRAPH = complete_graph(512)
_SPARSE_GRAPH = gnp_random_graph(4096, 0.002, rng=1)
_MIDSIZE_DENSE_GRAPH = gnp_random_graph(6000, 0.15, rng=4)
_OPS = {"dense": DenseNeighborOps, "sparse": SparseNeighborOps}


def _steps(graph, backend: str, rounds: int = 100):
    proc = TwoStateMIS(
        graph, coins=3, init="all_black", ops=_OPS[backend](graph)
    )
    proc.step(rounds)


@pytest.mark.parametrize("backend", list(_OPS))
def test_dense_graph_backend(benchmark, backend):
    benchmark.pedantic(
        lambda: _steps(_DENSE_GRAPH, backend), rounds=3, iterations=1
    )


@pytest.mark.parametrize("backend", list(_OPS))
def test_sparse_graph_backend(benchmark, backend):
    benchmark.pedantic(
        lambda: _steps(_SPARSE_GRAPH, backend), rounds=3, iterations=1
    )


@pytest.mark.parametrize("backend", list(_OPS))
def test_midsize_dense_graph_backend(benchmark, backend):
    benchmark.pedantic(
        lambda: _steps(_MIDSIZE_DENSE_GRAPH, backend, rounds=20),
        rounds=3,
        iterations=1,
    )
