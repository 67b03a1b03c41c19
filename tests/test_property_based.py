"""Property-based tests (hypothesis) on core invariants.

These probe the process semantics and graph substrate over randomly
generated graphs and states — the invariants here are the load-bearing
facts the paper's proofs rest on.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.activity import active_set, stable_black_set, unstable_set
from repro.core.states import BLACK1, WHITE
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.core.verify import (
    is_independent_set,
    is_maximal_independent_set,
)
from repro.baselines.greedy import greedy_mis
from repro.graphs.graph import Graph
from repro.sim.runner import run_until_stable


@st.composite
def graphs(draw, max_n=24):
    """Random simple graphs with adversarially chosen edge subsets."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=60)
        if possible
        else st.just([])
    )
    return Graph(n, edges)


@st.composite
def graphs_with_states(draw, max_n=24):
    g = draw(graphs(max_n))
    bits = draw(
        st.lists(st.booleans(), min_size=g.n, max_size=g.n)
    )
    return g, np.array(bits, dtype=bool)


@settings(max_examples=60, deadline=None)
@given(graphs_with_states())
def test_stable_black_set_is_independent(gs):
    g, black = gs
    stable = stable_black_set(g, black)
    assert is_independent_set(g, stable)


@settings(max_examples=60, deadline=None)
@given(graphs_with_states())
def test_active_iff_not_locally_consistent(gs):
    g, black = gs
    active = active_set(g, black)
    for u in g.vertices():
        has_black = any(black[v] for v in g.neighbors(u))
        expected = (black[u] and has_black) or (
            not black[u] and not has_black
        )
        assert active[u] == expected


@settings(max_examples=60, deadline=None)
@given(graphs_with_states())
def test_no_active_iff_black_set_is_mis(gs):
    # The central observation of §2: A_t = ∅ ⟺ B_t is an MIS.
    g, black = gs
    active = active_set(g, black)
    assert (not active.any()) == is_maximal_independent_set(g, black)


@settings(max_examples=40, deadline=None)
@given(graphs_with_states(), st.integers(min_value=0, max_value=2**32 - 1))
def test_stability_is_monotone(gs, seed):
    # Once covered (stable), a vertex stays covered forever.
    g, black = gs
    proc = TwoStateMIS(g, coins=seed, init=black)
    covered = proc.covered_mask()
    for _ in range(15):
        proc.step()
        new_covered = proc.covered_mask()
        assert not np.any(covered & ~new_covered)
        covered = new_covered


@settings(max_examples=40, deadline=None)
@given(graphs_with_states(), st.integers(min_value=0, max_value=2**32 - 1))
def test_stable_black_vertices_keep_their_color(gs, seed):
    g, black = gs
    proc = TwoStateMIS(g, coins=seed, init=black)
    stable = proc.stable_black_mask()
    for _ in range(15):
        proc.step()
        assert np.all(proc.black_mask()[stable])
        stable = proc.stable_black_mask()


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_two_state_stabilizes_to_valid_mis(g, seed):
    proc = TwoStateMIS(g, coins=seed)
    result = run_until_stable(proc, max_rounds=100_000)
    assert result.stabilized
    assert is_maximal_independent_set(g, result.mis)


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_three_state_stabilizes_to_valid_mis(g, seed):
    proc = ThreeStateMIS(g, coins=seed)
    result = run_until_stable(proc, max_rounds=100_000)
    assert result.stabilized
    assert is_maximal_independent_set(g, result.mis)


@settings(max_examples=40, deadline=None)
@given(graphs_with_states())
def test_three_state_randomizers_stay_black(gs):
    # Any vertex that re-randomizes is black afterwards; any black0
    # vertex hearing black1 turns white: together the black mask after
    # one round is exactly (randomizers ∪ unchanged blacks).
    g, bits = gs
    init = np.where(bits, BLACK1, WHITE).astype(np.int8)
    proc = ThreeStateMIS(g, coins=1, init=init)
    randomizers = proc.active_mask()
    proc.step()
    after_black = proc.black_mask()
    assert np.all(after_black[randomizers])


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_greedy_mis_always_valid(g):
    assert is_maximal_independent_set(g, greedy_mis(g))


@settings(max_examples=60, deadline=None)
@given(graphs_with_states())
def test_unstable_set_closed_under_coverage(gs):
    # V_t is exactly the complement of N+[I_t].
    g, black = gs
    unstable = unstable_set(g, black)
    stable = stable_black_set(g, black)
    for u in g.vertices():
        covered = stable[u] or any(stable[v] for v in g.neighbors(u))
        assert unstable[u] == (not covered)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_subgraph_consistency(g, seed):
    # Induced subgraph on a random half of the vertices has consistent
    # adjacency with the parent.
    rng = np.random.default_rng(seed)
    subset = [u for u in g.vertices() if rng.random() < 0.5]
    sub, mapping = g.subgraph(subset)
    for u in subset:
        for v in subset:
            if u < v:
                assert g.has_edge(u, v) == sub.has_edge(
                    mapping[u], mapping[v]
                )
