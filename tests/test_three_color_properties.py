"""Property-based tests specific to the 3-color process and the switch."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.states import BLACK, GRAY, WHITE
from repro.core.switch import OracleSwitch, RandomizedLogSwitch
from repro.core.three_color import ThreeColorMIS
from repro.core.verify import is_maximal_independent_set
from repro.graphs.graph import Graph
from repro.sim.runner import run_until_stable


@st.composite
def graphs(draw, max_n=18):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=45)
        if possible
        else st.just([])
    )
    return Graph(n, edges)


@st.composite
def graphs_with_colors(draw, max_n=18):
    g = draw(graphs(max_n))
    colors = draw(
        st.lists(
            st.sampled_from([WHITE, GRAY, BLACK]),
            min_size=g.n, max_size=g.n,
        )
    )
    return g, np.array(colors, dtype=np.int8)


@settings(max_examples=40, deadline=None)
@given(graphs_with_colors(), st.integers(min_value=0, max_value=2**32 - 1))
def test_black_never_becomes_white_directly(gs, seed):
    # Definition 28: black → black or gray; never black → white in one
    # round.  (The ablation-relevant structural difference vs 2-state.)
    g, colors = gs
    proc = ThreeColorMIS(g, coins=seed, a=8.0, init=colors)
    for _ in range(10):
        before = proc.colors.copy()
        proc.step()
        after = proc.colors
        went_white = (before == BLACK) & (after == WHITE)
        assert not went_white.any()


@settings(max_examples=40, deadline=None)
@given(graphs_with_colors(), st.integers(min_value=0, max_value=2**32 - 1))
def test_gray_only_moves_to_white(gs, seed):
    # A gray vertex either stays gray or becomes white — it can never
    # jump straight to black (re-entry is metered by the switch).
    g, colors = gs
    proc = ThreeColorMIS(g, coins=seed, a=8.0, init=colors)
    for _ in range(10):
        before = proc.colors.copy()
        proc.step()
        after = proc.colors
        jumped = (before == GRAY) & (after == BLACK)
        assert not jumped.any()


@settings(max_examples=40, deadline=None)
@given(graphs_with_colors(), st.integers(min_value=0, max_value=2**32 - 1))
def test_stable_black_frozen_in_three_color(gs, seed):
    g, colors = gs
    proc = ThreeColorMIS(g, coins=seed, a=8.0, init=colors)
    stable = proc.stable_black_mask()
    for _ in range(12):
        proc.step()
        assert np.all(proc.colors[stable] == BLACK)
        stable = proc.stable_black_mask()


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=14), st.integers(min_value=0, max_value=2**32 - 1))
def test_three_color_stabilizes_to_valid_mis(g, seed):
    proc = ThreeColorMIS(g, coins=seed, a=8.0)
    result = run_until_stable(proc, max_rounds=200_000)
    assert result.stabilized
    assert is_maximal_independent_set(g, result.mis)


@settings(max_examples=40, deadline=None)
@given(
    graphs(max_n=16),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.0625, 0.125, 0.25, 0.5]),
)
def test_switch_levels_invariant(g, seed, zeta):
    switch = RandomizedLogSwitch(g, coins=seed, zeta=zeta)
    for _ in range(30):
        switch.step()
        assert switch.levels.min() >= 0
        assert switch.levels.max() <= 5
        # σ is exactly the level <= 2 mask.
        assert np.array_equal(switch.sigma(), switch.levels <= 2)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=8),
)
def test_oracle_switch_period(n, on_run, off_run):
    switch = OracleSwitch(n, on_run=on_run, off_run=off_run)
    period = on_run + off_run
    history = []
    for _ in range(3 * period):
        history.append(switch.sigma().copy())
        switch.step()
    for t in range(period, len(history)):
        assert np.array_equal(history[t], history[t - period])
