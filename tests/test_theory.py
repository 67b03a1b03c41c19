"""Tests for repro.theory (bounds and budgets)."""

import math

import pytest

from repro.graphs.generators import complete_graph, path_graph
from repro.graphs.random_graphs import gnp_random_graph, random_tree
from repro.theory import bounds, budgets


class TestAlpha:
    def test_alpha_value(self):
        # α = 1/log₂(4/3) ≈ 2.409, and the paper says α <= 2.41.
        assert 2.40 < bounds.ALPHA <= 2.41

    def test_alpha_identity(self):
        # Defining identity: (3/4)^α = 1/2.
        assert (3 / 4) ** bounds.ALPHA == pytest.approx(0.5)


class TestLemmaBounds:
    def test_lemma6(self):
        assert bounds.lemma6_rounds(1) == 1
        assert bounds.lemma6_rounds(3) == 2
        assert bounds.lemma6_rounds(7) == 3
        assert bounds.lemma6_probability(1) == pytest.approx(
            1 / (2 * math.e)
        )
        with pytest.raises(ValueError):
            bounds.lemma6_probability(0)

    def test_lemma7(self):
        # Σ 1/(2k) with many tiny k saturates the min at 1 → 1/5.
        assert bounds.lemma7_probability([1] * 10) == pytest.approx(0.2)
        assert bounds.lemma7_probability([4]) == pytest.approx(0.2 / 8)
        with pytest.raises(ValueError):
            bounds.lemma7_probability([])

    def test_theorem12(self):
        assert bounds.theorem12_round_bound(1024, 8) == pytest.approx(
            24 * math.e * 8 * 10
        )
        assert bounds.theorem12_round_bound(1, 5) == 0.0


class TestBudgets:
    def test_monotone_in_n(self):
        assert budgets.clique_budget(1024) > budgets.clique_budget(64)
        assert budgets.gnp_budget(1024) > budgets.gnp_budget(64)

    def test_trivial_graphs(self):
        assert budgets.clique_budget(1) == 1
        assert budgets.recommended_budget(path_graph(1)) == 1

    def test_recommended_uses_clique_bound_for_cliques(self):
        g = complete_graph(256)
        assert budgets.recommended_budget(g) == budgets.clique_budget(256)

    def test_recommended_tree_uses_arboricity(self):
        g = random_tree(256, rng=0)
        assert budgets.recommended_budget(g) == budgets.arboricity_budget(
            256, 1
        )

    def test_recommended_three_color_at_least_switch_scale(self):
        g = gnp_random_graph(256, 0.3, rng=1)
        b2 = budgets.recommended_budget(g, "2-state")
        b3 = budgets.recommended_budget(g, "3-color")
        assert b3 >= b2

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            budgets.recommended_budget(path_graph(5), "4-state")

    def test_budgets_are_sufficient_in_practice(self):
        # The whole point: a recommended budget virtually never fails.
        from repro.core.two_state import TwoStateMIS
        from repro.sim.montecarlo import estimate_stabilization_time

        g = complete_graph(128)
        stats = estimate_stabilization_time(
            lambda s: TwoStateMIS(g, coins=s),
            trials=20,
            max_rounds=budgets.recommended_budget(g),
            seed=0,
        )
        assert stats.success_rate == 1.0
