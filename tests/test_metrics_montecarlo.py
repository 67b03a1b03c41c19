"""Tests for repro.sim.montecarlo."""

import numpy as np
import pytest

from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import complete_graph
from repro.sim.montecarlo import TrialStats, estimate_stabilization_time


class TestTrialStats:
    def make(self, times, failures=0):
        return TrialStats(
            times=np.array(times, dtype=np.int64),
            failures=failures,
            max_rounds=1000,
        )

    def test_basic_stats(self):
        stats = self.make([10, 20, 30])
        assert stats.trials == 3
        assert stats.mean == 20
        assert stats.median == 20
        assert stats.max == 30
        assert stats.min == 10
        assert stats.success_rate == 1.0

    def test_failures_counted(self):
        stats = self.make([10], failures=3)
        assert stats.trials == 4
        assert stats.success_rate == 0.25

    def test_empty_times(self):
        stats = self.make([], failures=2)
        assert np.isnan(stats.mean)
        assert stats.max == -1
        assert "0/2" in stats.summary()

    def test_quantile_and_ci(self):
        stats = self.make(list(range(1, 101)))
        assert stats.quantile(0.5) == pytest.approx(50.5)
        lo, hi = stats.mean_ci()
        assert lo < stats.mean < hi

    def test_ci_degenerate(self):
        stats = self.make([5])
        assert stats.mean_ci() == (5.0, 5.0)

    def test_summary_contains_key_fields(self):
        text = self.make([1, 2, 3]).summary()
        assert "mean=" in text and "median=" in text


class TestEstimation:
    def test_estimate_on_clique(self):
        stats = estimate_stabilization_time(
            lambda s: TwoStateMIS(complete_graph(16), coins=s),
            trials=10,
            max_rounds=10_000,
            seed=0,
        )
        assert stats.success_rate == 1.0
        assert stats.mean > 0

    def test_estimate_reproducible(self):
        def factory(s):
            return TwoStateMIS(complete_graph(12), coins=s)

        a = estimate_stabilization_time(factory, 8, 10_000, seed=1)
        b = estimate_stabilization_time(factory, 8, 10_000, seed=1)
        assert np.array_equal(a.times, b.times)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            estimate_stabilization_time(lambda s: None, 0, 10)

    def test_budget_failures_reported(self):
        stats = estimate_stabilization_time(
            lambda s: TwoStateMIS(
                complete_graph(24), coins=s, init="all_black"
            ),
            trials=5,
            max_rounds=1,
            seed=2,
        )
        assert stats.failures > 0
