"""Tests for repro.sim.metrics and repro.sim.montecarlo."""

import numpy as np
import pytest

from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import complete_graph, path_graph
from repro.sim.metrics import (
    ProgressCurve,
    empirical_decay_rate,
    progress_curve,
    stabilization_profile,
)
from repro.sim.montecarlo import (
    SweepResult,
    TrialStats,
    estimate_stabilization_time,
    sweep_stabilization_times,
)
from repro.sim.runner import run_until_stable


class TestProgressCurve:
    def test_halving_times(self):
        curve = ProgressCurve(np.array([16, 8, 8, 4, 1, 0]))
        # Targets: 8 at t=1, 4 at t=3, 2 at t=4, 1 at t=4.
        assert curve.halving_times() == [1, 3, 4, 4]

    def test_decay_rate_geometric(self):
        curve = ProgressCurve(np.array([100, 50, 25, 12.5]))
        assert curve.decay_rate() == pytest.approx(0.5)

    def test_decay_rate_degenerate(self):
        assert ProgressCurve(np.array([5])).decay_rate() == 0.0
        assert ProgressCurve(np.array([], dtype=np.int64)).decay_rate() == 0.0

    def test_from_trace(self):
        result = run_until_stable(
            TwoStateMIS(complete_graph(16), coins=1), record_trace=True
        )
        curve = progress_curve(result.trace)
        assert curve.unstable[-1] == 0
        assert curve.rounds == result.rounds_executed + 1


class TestStabilizationProfile:
    def test_profile_monotone_meaning(self):
        times = stabilization_profile(
            lambda: TwoStateMIS(path_graph(20), coins=3), max_rounds=10_000
        )
        assert times.shape == (20,)
        assert (times >= 0).all()  # everything stabilizes on a path

    def test_profile_budget(self):
        times = stabilization_profile(
            lambda: TwoStateMIS(
                complete_graph(20), coins=0, init="all_black"
            ),
            max_rounds=0,
        )
        assert (times == -1).all()

    def test_profile_matches_runner(self):
        graph = complete_graph(12)
        times = stabilization_profile(
            lambda: TwoStateMIS(graph, coins=9), max_rounds=10_000
        )
        overall = run_until_stable(TwoStateMIS(graph, coins=9))
        assert times.max() == overall.stabilization_round


class TestEmpiricalDecay:
    def test_decay_rate_below_one(self):
        # On sparse graphs |V_t| decays gradually (on cliques it is
        # all-or-nothing and the rate is exactly 1 until the final drop).
        from repro.graphs.random_graphs import gnp_random_graph

        graph = gnp_random_graph(150, 0.03, rng=11)
        traces = []
        for seed in range(5):
            result = run_until_stable(
                TwoStateMIS(graph, coins=seed), record_trace=True
            )
            traces.append(result.trace)
        rate = empirical_decay_rate(traces)
        assert 0.0 < rate < 1.0

    def test_empty_input(self):
        assert empirical_decay_rate([]) == 0.0


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


class TestSweep:
    def test_sweep_over_ns(self):
        results = sweep_stabilization_times(
            make_factory=lambda n: (
                lambda s: TwoStateMIS(complete_graph(n), coins=s)
            ),
            grid=[8, 16, 32],
            trials=5,
            max_rounds=10_000,
            seed=0,
        )
        assert set(results) == {8, 16, 32}
        assert all(stats.success_rate == 1.0 for stats in results.values())

    def test_sweep_callable_budget(self):
        results = sweep_stabilization_times(
            make_factory=lambda n: (
                lambda s: TwoStateMIS(complete_graph(n), coins=s)
            ),
            grid=[8, 16],
            trials=3,
            max_rounds=lambda n: 100 * n,
            seed=1,
        )
        assert all(s.max_rounds == 100 * n for n, s in results.items())


def _clique_grid_factory(n):
    """Module-level (picklable) make_factory for pool tests."""

    def factory(s):
        return TwoStateMIS(complete_graph(int(n)), coins=s)

    return factory


class TestSweepRegressions:
    """Regression tests for the two verified sweep bugs.

    1. A lambda/closure ``make_factory`` with ``n_jobs >= 2`` used to
       raise ``PicklingError`` from inside the process pool.
    2. ``dict(zip(grid, stats))`` silently collapsed duplicate grid
       points (grid ``[8, 8, 12]`` returned 2 entries).
    """

    def test_lambda_factory_parallelizes_via_fleet_dispatch(self):
        # The sweep shards replicas, not factories: lambdas
        # parallelize with no degradation and no warning.
        kw = dict(
            make_factory=lambda n: (
                lambda s: TwoStateMIS(complete_graph(n), coins=s)
            ),
            grid=[8, 12],
            trials=3,
            max_rounds=10_000,
            seed=7,
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pooled = sweep_stabilization_times(n_jobs=2, **kw)
        solo = sweep_stabilization_times(**kw)
        assert solo.keys() == pooled.keys()
        for point in solo:
            assert np.array_equal(solo[point].times, pooled[point].times)

    def test_picklable_factory_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = sweep_stabilization_times(
                _clique_grid_factory,
                grid=[8, 12],
                trials=2,
                max_rounds=10_000,
                seed=1,
                n_jobs=2,
            )
        assert set(results) == {8, 12}

    def test_duplicate_grid_points_preserved(self):
        with pytest.warns(UserWarning, match="duplicate grid points"):
            results = sweep_stabilization_times(
                make_factory=lambda n: (
                    lambda s: TwoStateMIS(complete_graph(n), coins=s)
                ),
                grid=[8, 8, 12],
                trials=4,
                max_rounds=10_000,
                seed=0,
            )
        # One TrialStats per grid entry, none dropped.
        assert len(results.entries) == 3
        assert [point for point, _ in results.entries] == [8, 8, 12]
        assert len(results.stats_for(8)) == 2
        # Each duplicate entry ran with its own derived seed.
        first, second = results.stats_for(8)
        assert first.trials == second.trials == 4
        # Mapping-style access still works (first occurrence wins).
        assert results[8] is first
        assert set(results) == {8, 12}
        assert len(results) == 2

    def test_unique_grid_behaves_like_dict(self):
        results = sweep_stabilization_times(
            make_factory=lambda n: (
                lambda s: TwoStateMIS(complete_graph(n), coins=s)
            ),
            grid=[8, 16],
            trials=2,
            max_rounds=10_000,
            seed=2,
        )
        assert isinstance(results, SweepResult)
        assert dict(results) == {p: s for p, s in results.entries}
        assert len(results.entries) == len(results) == 2
