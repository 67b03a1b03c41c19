"""Tests for repro.sim.stats."""

import numpy as np
import pytest

from repro.sim.stats import mann_whitney_faster, success_rate_ci


class TestMannWhitney:
    def test_detects_clear_separation(self):
        rng = np.random.default_rng(5)
        fast = rng.normal(10, 2, size=200)
        slow = rng.normal(30, 2, size=200)
        result = mann_whitney_faster(fast, slow)
        assert result["faster"]
        assert result["p_value"] < 1e-10

    def test_no_false_positive_on_identical(self):
        rng = np.random.default_rng(6)
        a = rng.normal(10, 2, size=200)
        b = rng.normal(10, 2, size=200)
        result = mann_whitney_faster(a, b)
        assert not result["faster"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_faster(np.array([]), np.array([1.0]))


class TestWilson:
    def test_perfect_success_not_degenerate(self):
        lo, hi = success_rate_ci(100, 100)
        assert hi == 1.0
        assert 0.9 < lo < 1.0

    def test_half(self):
        lo, hi = success_rate_ci(50, 100)
        assert lo < 0.5 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            success_rate_ci(5, 0)
        with pytest.raises(ValueError):
            success_rate_ci(11, 10)
