"""Cross-module integration tests.

These exercise whole pipelines the way the experiments and examples do:
graph generation → process → runner → verification → statistics, plus
the experiment registry end-to-end in ultra-fast settings.
"""

import math

import numpy as np
import pytest

from repro import (
    ThreeColorMIS,
    ThreeStateMIS,
    TwoStateMIS,
    assert_valid_mis,
    complete_graph,
    disjoint_cliques,
    gnp_random_graph,
    random_tree,
    run_until_stable,
    estimate_stabilization_time,
)
from repro.baselines.greedy import greedy_mis
from repro.core.reference import ReferenceTwoState
from repro.core.switch import OracleSwitch
from repro.models.faults import FaultInjectionCampaign, RandomCorruption


class TestEndToEndPipelines:
    def test_gnp_pipeline_all_processes(self):
        g = gnp_random_graph(120, 0.05, rng=0)
        for cls, kwargs in (
            (TwoStateMIS, {}),
            (ThreeStateMIS, {}),
            (ThreeColorMIS, {"a": 8.0}),
        ):
            proc = cls(g, coins=1, **kwargs)
            result = run_until_stable(proc, max_rounds=200_000)
            assert result.stabilized
            assert_valid_mis(g, result.mis)

    def test_mis_size_comparable_to_greedy(self):
        # The process MIS and greedy MIS differ but live in the same
        # ballpark (within 2x on sparse G(n,p)); a gross mismatch would
        # indicate a semantics bug.
        g = gnp_random_graph(300, 0.02, rng=2)
        greedy_size = len(greedy_mis(g))
        result = run_until_stable(TwoStateMIS(g, coins=3))
        process_size = len(result.mis)
        assert greedy_size / 2 <= process_size <= 2 * greedy_size

    def test_disjoint_cliques_mis_one_per_component(self):
        g = disjoint_cliques(6, 5)
        result = run_until_stable(TwoStateMIS(g, coins=4))
        assert len(result.mis) == 6
        # Exactly one per clique block.
        blocks = {int(v) // 5 for v in result.mis}
        assert len(blocks) == 6

    def test_trace_statistics_consistency(self):
        g = gnp_random_graph(100, 0.05, rng=5)
        result = run_until_stable(
            TwoStateMIS(g, coins=6), record_trace=True
        )
        unstable = result.trace.unstable_counts
        assert unstable[0] <= 100
        assert unstable[-1] == 0
        # Rounds at which |V_t| first drops to |V_0|/2, |V_0|/4, ...
        # are nondecreasing.
        halvings = []
        target = unstable[0] / 2.0
        for t, value in enumerate(unstable):
            while value <= target and target >= 1:
                halvings.append(t)
                target /= 2.0
        assert halvings == sorted(halvings)

    def test_montecarlo_tree_vs_clique_ordering(self):
        # Trees (Theorem 11, O(log n)) should stabilize no slower than
        # same-size cliques only modestly; the real check is both are
        # far below n.
        n = 256
        tree_stats = estimate_stabilization_time(
            lambda s: TwoStateMIS(random_tree(n, rng=s), coins=s + 1),
            trials=8, max_rounds=100_000, seed=0,
        )
        clique_stats = estimate_stabilization_time(
            lambda s: TwoStateMIS(complete_graph(n), coins=s),
            trials=8, max_rounds=100_000, seed=1,
        )
        assert tree_stats.mean < n / 4
        assert clique_stats.mean < n / 4


class TestSharedCoinsAcrossImplementations:
    def test_beeping_is_the_abstract_process(self):
        g = gnp_random_graph(60, 0.08, rng=7)
        abstract = TwoStateMIS(g, coins=99)
        beeping = ReferenceTwoState(g, coins=99)
        result_a = run_until_stable(abstract, max_rounds=100_000)
        result_b = run_until_stable(beeping, max_rounds=100_000)
        assert result_a.stabilization_round == result_b.stabilization_round
        assert np.array_equal(result_a.mis, result_b.mis)


class TestThreeColorWithOracle:
    def test_oracle_switch_period_controls_gray_dwell(self):
        # With a long off period, gray vertices dwell; with always-on,
        # gray drains immediately.
        g = complete_graph(12)
        slow = ThreeColorMIS(
            g, coins=1, init="all_gray",
            switch=OracleSwitch(12, on_run=1, off_run=50),
        )
        fast = ThreeColorMIS(
            g, coins=1, init="all_gray",
            switch=OracleSwitch(12, on_run=1, off_run=0),
        )
        fast.step()
        assert not fast.gray_mask().any()
        slow.step()  # oracle starts "on" at round 0... step consumes it
        # After the first on-round the slow switch goes off for 50
        # rounds; fill with gray again and verify dwell.
        slow.corrupt(np.full(12, 1, dtype=np.int8))  # GRAY
        slow.step(10)
        assert slow.gray_mask().any()


class TestFaultRecoveryIntegration:
    def test_recovery_statistics(self):
        g = gnp_random_graph(80, 0.06, rng=8)
        campaign = FaultInjectionCampaign(
            lambda s: TwoStateMIS(g, coins=s),
            corruption=RandomCorruption(0.5),
            injections=2,
            max_rounds=100_000,
        )
        summary = campaign.run(trials=5, seed=3)
        assert summary["failures"] == 0
        # Recovery from 50% corruption should be at most ~ a cold start
        # plus noise.
        assert summary["recovery_mean"] <= 3 * summary["cold_mean"] + 10


class TestExperimentRegistryEndToEnd:
    @pytest.mark.parametrize("eid", ["E9", "E7", "E8"])
    def test_cheap_experiments_pass(self, eid):
        from repro.experiments.registry import run_experiment

        result = run_experiment(eid, fast=True, seed=0)
        assert result.passed, result.report()

    def test_experiment_report_renders(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("E9", fast=True, seed=1)
        text = result.report()
        assert "Lemma 6" in text


class TestScalingSmoke:
    def test_large_sparse_graph_fast_backend(self):
        # 20k vertices, sparse: must finish quickly via the CSR backend.
        n = 20_000
        g = gnp_random_graph(n, 3.0 / n, rng=9)
        result = run_until_stable(
            TwoStateMIS(g, coins=10), max_rounds=10_000
        )
        assert result.stabilized
        assert_valid_mis(g, result.mis)

    def test_budgets_match_theory(self):
        # K_n stabilization within ~log² n: generous constant, tiny
        # failure probability.
        n = 512
        budget = 40 * int(math.log(n)) ** 2
        stats = estimate_stabilization_time(
            lambda s: TwoStateMIS(complete_graph(n), coins=s),
            trials=10, max_rounds=budget, seed=4,
        )
        assert stats.success_rate == 1.0
