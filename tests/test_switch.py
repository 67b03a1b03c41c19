"""Tests for the logarithmic switch (Definitions 25/26, Lemma 27)."""

import math

import numpy as np
import pytest

from repro.core.switch import (
    OracleSwitch,
    RandomizedLogSwitch,
    SwitchTraceAnalyzer,
)
from repro.graphs.generators import complete_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.rng import ScriptedCoins


class TestRandomizedSwitchRule:
    def test_level_zero_resets_to_five(self):
        switch = RandomizedLogSwitch(
            Graph(1), coins=ScriptedCoins([[False]]),
            zeta=0.5, init=np.array([0], dtype=np.int8),
        )
        switch.step()
        assert switch.levels[0] == 5

    def test_level_five_stays_on_b_one(self):
        # bernoulli draw False → b=1 → stay at 5.
        switch = RandomizedLogSwitch(
            Graph(1), coins=ScriptedCoins([[False]]),
            zeta=0.5, init=np.array([5], dtype=np.int8),
        )
        switch.step()
        assert switch.levels[0] == 5

    def test_level_five_descends_on_b_zero(self):
        # bernoulli draw True → b=0 → level = max(N+) - 1 = 4.
        switch = RandomizedLogSwitch(
            Graph(1), coins=ScriptedCoins([[True]]),
            zeta=0.5, init=np.array([5], dtype=np.int8),
        )
        switch.step()
        assert switch.levels[0] == 4

    def test_mid_level_follows_neighborhood_max(self):
        g = Graph(2, [(0, 1)])
        switch = RandomizedLogSwitch(
            g, coins=ScriptedCoins([[False, False]]),
            zeta=0.5, init=np.array([2, 4], dtype=np.int8),
        )
        switch.step()
        # Vertex 0: max(2, 4) - 1 = 3; vertex 1: max(4, 2) - 1 = 3.
        assert switch.levels.tolist() == [3, 3]

    def test_isolated_vertex_counts_down(self):
        switch = RandomizedLogSwitch(
            Graph(1), coins=ScriptedCoins([[False]] * 4),
            zeta=0.5, init=np.array([4], dtype=np.int8),
        )
        levels = []
        for _ in range(4):
            switch.step()
            levels.append(int(switch.levels[0]))
        assert levels == [3, 2, 1, 0]

    def test_sigma_mapping(self):
        g = Graph(6)
        switch = RandomizedLogSwitch(
            g, coins=0, zeta=0.5,
            init=np.array([0, 1, 2, 3, 4, 5], dtype=np.int8),
        )
        assert switch.sigma().tolist() == [
            True, True, True, False, False, False
        ]

    def test_zeta_validation(self):
        with pytest.raises(ValueError):
            RandomizedLogSwitch(Graph(1), zeta=0.0)
        with pytest.raises(ValueError):
            RandomizedLogSwitch(Graph(1), zeta=0.7)

    def test_init_strings(self):
        g = Graph(3)
        assert np.all(
            RandomizedLogSwitch(g, coins=0, init="all_zero").levels == 0
        )
        assert np.all(
            RandomizedLogSwitch(g, coins=0, init="all_five").levels == 5
        )

    def test_corrupt(self):
        switch = RandomizedLogSwitch(Graph(3), coins=0, init="all_five")
        switch.corrupt(np.array([0, 1, 2], dtype=np.int8))
        assert switch.levels.tolist() == [0, 1, 2]
        with pytest.raises(ValueError):
            switch.corrupt(np.array([0, 1, 9], dtype=np.int8))

    def test_levels_always_valid(self):
        g = gnp_random_graph(30, 0.2, rng=1)
        switch = RandomizedLogSwitch(g, coins=2, zeta=0.25)
        for _ in range(200):
            switch.step()
            assert switch.levels.min() >= 0
            assert switch.levels.max() <= 5


class TestSwitchSynchronization:
    def test_clique_synchronizes(self):
        # On diam <= 2 graphs, after a constant prefix all vertices hit
        # level <= 2 simultaneously (the Lemma 27 argument).
        g = complete_graph(20)
        switch = RandomizedLogSwitch(g, coins=3, zeta=0.25)
        switch_rounds = 0
        for t in range(300):
            switch.step()
            if t >= 10:
                sig = switch.sigma()
                assert sig.all() or (~sig).any()  # trivially true...
                # The real check: on-values appear for all or none.
                if sig.any():
                    assert sig.all()
                    switch_rounds += 1
        assert switch_rounds > 0  # the switch does turn on sometimes

    def test_on_runs_bounded_on_clique(self):
        g = complete_graph(16)
        switch = RandomizedLogSwitch(g, coins=5, zeta=0.25)
        analyzer = SwitchTraceAnalyzer()
        for _ in range(400):
            analyzer.record(switch.sigma())
            switch.step()
        report = analyzer.analyze(a=16.0, n=16, diam_le_2=True, skip_prefix=20)
        assert report["s3_holds"], report


class TestOracleSwitch:
    def test_periodic_schedule(self):
        switch = OracleSwitch(3, on_run=2, off_run=3)
        pattern = []
        for _ in range(10):
            pattern.append(bool(switch.sigma()[0]))
            switch.step()
        assert pattern == [True, True, False, False, False] * 2

    def test_stagger(self):
        switch = OracleSwitch(2, on_run=1, off_run=1, stagger=1)
        sig = switch.sigma()
        assert sig[0] != sig[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleSwitch(2, on_run=0)


class TestTraceAnalyzer:
    def test_runs_encoding(self):
        seq = np.array([True, True, False, True, False, False])
        runs = SwitchTraceAnalyzer._runs(seq)
        assert runs == [(True, 2), (False, 1), (True, 1), (False, 2)]

    def test_vertex_stats(self):
        analyzer = SwitchTraceAnalyzer()
        pattern = [True, False, False, True, True, False, True]
        for value in pattern:
            analyzer.record(np.array([value]))
        stats = analyzer.vertex_stats(0)
        assert stats.max_off_run == 2
        # Trailing off-run (len 1 before final True): min completed
        # off-run after first on is 2 (positions 1-2)? The off-run at
        # position 5 has length 1 and is followed by True → completed.
        assert stats.min_off_run_after_first_on == 1
        assert stats.max_on_run_after_prefix == 2

    def test_analyze_requires_rounds(self):
        with pytest.raises(RuntimeError):
            SwitchTraceAnalyzer().analyze(a=8, n=4, diam_le_2=False)

    def test_s1_violation_detected(self):
        analyzer = SwitchTraceAnalyzer()
        n_rounds = 60
        for _ in range(n_rounds):
            analyzer.record(np.array([False]))  # permanently off
        report = analyzer.analyze(a=8.0, n=4, diam_le_2=False, skip_prefix=0)
        # Bound is 8 ln 4 ≈ 11 < 60: S1 must fail.
        assert not report["s1_holds"]


class TestLemma27EndToEnd:
    def test_s1_on_path(self):
        n = 48
        g = path_graph(n)
        zeta = 0.25
        switch = RandomizedLogSwitch(g, coins=7, zeta=zeta)
        analyzer = SwitchTraceAnalyzer()
        rounds = 4 * int((4 / zeta) * math.log(n))
        for _ in range(rounds):
            analyzer.record(switch.sigma())
            switch.step()
        report = analyzer.analyze(a=4 / zeta, n=n, diam_le_2=False)
        assert report["s1_holds"], report

    def test_s1_s2_s3_on_clique(self):
        # S2 holds only w.h.p.: on K_n an off-run is 2 + the max of n
        # Geometric(ζ) level-5 stays, and it must reach (a/6) ln n.  At
        # n = 32 a ~330-round trace violates that with probability ≈ 1/4
        # (about a quarter of seeds 0-99 do), so a fixed seed there only
        # tests luck.  At n = 256 the per-trace failure probability is
        # ≈ 0.5%, and seeds 0-199 all pass.
        n = 256
        zeta = 0.25
        g = complete_graph(n)
        switch = RandomizedLogSwitch(g, coins=9, zeta=zeta)
        analyzer = SwitchTraceAnalyzer()
        rounds = 6 * int((4 / zeta) * math.log(n))
        for _ in range(rounds):
            analyzer.record(switch.sigma())
            switch.step()
        report = analyzer.analyze(a=4 / zeta, n=n, diam_le_2=True)
        assert report["s1_holds"], report
        assert report["s2_holds"], report
        assert report["s3_holds"], report
