"""Tests for repro.sim.rng."""

import json
import pickle

import numpy as np
import pytest

from repro.sim.rng import (
    GAMMA,
    ScriptedCoins,
    SeededCoins,
    as_coin_source,
    mix64,
    spawn_seeds,
)


class TestSeededCoins:
    def test_bits_shape_and_dtype(self):
        coins = SeededCoins(0)
        bits = coins.bits(100)
        assert bits.shape == (100,)
        assert bits.dtype == bool

    def test_reproducible(self):
        a = SeededCoins(42).bits(50)
        b = SeededCoins(42).bits(50)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededCoins(1).bits(200)
        b = SeededCoins(2).bits(200)
        assert not np.array_equal(a, b)

    def test_bits_fair(self):
        bits = SeededCoins(3).bits(20_000)
        assert abs(bits.mean() - 0.5) < 0.02

    def test_bernoulli_rate(self):
        draws = SeededCoins(4).bernoulli(20_000, 0.1)
        assert abs(draws.mean() - 0.1) < 0.02

    def test_bernoulli_validates(self):
        with pytest.raises(ValueError):
            SeededCoins(0).bernoulli(10, 1.5)

    def test_generator_seed_takes_one_raw_draw_as_key(self):
        gen = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        coins = SeededCoins(gen)
        assert coins.state == {
            "key": int(twin.bit_generator.random_raw()),
            "draw": 0,
        }
        # The shared generator moved on by exactly that one draw.
        assert gen.random() == twin.random()

    def test_int_seed_key_is_seed_sequence_word(self):
        key = np.random.SeedSequence(9).generate_state(1, np.uint64)[0]
        assert SeededCoins(9).state == {"key": int(key), "draw": 0}


def _base(key, draw):
    return mix64(key ^ mix64((draw + 1) * GAMMA))


def _spin(bits):
    """Booleans as ±1 floats, for correlation estimates."""
    return bits.astype(np.float64) * 2.0 - 1.0


class TestCounterStream:
    """The counter-based stream: formula, lanes, independence, state."""

    def test_mix64_known_values(self):
        # splitmix64 seeded with 0 emits mix64(γ), mix64(2γ), ...
        assert mix64(GAMMA) == 0xE220A8397B1DCDAF
        assert mix64(2 * GAMMA) == 0x6E789E6AA1B965F4
        assert mix64(0) == 0

    # Sizes on both sides of the scalar/vectorised hashing cut-over.
    @pytest.mark.parametrize("n", [1, 200, 1000])
    def test_bits_follow_the_formula(self, n):
        coins = SeededCoins(11)
        key = coins.state["key"]
        coins.bits(7)
        drawn = coins.bits(n)
        base = _base(key, 1)
        expected = [
            (mix64(base + ((v >> 6) + 1) * GAMMA) >> (v & 63)) & 1
            for v in range(n)
        ]
        assert drawn.tolist() == [bool(b) for b in expected]

    @pytest.mark.parametrize("n", [5, 300])
    def test_bernoulli_follows_the_formula(self, n):
        coins = SeededCoins(12)
        key = coins.state["key"]
        drawn = coins.bernoulli(n, 0.3)
        base = _base(key, 0)
        expected = [
            (mix64(base + (v + 1) * GAMMA) >> 11) < 0.3 * 2.0**53
            for v in range(n)
        ]
        assert drawn.tolist() == expected

    def test_every_call_advances_the_draw_counter(self):
        coins = SeededCoins(0)
        coins.bits(5)
        coins.bits_into(np.empty(3, dtype=bool))
        coins.bernoulli(4, 0.5)
        coins.bits(0)
        assert coins.state["draw"] == 4

    def test_bits_into_matches_bits(self):
        a, b = SeededCoins(3), SeededCoins(3)
        out = np.empty(1000, dtype=bool)
        for _ in range(3):
            assert a.bits_into(out) is out
            assert np.array_equal(out, b.bits(1000))

    def test_lane_fairness(self):
        # Every bit position v & 63 of the per-word hash is a fair coin;
        # a bit-order or endianness slip leaves some lane biased.
        coins = SeededCoins(21)
        draws = np.stack([coins.bits(64 * 8) for _ in range(2000)])
        lanes = draws.reshape(-1, 64).mean(axis=0)
        # 16000 samples per lane: SE ≈ 0.004.
        assert np.abs(lanes - 0.5).max() < 0.025

    def test_no_lag1_correlation_across_draws(self):
        coins = SeededCoins(22)
        draws = _spin(np.stack([coins.bits(4096) for _ in range(64)]))
        corr = (draws[1:] * draws[:-1]).mean()
        assert abs(corr) < 0.01  # 258k products: SE ≈ 0.002

    def test_no_lag1_correlation_across_vertices(self):
        coins = SeededCoins(23)
        draws = _spin(np.stack([coins.bits(4096) for _ in range(64)]))
        corr = (draws[:, 1:] * draws[:, :-1]).mean()
        assert abs(corr) < 0.01
        # Across word boundaries too: lane 63 against the next lane 0.
        words = draws.reshape(64, -1, 64)
        edge = (words[:, 1:, 0] * words[:, :-1, 63]).mean()
        assert abs(edge) < 0.05  # 4032 products: SE ≈ 0.016

    def test_no_lag1_correlation_across_spawned_keys(self):
        sources = [SeededCoins(s) for s in spawn_seeds(24, 64)]
        draws = _spin(np.stack([c.bits(4096) for c in sources]))
        corr = (draws[1:] * draws[:-1]).mean()
        assert abs(corr) < 0.01

    @pytest.mark.parametrize(
        "n,m", [(1, 1), (100, 64), (1000, 999), (130, 1), (2000, 100)]
    )
    def test_prefix_property(self, n, m):
        long, short = SeededCoins(5), SeededCoins(5)
        for _ in range(3):
            assert np.array_equal(long.bits(n)[:m], short.bits(m))

    def test_pickle_round_trip_continues_identically(self):
        coins = SeededCoins(31)
        for _ in range(5):
            coins.bits(100)
        clone = pickle.loads(pickle.dumps(coins))
        for _ in range(3):
            assert np.array_equal(clone.bits(257), coins.bits(257))
        assert np.array_equal(
            clone.bernoulli(50, 0.2), coins.bernoulli(50, 0.2)
        )

    def test_state_round_trip(self):
        coins = SeededCoins(32)
        coins.bits(10)
        coins.bernoulli(10, 0.5)
        state = json.loads(json.dumps(coins.state))
        resumed = SeededCoins.from_state(state)
        assert resumed.state == coins.state
        for _ in range(3):
            assert np.array_equal(resumed.bits(300), coins.bits(300))

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 1.0])
    def test_bernoulli_rates(self, p):
        n = 200_000
        draws = SeededCoins(33).bernoulli(n, p)
        assert draws.dtype == bool and draws.shape == (n,)
        if p in (0.0, 1.0):
            assert draws.all() == bool(p) and draws.any() == bool(p)
        else:
            se = np.sqrt(p * (1 - p) / n)
            assert abs(draws.mean() - p) < 5 * se


class TestScriptedCoins:
    def test_replays_in_order(self):
        coins = ScriptedCoins([[True, False], [False, False]])
        assert coins.bits(2).tolist() == [True, False]
        assert coins.bernoulli(2, 0.9).tolist() == [False, False]
        assert coins.draws_consumed == 2

    def test_exhaustion_raises(self):
        coins = ScriptedCoins([[True]])
        coins.bits(1)
        with pytest.raises(IndexError):
            coins.bits(1)

    def test_shape_mismatch_raises(self):
        coins = ScriptedCoins([[True, False]])
        with pytest.raises(ValueError):
            coins.bits(3)


class TestAsCoinSource:
    def test_passthrough(self):
        coins = SeededCoins(0)
        assert as_coin_source(coins) is coins

    def test_seed_coercion(self):
        assert isinstance(as_coin_source(7), SeededCoins)
        assert isinstance(as_coin_source(None), SeededCoins)


class TestSpawnSeeds:
    def test_count_and_reproducibility(self):
        seeds = spawn_seeds(0, 10)
        assert len(seeds) == 10
        assert seeds == spawn_seeds(0, 10)

    def test_distinct(self):
        seeds = spawn_seeds(1, 100)
        assert len(set(seeds)) == 100

    def test_prefix_stability(self):
        # The first k seeds don't depend on the total count.
        assert spawn_seeds(2, 5) == spawn_seeds(2, 10)[:5]
