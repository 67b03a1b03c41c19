"""Tests for repro.sim.rng."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import (
    GAMMA,
    CoinSource,
    ScriptedCoins,
    SeededCoins,
    as_coin_source,
    mix64,
    spawn_seeds,
)

from coin_probes import CountingCoins


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


#: Sizes around the 64-vertex word boundaries and the scalar cut-over.
_SIZES = st.sampled_from([0, 1, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1000])

#: One source per entry: (kind, seed, draws already taken).
_SOURCES = st.lists(
    st.tuples(
        st.sampled_from(["seeded", "counting", "scripted"]),
        st.integers(0, 2**32),
        st.integers(0, 4),
    ),
    max_size=6,
)


def _twin_sources(specs, n, kinds=None):
    """Two identical, independently advancing lists of sources.

    ``kinds`` overrides every spec's kind.  Scripted sources replay
    random arrays of length ``n``, enough for the pre-draws plus two.
    """

    def build():
        out = []
        for kind, seed, pre in specs:
            kind = kinds or kind
            if kind == "scripted":
                rng = np.random.default_rng(seed)
                source = ScriptedCoins(rng.random((pre + 2, n)) < 0.5)
            elif kind == "counting":
                source = CountingCoins(seed)
            else:
                source = SeededCoins(seed)
            for _ in range(pre):
                source.bits(n)
            out.append(source)
        return out

    return build(), build()


def _positions(sources):
    return [
        s.draws_consumed if isinstance(s, ScriptedCoins) else s.state
        for s in sources
    ]


def _stacked(rows, n):
    return np.array(rows, dtype=bool).reshape(len(rows), n)


class TestRowDraws:
    """The row draws equal the per-source draws, bit for bit, and move
    every source exactly one draw, on the vectorised path (distinct
    plain SeededCoins) and the generic one (anything else)."""

    @settings(max_examples=80, deadline=None)
    @given(_SOURCES, _SIZES, st.sampled_from([None, "seeded"]))
    def test_bits_rows_equals_stacked_bits(self, specs, n, kinds):
        rows, serial = _twin_sources(specs, n, kinds)
        drawn = CoinSource.bits_rows(rows, n)
        assert drawn.dtype == np.bool_ and drawn.shape == (len(rows), n)
        assert np.array_equal(drawn, _stacked([s.bits(n) for s in serial], n))
        assert _positions(rows) == _positions(serial)

    @settings(max_examples=80, deadline=None)
    @given(_SOURCES, _SIZES, st.sampled_from([None, "seeded"]), st.data())
    def test_bits_rows_at_equals_indexed_bits(self, specs, n, kinds, data):
        rows, serial = _twin_sources(specs, n, kinds)
        pairs = []
        if rows and n:
            # Often leaves some rows without a pair: they still draw.
            pairs = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, len(rows) - 1), st.integers(0, n - 1)
                    ),
                    max_size=40,
                )
            )
        at_rows = np.array([r for r, _ in pairs], dtype=np.int64)
        at_verts = np.array([v for _, v in pairs], dtype=np.int64)
        drawn = CoinSource.bits_rows_at(rows, n, at_rows, at_verts)
        full = _stacked([s.bits(n) for s in serial], n)
        assert drawn.dtype == np.bool_ and drawn.shape == (len(pairs),)
        assert np.array_equal(drawn, full[at_rows, at_verts])
        assert _positions(rows) == _positions(serial)

    @settings(max_examples=80, deadline=None)
    @given(_SOURCES, _SIZES, st.sampled_from([None, "seeded"]), st.data())
    def test_bernoulli_rows_equals_per_source(self, specs, n, kinds, data):
        rows, serial = _twin_sources(specs, n, kinds)
        probs = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, 1.0, 0.5]),
                    st.floats(0.0, 1.0),
                ),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        drawn = CoinSource.bernoulli_rows(rows, n, probs)
        expected = [s.bernoulli(n, p) for s, p in zip(serial, probs)]
        assert drawn.dtype == np.bool_ and drawn.shape == (len(rows), n)
        assert np.array_equal(drawn, _stacked(expected, n))
        assert _positions(rows) == _positions(serial)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(0, 300),
        st.sampled_from(["seeded", "subclass", "repeated"]),
        st.integers(0, 2**32),
    )
    def test_bits_words_unpack_to_bits_rows(self, count, n, kind, seed):
        def build():
            rows = [SeededCoins(s) for s in spawn_seeds(seed, count)]
            if kind == "subclass":
                rows[count // 2] = CountingCoins(seed)
            elif kind == "repeated":
                rows[-1] = rows[0]
            return rows

        rows, twin = build(), build()
        words = CoinSource.bits_words(rows, n)
        assert words.dtype == np.uint64 and words.shape == (n, -(-count // 64))
        # Row i is bit i % 64 of word i // 64, little-endian; padding is 0.
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, count:].any()
        assert np.array_equal(bits[:, :count].T, CoinSource.bits_rows(twin, n))
        # One draw per entry: a repeated source takes one per occurrence.
        taken = {}
        for source in rows:
            taken[id(source)] = taken.get(id(source), 0) + 1
        assert [s.state["draw"] for s in rows] == [taken[id(s)] for s in rows]

    def test_row_without_pairs_still_advances(self):
        rows = [SeededCoins(1), SeededCoins(2), SeededCoins(3)]
        CoinSource.bits_rows_at(rows, 100, np.array([0]), np.array([7]))
        assert [s.state["draw"] for s in rows] == [1, 1, 1]
        CoinSource.bits_rows_at(rows, 100, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64))
        assert [s.state["draw"] for s in rows] == [2, 2, 2]

    def test_plain_seeded_rows_take_the_vectorised_path(self, monkeypatch):
        rows = [SeededCoins(s) for s in range(4)]
        expected = _stacked([SeededCoins(s).bits(130) for s in range(4)], 130)

        def refuse(self, n):
            raise AssertionError("per-source draw on the vectorised path")

        monkeypatch.setattr(SeededCoins, "bits", refuse)
        assert np.array_equal(CoinSource.bits_rows(rows, 130), expected)

    def test_subclass_rows_call_the_overrides(self):
        rows = [CountingCoins(5), SeededCoins(6), CountingCoins(7)]
        CoinSource.bits_rows(rows, 70)
        CoinSource.bits_rows_at(rows, 70, np.array([1]), np.array([3]))
        CoinSource.bernoulli_rows(rows, 70, [0.1, 0.2, 0.3])
        assert [rows[0].draws, rows[2].draws] == [3, 3]
        assert [s.state["draw"] for s in rows] == [3, 3, 3]

    def test_repeated_source_draws_its_rows_in_sequence(self):
        coins, twin = SeededCoins(8), SeededCoins(8)
        drawn = CoinSource.bits_rows([coins, coins], 90)
        assert np.array_equal(drawn[0], twin.bits(90))
        assert np.array_equal(drawn[1], twin.bits(90))
        probs = [0.25, 0.75]
        drawn = CoinSource.bernoulli_rows([coins, coins], 90, probs)
        assert np.array_equal(drawn[0], twin.bernoulli(90, 0.25))
        assert np.array_equal(drawn[1], twin.bernoulli(90, 0.75))
        assert coins.state == twin.state

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_bernoulli_rows_validates(self, bad):
        rows = [SeededCoins(0), SeededCoins(1)]
        with pytest.raises(ValueError):
            CoinSource.bernoulli_rows(rows, 10, [0.5, bad])


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
