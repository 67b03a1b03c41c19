"""Coin sources: the randomness discipline of §2.1.

The paper's analysis flips, at the beginning of every round t and for every
vertex u, an independent fair coin φ_t(u); only active vertices consume
their coin.  We mirror that exactly: every process draws a full length-n
coin array per round from a :class:`CoinSource`, in a fixed documented
order.  This makes the pure-python reference implementations and the
vectorized engines trajectory-identical under a shared seed, and lets the
test suite feed scripted (deterministic) coin streams.

:class:`SeededCoins` is a counter-based stream in the style of Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11): every coin is
a pure function of ``(key, draw, vertex)``.  With ``mix64`` the splitmix64
finaliser and ``γ = 0x9e3779b97f4a7c15`` (all arithmetic mod 2⁶⁴), draw
number ``d`` (0-based, one per ``bits`` / ``bits_into`` / ``bernoulli``
call) uses ``base = mix64(key ^ mix64((d + 1) · γ))``, and

* ``bits(n)``: vertex ``v`` gets bit ``v & 63`` of
  ``mix64(base + ((v >> 6) + 1) · γ)`` — one hash per 64 vertices, and
  ``bits(n)[:m]`` equals ``bits(m)`` at the same draw;
* ``bernoulli(n, p)``: vertex ``v`` is ``True`` iff
  ``mix64(base + (v + 1) · γ) >> 11 < p · 2⁵³`` (exact at p = 0 and 1).

The whole stream state is ``(key, draw)`` (:attr:`SeededCoins.state`),
which is what checkpoints journal.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence

import numpy as np

#: splitmix64's Weyl increment (2⁶⁴ / φ, odd).
GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
# The vectorised path's operands as numpy scalars, built once: building
# them per call costs about a quarter of a small draw.
_U_M1, _U_M2 = np.uint64(_M1), np.uint64(_M2)
_U_30, _U_27, _U_31, _U_11 = (np.uint64(k) for k in (30, 27, 31, 11))

#: Identity of the :class:`SeededCoins` stream; journals fingerprint it so
#: a checkpoint never resumes on a different stream.
COIN_STREAM = "splitmix64-counter/1"


def mix64(z: int) -> int:
    """The splitmix64 finaliser on a Python int (taken mod 2⁶⁴)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


#: Up to this many hashes per draw, Python ints beat numpy's per-call
#: overhead (about 0.5 µs a hash against ~10 µs for the ufunc chain).
_SCALAR_HASHES = 8


@functools.lru_cache(maxsize=8)
def _offsets(count: int) -> np.ndarray:
    """Read-only ``i · γ mod 2⁶⁴`` for ``i = 1..count``."""
    offsets = np.arange(1, count + 1, dtype=np.uint64)
    offsets *= np.uint64(GAMMA)
    offsets.flags.writeable = False
    return offsets


def _hashes(base: int, count: int) -> np.ndarray:
    """``mix64(base + i · γ)`` for ``i = 1..count``, as a fresh uint64 array."""
    if count <= _SCALAR_HASHES:
        return np.array(
            [mix64(base + i * GAMMA) for i in range(1, count + 1)],
            dtype=np.uint64,
        )
    z = _offsets(count) + np.uint64(base)
    t = np.empty_like(z)
    np.right_shift(z, _U_30, out=t)
    z ^= t
    z *= _U_M1
    np.right_shift(z, _U_27, out=t)
    z ^= t
    z *= _U_M2
    np.right_shift(z, _U_31, out=t)
    z ^= t
    return z


class CoinSource:
    """Abstract source of per-round coin arrays.

    Concrete implementations: :class:`SeededCoins` (counter-based) and
    :class:`ScriptedCoins` (deterministic, for tests).
    """

    def bits(self, n: int) -> np.ndarray:
        """``n`` independent fair coin flips as a boolean array.

        ``True`` plays the role of "black" for φ_t(u) draws.
        """
        raise NotImplementedError

    def bits_into(self, out: np.ndarray) -> np.ndarray:
        """:meth:`bits` written into a caller-provided boolean row.

        Consumes exactly the same draw as ``bits(len(out))`` — for hot
        loops that drain many sources per round into one matrix (the
        batched engines' φ_t assembly).
        """
        out[...] = self.bits(out.shape[0])
        return out

    def bernoulli(self, n: int, prob: float) -> np.ndarray:
        """``n`` independent Bernoulli(prob) draws as a boolean array."""
        raise NotImplementedError


class SeededCoins(CoinSource):
    """Counter-based coin source: each coin is a pure function of
    ``(key, draw, vertex)`` (see the module docstring for the formula).

    Parameters
    ----------
    seed:
        An integer seed or ``None`` (key =
        ``SeedSequence(seed).generate_state(1, np.uint64)[0]``), or a
        numpy ``Generator`` (key = one ``random_raw()`` draw from its
        bit generator, so graph generation and coins may share one).
    """

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        if isinstance(seed, np.random.Generator):
            key = int(seed.bit_generator.random_raw())
        else:
            key = int(
                np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
            )
        self._key = key
        self._draw = 0

    @classmethod
    def from_state(cls, state: Mapping[str, int]) -> "SeededCoins":
        """The stream positioned at a saved :attr:`state`."""
        coins = cls.__new__(cls)
        coins._key = int(state["key"]) & _MASK
        coins._draw = int(state["draw"])
        return coins

    @property
    def state(self) -> dict[str, int]:
        """``{"key", "draw"}``: everything the stream's future depends on."""
        return {"key": self._key, "draw": self._draw}

    def _next_base(self) -> int:
        base = mix64(self._key ^ mix64((self._draw + 1) * GAMMA))
        self._draw += 1
        return base

    def bits(self, n: int) -> np.ndarray:
        words = _hashes(self._next_base(), -(-n // 64))
        return np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8),
            bitorder="little",
            count=n,
        ).view(np.bool_)

    def bits_into(self, out: np.ndarray) -> np.ndarray:
        # Same as the inherited one, but defined on this class so
        # perfbench's tracer finds it here; self.bits keeps a subclass's
        # override (counting, ...) in force.
        np.copyto(out, self.bits(out.shape[0]))
        return out

    def bernoulli(self, n: int, prob: float) -> np.ndarray:
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {prob}")
        words = _hashes(self._next_base(), n)
        words >>= _U_11
        # x < p·2⁵³ ⟺ x < ⌈p·2⁵³⌉ for integer x; p·2⁵³ is exact in float.
        return words < np.uint64(math.ceil(prob * 2.0**53))


class ScriptedCoins(CoinSource):
    """Deterministic coin source replaying pre-scripted arrays.

    Each call to :meth:`bits` or :meth:`bernoulli` pops the next script
    entry (in call order).  Used by tests to drive processes through
    exact trajectories.

    Parameters
    ----------
    script:
        Sequence of boolean arrays (or sequences coercible to them), one
        per expected draw, in order.
    """

    def __init__(self, script: Sequence[Sequence[bool]]) -> None:
        self._script = [np.asarray(a, dtype=bool) for a in script]
        self._pos = 0

    def _next(self, n: int) -> np.ndarray:
        if self._pos >= len(self._script):
            raise IndexError(
                f"scripted coins exhausted after {self._pos} draws"
            )
        arr = self._script[self._pos]
        if arr.shape != (n,):
            raise ValueError(
                f"scripted draw {self._pos} has shape {arr.shape}, "
                f"expected ({n},)"
            )
        self._pos += 1
        return arr

    def bits(self, n: int) -> np.ndarray:
        return self._next(n)

    def bernoulli(self, n: int, prob: float) -> np.ndarray:
        return self._next(n)

    @property
    def draws_consumed(self) -> int:
        """Number of script entries consumed so far."""
        return self._pos


def as_coin_source(
    coins: CoinSource | int | np.random.Generator | None,
) -> CoinSource:
    """Coerce seeds / generators / sources to a :class:`CoinSource`."""
    if isinstance(coins, CoinSource):
        return coins
    return SeededCoins(coins)


def spawn_seeds(seed: int | None, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from a master seed.

    Uses ``numpy.random.SeedSequence`` spawning, so trials in a
    Monte-Carlo campaign are statistically independent and reproducible.
    """
    seq = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(count)]


def spawn_coin_sources(seed: int | None, count: int) -> list[SeededCoins]:
    """``count`` independent :class:`SeededCoins` streams from a master seed.

    Convenience for building one coin stream per trial/replica by hand
    (e.g. when constructing a process list for
    :func:`repro.sim.runner.run_many_until_stable` directly, outside the
    factory-based Monte-Carlo entry points): ``spawn_coin_sources(seed,
    count)[r]`` draws exactly what a process seeded with
    ``spawn_seeds(seed, count)[r]`` would.
    """
    return [SeededCoins(s) for s in spawn_seeds(seed, count)]
