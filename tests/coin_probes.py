"""Test doubles for the coin layer, shared across the test modules."""

from __future__ import annotations

from repro.sim.rng import SeededCoins


class CountingCoins(SeededCoins):
    """A :class:`SeededCoins` subclass that counts its per-source draws
    (a stream-position probe).  Being a subclass, it also keeps the row
    draws on their generic, source-by-source path, so its overrides are
    called."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def bits(self, n):
        self.draws += 1
        return super().bits(n)

    def bernoulli(self, n, prob):
        self.draws += 1
        return super().bernoulli(n, prob)
