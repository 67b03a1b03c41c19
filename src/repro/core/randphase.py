"""The RandPhase phase clock of Emek-Keren [12], generalized over D.

§1.2 and §5.1 explain that the logarithmic switch's core mechanism "is
identical to that of RandPhase for D = 3 (not 2!)" — RandPhase being the
self-stabilizing phase-clock sub-process of [12], parameterized by an
upper bound D on the graph diameter and using D + 3 states.

This module implements the general-D clock.  With D = 3 it coincides
state-for-state with :class:`repro.core.switch.RandomizedLogSwitch`
(tested), which documents precisely how the paper reuses the mechanism:
*not* as a synchronizer (the graph diameter may exceed D), but as a
local counter whose on/off dwell times are what Lemma 27 needs.

Rule (levels 0..D+2, top = D+2):

* a vertex at the top level stays there with probability 1 - ζ;
* a vertex at level 0, or a top-level vertex whose coin fires, resets
  to the top;
* every other vertex moves to ``max(level over N+(u)) - 1``.

On graphs of diameter <= D, once some vertex resets to the top, all
vertices synchronize within a constant number of rounds and then march
through levels D-1, ..., 1, 0 in lockstep — phases of expected length
D + Θ_ζ(log n).
"""

from __future__ import annotations

import numpy as np

from repro.core.neighbor_ops import NeighborOps, make_neighbor_ops
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, as_coin_source


class RandPhaseClock:
    """General-D RandPhase phase clock (D + 3 states per vertex).

    Parameters
    ----------
    graph:
        Underlying graph.
    d:
        The clock's diameter parameter D >= 1.  Synchronization is
        guaranteed only when ``diam(graph) <= d``; the paper's insight
        is that the clock remains *useful* (as a local counter) even
        when it is not.
    coins:
        Coin source; one ``bernoulli(n, ζ)`` draw per round.
    zeta:
        Top-level reset probability, ζ ∈ (0, 1/2].
    init:
        Initial levels (ints in 0..D+2), ``"all_top"``, ``"all_zero"``,
        or ``None`` for pseudo-random levels.
    """

    def __init__(
        self,
        graph: Graph,
        d: int,
        coins: CoinSource | int | np.random.Generator | None = None,
        zeta: float = 0.125,
        init: np.ndarray | str | None = None,
        ops: NeighborOps | None = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"D must be >= 1, got {d}")
        if not 0.0 < zeta <= 0.5:
            raise ValueError(f"zeta must be in (0, 1/2], got {zeta}")
        self.graph = graph
        self.n = graph.n
        self.d = int(d)
        self.top = self.d + 2
        self.zeta = float(zeta)
        self.coins = as_coin_source(coins)
        self.ops = ops if ops is not None else make_neighbor_ops(graph)
        self.levels = self._resolve_init(init)
        self.round = 0

    @property
    def state_count(self) -> int:
        """Number of per-vertex states: D + 3."""
        return self.top + 1

    def _resolve_init(self, init: np.ndarray | str | None) -> np.ndarray:
        if init is None or (isinstance(init, str) and init == "random"):
            # Derive pseudo-random levels from coin bits (enough bits to
            # cover 0..top; fold overflow).
            bits_needed = max(1, int(np.ceil(np.log2(self.top + 1))))
            raw = np.zeros(self.n, dtype=np.int64)
            for b in range(bits_needed):
                raw += self.coins.bits(self.n).astype(np.int64) << b  # repro-lint: disable=coin-purity (documented init-time draw)
            raw %= self.top + 1
            return raw.astype(np.int16)
        if isinstance(init, str):
            if init == "all_top":
                return np.full(self.n, self.top, dtype=np.int16)
            if init == "all_zero":
                return np.zeros(self.n, dtype=np.int16)
            raise ValueError(f"unknown init spec {init!r}")
        arr = np.asarray(init)
        if arr.shape != (self.n,):
            raise ValueError(
                f"levels must have shape ({self.n},), got {arr.shape}"
            )
        if arr.min(initial=0) < 0 or arr.max(initial=0) > self.top:
            raise ValueError(f"levels must lie in 0..{self.top}")
        return arr.astype(np.int16)

    def step(self) -> None:
        """One synchronous round of the clock."""
        levels = self.levels
        at_top = levels == self.top
        at_zero = levels == 0
        reset_coin = self.coins.bernoulli(self.n, self.zeta)
        stay_top = at_top & ~reset_coin
        reset = stay_top | at_zero
        nbr_max = self.ops.max_closed(levels)
        self.levels = np.where(
            reset, self.top, np.maximum(nbr_max - 1, 0)
        ).astype(np.int16)
        self.round += 1

    def phase_indicator(self) -> np.ndarray:
        """Boolean array: vertices currently in the counting band
        (level <= D - 1), the analogue of the switch's ``on``."""
        return self.levels <= self.d - 1

    def is_synchronized(self) -> bool:
        """Whether all vertices share one level (lockstep marching)."""
        return bool((self.levels == self.levels[0]).all())


def phase_lengths(clock: RandPhaseClock, rounds: int) -> list[int]:
    """Run the clock and measure global phase lengths.

    A *phase boundary* is a round where all vertices sit at the top
    level simultaneously after a reset.  Returns the gaps between
    consecutive boundaries observed within ``rounds`` — on diameter <= D
    graphs these are the D + Θ(log n) phases of [12].
    """
    boundaries: list[int] = []
    previous_all_top = False
    for t in range(rounds):
        all_top = bool((clock.levels == clock.top).all())
        if all_top and not previous_all_top:
            boundaries.append(t)
        previous_all_top = all_top
        clock.step()
    return [b - a for a, b in zip(boundaries, boundaries[1:])]
