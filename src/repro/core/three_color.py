"""The 3-color MIS process (Definition 28, Theorem 32).

Two sub-processes run in parallel on the same graph:

1. an (a, 3)-logarithmic switch with a = 512 (we use the randomized
   6-state switch of Definition 26 by default, for 18 states total);
2. a 3-color variant of the 2-state MIS process with states black, white,
   gray, updated each round t >= 1 by::

       let NC_t(u) = {c_{t-1}(v) : v ∈ N(u)}
       if c_{t-1}(u) = black and black ∈ NC_t(u):
           c_t(u) = uniformly random in {black, gray}
       elif c_{t-1}(u) = white and black ∉ NC_t(u):
           c_t(u) = uniformly random in {black, white}
       elif c_{t-1}(u) = gray and σ_{t-1}(u) = on:
           c_t(u) = white
       else:
           c_t(u) = c_{t-1}(u)

Exactly two differences from the 2-state process: a conflicted black
vertex retreats to *gray* (not white), and gray only becomes white when
the vertex's switch is on.  Gray thereby rate-limits white→black
re-entry, which is what makes the dense-G(n,p) analysis go through
(Theorem 32: poly(log n) stabilization for all 0 <= p <= 1).

Coin order per round: the main process draws φ_t = ``bits(n)`` first,
then the switch (if randomized) draws its ``bernoulli(n, ζ)``.  The
switch value used by the color update in round t is σ_{t-1}, i.e. the
value *before* the switch advances — matching Definition 28.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.neighbor_ops import NeighborOps, SparseNeighborOps
from repro.core.process import MISProcess
from repro.core.replica import ReplicaState
from repro.core.states import (
    BLACK,
    GRAY,
    WHITE,
    pack_state,
    unpack_state,
    validate_three_color,
)
from repro.core.switch import (
    DEFAULT_A,
    RandomizedLogSwitch,
    SwitchProcess,
)
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, SeededCoins

#: Bit-planes of a packed switch-level vector (levels 0..5).
_LEVEL_PLANES = 3


def resolve_three_color_init(
    init: np.ndarray | str | None,
    n: int,
    coins: CoinSource,
) -> np.ndarray:
    """Resolve an initial 3-color configuration.

    ``"random"`` draws two bit arrays and maps the four outcomes to
    {black, white, gray, white} — i.e. P[black] = P[gray] = 1/4,
    P[white] = 1/2.  Any distribution is acceptable for an *arbitrary*
    initialization; this one exercises all three states.
    """
    if init is None or (isinstance(init, str) and init == "random"):
        b0 = coins.bits(n)  # repro-lint: disable=coin-purity (documented init-time draw)
        b1 = coins.bits(n)  # repro-lint: disable=coin-purity (documented init-time draw)
        out = np.full(n, WHITE, dtype=np.int8)
        out[b0 & b1] = BLACK
        out[b0 & ~b1] = GRAY
        return out
    if isinstance(init, str):
        mapping = {
            "all_black": BLACK,
            "all_white": WHITE,
            "all_gray": GRAY,
        }
        if init in mapping:
            return np.full(n, mapping[init], dtype=np.int8)
        raise ValueError(f"unknown init spec {init!r}")
    return validate_three_color(init, n)


class ThreeColorMIS(MISProcess):
    """Vectorized implementation of the 3-color MIS process.

    Parameters
    ----------
    graph, coins:
        See :class:`~repro.core.process.MISProcess`.
    init:
        Initial colors: int8 array over {WHITE, GRAY, BLACK}, or
        ``"random"`` / ``"all_black"`` / ``"all_white"`` / ``"all_gray"``.
    switch:
        A :class:`~repro.core.switch.SwitchProcess` to use, or ``None``
        to create the paper's randomized switch with parameter ``a``.
    a:
        Switch parameter when ``switch`` is ``None`` (Definition 28 uses
        a = 512, giving ζ = 4/a = 2^-7 and 18 states total).
    ops:
        A pre-built :class:`~repro.core.neighbor_ops.NeighborOps` to
        adopt instead of a fresh ``SparseNeighborOps(graph)`` (shared
        with the default switch).

    Notes
    -----
    Unlike the 2-/3-state processes, this one keeps no incremental
    aggregates: its switch levels diffuse a ``max`` over *every* closed
    neighbourhood each round, so there is no small changed set to
    exploit.  Its reductions are memoized per round instead
    (:meth:`~repro.core.process.MISProcess._aggregate`).
    """

    name = "3-color"
    state_count = 18  # 3 colors x 6 switch levels

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | np.random.Generator | None = None,
        init: np.ndarray | str | None = None,
        switch: SwitchProcess | None = None,
        a: float = DEFAULT_A,
        ops: NeighborOps | None = None,
    ) -> None:
        super().__init__(graph, coins, ops=ops)
        self.colors = resolve_three_color_init(init, self.n, self.coins)
        if switch is None:
            switch = RandomizedLogSwitch(
                graph, coins=self.coins, zeta=4.0 / a, ops=self.ops
            )  # repro-lint: disable=coin-flow (documented init-time draw; callers not passing a switch opt into its default init)
        self.switch = switch
        self.a = a

    # ------------------------------------------------------------------
    def _state_token(self) -> object:
        # The stability protocol's reductions depend on colors only
        # (the switch levels never enter black/stable/covered masks).
        return self.colors

    def _advance(self) -> None:
        colors = self.colors
        black = colors == BLACK
        white = colors == WHITE
        gray = colors == GRAY
        has_black_nbr = self._aggregate(
            "exists_black", lambda: self.ops.exists(black)
        )
        sigma = self.switch.sigma()  # σ_{t-1}

        conflicted_black = black & has_black_nbr
        lonely_white = white & ~has_black_nbr
        waking_gray = gray & sigma

        phi = self.coins.bits(self.n)
        new_colors = colors.copy()
        # Conflicted black → coin ? black : gray.
        new_colors[conflicted_black & ~phi] = GRAY
        # Lonely white → coin ? black : white.
        new_colors[lonely_white & phi] = BLACK
        # Gray with switch on → white.
        new_colors[waking_gray] = WHITE
        self.colors = new_colors
        self.switch.step()

    # ------------------------------------------------------------------
    def black_mask(self) -> np.ndarray:
        return self.colors == BLACK

    def gray_mask(self) -> np.ndarray:
        """``Γ_t``: the gray vertices."""
        return self.colors == GRAY

    def white_mask(self) -> np.ndarray:
        """``W_t``: the white vertices."""
        return self.colors == WHITE

    def active_mask(self) -> np.ndarray:
        """``A_t``: black with black neighbour, or white with none.

        Gray vertices are never active (they are treated like non-active
        white vertices, §5.2).
        """
        black = self.colors == BLACK
        white = self.colors == WHITE
        has_black_nbr = self._aggregate(
            "exists_black", lambda: self.ops.exists(black)
        )
        return (black & has_black_nbr) | (white & ~has_black_nbr)

    def state_vector(self) -> np.ndarray:
        return self.colors.copy()

    def full_state_vector(self) -> np.ndarray:
        """Colors and switch levels stacked as an ``(2, n)`` array.

        Only available when the switch is a
        :class:`~repro.core.switch.RandomizedLogSwitch`.
        """
        if not isinstance(self.switch, RandomizedLogSwitch):
            raise TypeError("full state requires the randomized switch")
        return np.stack([self.colors.copy(), self.switch.levels.copy()])

    def corrupt(self, states: np.ndarray) -> None:
        self.colors = validate_three_color(states, self.n)
        self._state_changed()

    def corrupt_switch(self, levels: np.ndarray) -> None:
        """Corrupt the switch levels (requires the randomized switch)."""
        if not isinstance(self.switch, RandomizedLogSwitch):
            raise TypeError("switch corruption requires the randomized switch")
        self.switch.corrupt(levels)

    # ------------------------------------------------------------------
    def _replica_config(self) -> dict[str, Any]:
        switch = self.switch
        if not (
            type(switch) is RandomizedLogSwitch
            and switch.graph is self.graph
            and switch.coins is self.coins
        ):
            raise TypeError(
                "a 3-color replica record needs a RandomizedLogSwitch on "
                "the process's own graph and coin stream"
            )
        return {"a": self.a, "zeta": switch.zeta}

    def replica_state(self) -> ReplicaState:
        record = self._replica_record(pack_state(self.colors, 2))
        assert isinstance(self.switch, RandomizedLogSwitch)
        record.levels = pack_state(self.switch.levels, _LEVEL_PLANES)
        record.switch_round = self.switch.round
        return record

    def restore(self, state: ReplicaState) -> None:
        self._restore_header(state)
        if state.levels is None:
            raise ValueError("a 3-color record carries switch levels")
        assert isinstance(self.switch, RandomizedLogSwitch)
        self.colors = unpack_state(state.state, self.n, np.int8, 2)
        self.switch.levels = unpack_state(
            state.levels, self.n, np.int8, _LEVEL_PLANES
        )
        self.switch.round = int(state.switch_round)
        self.switch.coins = self.coins
        self._state_changed()

    @classmethod
    def _blank(
        cls,
        graph: Graph,
        coins: SeededCoins,
        ops: NeighborOps | None,
        config: dict[str, Any],
    ) -> "ThreeColorMIS":
        ops = ops if ops is not None else SparseNeighborOps(graph)
        switch = RandomizedLogSwitch(
            graph, coins=coins, zeta=config["zeta"], init="all_zero", ops=ops
        )
        return cls(
            graph,
            coins=coins,
            init="all_white",
            switch=switch,
            a=config["a"],
            ops=ops,
        )
