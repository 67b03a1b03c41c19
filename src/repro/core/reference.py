"""Pure-python reference implementations of the paper's processes.

These follow the pseudocode of Definitions 4, 5, 26 and 28 as literally
as possible — per-vertex loops over neighbour state multisets — and
consume coins from the shared :class:`~repro.sim.rng.CoinSource` in
exactly the same order as the vectorized engines.  The footnote-1
ablation (eager white promotion) and the independent daemon of
:mod:`repro.core.schedulers` have literal transcriptions too.  The
differential oracle ``tests/test_oracle.py`` verifies *trajectory
equality* between the references and every execution path — serial,
batched and sharded, in every aggregate regime — under a shared seed,
which pins the vectorized engines to the paper's pseudocode.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.states import BLACK, BLACK0, BLACK1, GRAY, WHITE
from repro.core.switch import DEFAULT_A
from repro.core.three_color import resolve_three_color_init
from repro.core.three_state import resolve_three_state_init
from repro.core.two_state import resolve_two_state_init
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, as_coin_source


class _ReferenceProcess:
    """The stable/stabilized notions of Definition 4, vertex by vertex."""

    graph: Graph
    n: int

    def black_mask(self) -> np.ndarray:
        raise NotImplementedError

    def stable_black_mask(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=bool)
        black = self.black_mask()
        for u in range(self.n):
            if black[u] and not any(
                black[v] for v in self.graph.neighbors(u)
            ):
                out[u] = True
        return out

    def covered_mask(self) -> np.ndarray:
        """``N+[I_t]``: stable black, or a neighbour of one."""
        stable = self.stable_black_mask()
        out = stable.copy()
        for u in range(self.n):
            if any(stable[v] for v in self.graph.neighbors(u)):
                out[u] = True
        return out

    def is_stabilized(self) -> bool:
        return bool(self.covered_mask().all())


class ReferenceTwoState(_ReferenceProcess):
    """Literal per-vertex implementation of Definition 4.

    ``eager_white_promotion=True`` is the footnote-1 ablation: an active
    white vertex turns black outright (its coin is drawn and ignored).
    """

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | None = None,
        init: np.ndarray | str | None = None,
        eager_white_promotion: bool = False,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.coins = as_coin_source(coins)
        self.black = resolve_two_state_init(init, self.n, self.coins)
        self.eager_white_promotion = eager_white_promotion
        self.round = 0

    def step(self) -> None:
        """One parallel round, exactly as the Definition 4 pseudocode."""
        phi = self.coins.bits(self.n)
        self._update(phi, range(self.n))

    def _update(self, phi: np.ndarray, selected: Iterable[int]) -> None:
        """Apply the rule at the ``selected`` vertices; the rest keep."""
        old = self.black
        new = old.copy()
        for u in selected:
            neighbor_colors = {old[v] for v in self.graph.neighbors(u)}
            has_black = True in neighbor_colors
            if old[u] and has_black:
                new[u] = phi[u]
            elif not old[u] and not has_black:
                new[u] = True if self.eager_white_promotion else phi[u]
        self.black = new
        self.round += 1

    def black_mask(self) -> np.ndarray:
        return self.black.copy()

    def active_mask(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=bool)
        for u in range(self.n):
            has_black = any(self.black[v] for v in self.graph.neighbors(u))
            out[u] = (self.black[u] and has_black) or (
                not self.black[u] and not has_black
            )
        return out


class ReferenceIndependentDaemon(ReferenceTwoState):
    """Definition 4's rule under the independent daemon, vertex by vertex.

    Each round every vertex is selected independently with probability
    ``q`` (the daemon's ``bernoulli(n, q)`` draw comes first, then φ_t,
    as in :class:`~repro.core.schedulers.ScheduledTwoStateMIS`); only
    selected vertices apply the rule.
    """

    def __init__(
        self,
        graph: Graph,
        q: float,
        coins: CoinSource | int | None = None,
        init: np.ndarray | str | None = None,
    ) -> None:
        super().__init__(graph, coins, init)
        self.q = q

    def step(self) -> None:
        selected = self.coins.bernoulli(self.n, self.q)
        phi = self.coins.bits(self.n)
        self._update(phi, np.flatnonzero(selected).tolist())


class ReferenceThreeState(_ReferenceProcess):
    """Literal per-vertex implementation of Definition 5."""

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | None = None,
        init: np.ndarray | str | None = None,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.coins = as_coin_source(coins)
        self.states = resolve_three_state_init(init, self.n, self.coins)
        self.round = 0

    def active_mask(self) -> np.ndarray:
        """The vertices that re-randomize next round (Definition 5)."""
        out = np.zeros(self.n, dtype=bool)
        for u in range(self.n):
            nc = {int(self.states[v]) for v in self.graph.neighbors(u)}
            state = int(self.states[u])
            out[u] = (
                state == BLACK1
                or (state == BLACK0 and BLACK1 not in nc)
                or (state == WHITE and nc <= {WHITE})
            )
        return out

    def step(self) -> None:
        phi = self.coins.bits(self.n)
        randomize = self.active_mask()
        old = self.states
        new = old.copy()
        for u in range(self.n):
            if randomize[u]:
                new[u] = BLACK1 if phi[u] else BLACK0
            elif old[u] == BLACK0:
                new[u] = WHITE
        self.states = new
        self.round += 1

    def black_mask(self) -> np.ndarray:
        return self.states != WHITE


class ReferenceLogSwitch:
    """Literal per-vertex implementation of Definition 26."""

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | None = None,
        zeta: float = 4.0 / DEFAULT_A,
        init: np.ndarray | str | None = None,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.coins = as_coin_source(coins)
        self.zeta = zeta
        # Mirror RandomizedLogSwitch's init coin consumption.
        from repro.core.switch import RandomizedLogSwitch

        helper = RandomizedLogSwitch.__new__(RandomizedLogSwitch)
        helper.n = self.n
        helper.coins = self.coins
        self.levels = helper._resolve_init(init)
        self.round = 0

    def step(self) -> None:
        b_zero = self.coins.bernoulli(self.n, self.zeta)
        old = self.levels
        new = old.copy()
        for u in range(self.n):
            level = int(old[u])
            if (level == 5 and not b_zero[u]) or level == 0:
                new[u] = 5
            else:
                closed = [int(old[v]) for v in self.graph.neighbors(u)]
                closed.append(level)
                new[u] = max(max(closed) - 1, 0)
        self.levels = new
        self.round += 1

    def sigma(self) -> np.ndarray:
        return self.levels <= 2


class ReferenceThreeColor(_ReferenceProcess):
    """Literal per-vertex implementation of Definition 28.

    Coin order per round matches :class:`ThreeColorMIS`: main φ_t bits
    first, then the switch's ζ-coins.
    """

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | None = None,
        init: np.ndarray | str | None = None,
        a: float = DEFAULT_A,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.coins = as_coin_source(coins)
        self.colors = resolve_three_color_init(init, self.n, self.coins)
        self.switch = ReferenceLogSwitch(graph, self.coins, zeta=4.0 / a)
        self.round = 0

    def step(self) -> None:
        phi = self.coins.bits(self.n)
        old = self.colors
        sigma = self.switch.sigma()
        new = old.copy()
        for u in range(self.n):
            nc = {int(old[v]) for v in self.graph.neighbors(u)}
            color = int(old[u])
            if color == BLACK and BLACK in nc:
                new[u] = BLACK if phi[u] else GRAY
            elif color == WHITE and BLACK not in nc:
                new[u] = BLACK if phi[u] else WHITE
            elif color == GRAY and sigma[u]:
                new[u] = WHITE
        self.colors = new
        self.switch.step()
        self.round += 1

    def black_mask(self) -> np.ndarray:
        return self.colors == BLACK
