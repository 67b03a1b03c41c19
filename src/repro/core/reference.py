"""The paper's processes as literal networks in its communication models.

§1 claims the 2-state process runs in the beeping model with sender
collision detection (Cornejo-Kuhn) and the 3-state process in the
synchronous stone-age model (Emek-Wattenhofer).  The references here
are those executions.  Each round every node beeps (on one channel) or
listens, :meth:`_Network.heard` gives every node one bit per channel —
whether at least one neighbour beeped there, with no counting and no
sender identity — and a node updates from that bit, its own state and
its coin alone.  The 3-color process (Definition 28) and the
logarithmic switch (Definition 26) keep their per-vertex transcription.

Coins come from the shared :class:`~repro.sim.rng.CoinSource` in
exactly the order of the vectorized engines.  The differential oracle
``tests/test_oracle.py`` checks *trajectory equality* between these
references and every execution path — serial, batched and sharded, in
every aggregate regime — under a shared seed, which pins the
vectorized engines to the paper's communication models.
"""

from __future__ import annotations

import numpy as np

from repro.core.states import (
    BLACK,
    BLACK0,
    BLACK1,
    GRAY,
    WHITE,
    validate_three_state,
    validate_two_state,
)
from repro.core.switch import DEFAULT_A, resolve_switch_init
from repro.core.three_color import resolve_three_color_init
from repro.core.three_state import resolve_three_state_init
from repro.core.two_state import resolve_two_state_init
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, as_coin_source


class _Network:
    """A synchronous network of anonymous nodes on ``graph``, and the
    stable/stabilized notions of Definition 4 read off what it delivers.

    ``beeps`` counts the beeps sent by :meth:`step`; the masks below
    reuse :meth:`heard` to inspect the state and send none.
    """

    def __init__(self, graph: Graph, coins: CoinSource | int | None) -> None:
        self.graph = graph
        self.n = graph.n
        self.coins = as_coin_source(coins)
        self.round = 0
        self.beeps = 0

    def heard(self, beeping: np.ndarray) -> np.ndarray:
        """Per node, whether at least one neighbour is in ``beeping``
        (a node never hears itself)."""
        beeping = np.asarray(beeping, dtype=bool)
        if beeping.shape != (self.n,):
            raise ValueError(f"beeping must have shape ({self.n},)")
        out = np.zeros(self.n, dtype=bool)
        for u in np.flatnonzero(beeping).tolist():
            for v in self.graph.neighbors(u):
                out[v] = True
        return out

    def black_mask(self) -> np.ndarray:
        raise NotImplementedError

    def active_mask(self) -> np.ndarray:
        """``A_t``: the nodes that take their coin this round."""
        raise NotImplementedError

    def stable_black_mask(self) -> np.ndarray:
        """``I_t``: black nodes that hear no black neighbour."""
        black = self.black_mask()
        return black & ~self.heard(black)

    def covered_mask(self) -> np.ndarray:
        """``N+[I_t]``: stable black, or a neighbour of one."""
        stable = self.stable_black_mask()
        return stable | self.heard(stable)

    def unstable_mask(self) -> np.ndarray:
        return ~self.covered_mask()

    def is_stabilized(self) -> bool:
        return bool(self.covered_mask().all())

    def mis(self) -> np.ndarray:
        if not self.is_stabilized():
            raise RuntimeError("not stabilized")
        return np.flatnonzero(self.black_mask())

    def trajectory_counts(self) -> tuple[int, int, int, int]:
        """``(|B_t|, |A_t|, |I_t|, |V_t|)``, as a trace records them."""
        return (
            int(self.black_mask().sum()),
            int(self.active_mask().sum()),
            int(self.stable_black_mask().sum()),
            int(self.unstable_mask().sum()),
        )

    def beeps_per_node_round(self) -> float:
        """Average beeps sent per node per round stepped."""
        if self.round == 0 or self.n == 0:
            return 0.0
        return self.beeps / (self.round * self.n)


class ReferenceTwoState(_Network):
    """Definition 4 as a beeping protocol: black nodes beep, white
    nodes listen, and each node hears one bit.  A black node that hears
    a beep (sender collision detection) and a white node that hears
    silence take their coin; every other node keeps its state.

    ``eager_white_promotion=True`` is the footnote-1 ablation: a white
    node that hears silence turns black outright (its coin is drawn and
    ignored).
    """

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | None = None,
        init: np.ndarray | str | None = None,
        eager_white_promotion: bool = False,
    ) -> None:
        super().__init__(graph, coins)
        self.black = resolve_two_state_init(init, self.n, self.coins)
        self.eager_white_promotion = eager_white_promotion

    def step(self) -> None:
        """One round: φ_t is drawn, then every node acts."""
        phi = self.coins.bits(self.n)
        self._update(phi, np.ones(self.n, dtype=bool))

    def _update(self, phi: np.ndarray, selected: np.ndarray) -> None:
        """One round: every black node beeps; the ``selected`` nodes act
        on what they hear, the rest keep their state."""
        black = self.black
        heard = self.heard(black)
        self.beeps += int(black.sum())
        collision = selected & black & heard
        silence = selected & ~black & ~heard
        joined = True if self.eager_white_promotion else phi
        self.black = np.where(collision, phi, np.where(silence, joined, black))
        self.round += 1

    def black_mask(self) -> np.ndarray:
        return self.black.copy()

    def active_mask(self) -> np.ndarray:
        return self.black == self.heard(self.black)

    def state_vector(self) -> np.ndarray:
        return self.black.copy()

    def corrupt(self, states: np.ndarray) -> None:
        """Transient fault: overwrite every node's state."""
        self.black = validate_two_state(states, self.n)


class ReferenceIndependentDaemon(ReferenceTwoState):
    """Definition 4's protocol under the independent daemon.

    Each round every node is selected independently with probability
    ``q`` (the daemon's ``bernoulli(n, q)`` draw comes first, then φ_t,
    as in :class:`~repro.core.schedulers.ScheduledTwoStateMIS`); black
    nodes beep either way, and only selected nodes act.
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
        self._update(phi, selected)


class ReferenceThreeState(_Network):
    """Definition 5 as a two-channel stone-age protocol: black1 nodes
    beep on channel 0, black0 nodes on channel 1, white nodes listen on
    both.  No node reads the channel it beeps on, so no collision
    detection is needed:

    * black1 takes its coin whatever it hears;
    * black0 reads channel 0: a beep sends it white, silence makes it
      take its coin;
    * white takes its coin when both channels are silent.
    """

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | None = None,
        init: np.ndarray | str | None = None,
    ) -> None:
        super().__init__(graph, coins)
        self.states = resolve_three_state_init(init, self.n, self.coins)

    def active_mask(self) -> np.ndarray:
        """The nodes that take their coin this round (Definition 5)."""
        states = self.states
        channel0 = self.heard(states == BLACK1)
        channel1 = self.heard(states == BLACK0)
        return (
            (states == BLACK1)
            | ((states == BLACK0) & ~channel0)
            | ((states == WHITE) & ~channel0 & ~channel1)
        )

    def step(self) -> None:
        phi = self.coins.bits(self.n)
        states = self.states
        active = self.active_mask()
        self.beeps += int(np.count_nonzero(states != WHITE))
        # An inactive black0 node heard a black1 neighbour: it retreats.
        kept = np.where(states == BLACK0, WHITE, states)
        self.states = np.where(
            active, np.where(phi, BLACK1, BLACK0), kept
        ).astype(np.int8)
        self.round += 1

    def black_mask(self) -> np.ndarray:
        return self.states != WHITE

    def state_vector(self) -> np.ndarray:
        return self.states.copy()

    def corrupt(self, states: np.ndarray) -> None:
        """Transient fault: overwrite every node's state."""
        self.states = validate_three_state(states, self.n)


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
        self.levels = resolve_switch_init(init, self.n, self.coins)
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


class ReferenceThreeColor(_Network):
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
        super().__init__(graph, coins)
        self.colors = resolve_three_color_init(init, self.n, self.coins)
        self.switch = ReferenceLogSwitch(graph, self.coins, zeta=4.0 / a)

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

    def active_mask(self) -> np.ndarray:
        """Black with a black neighbour, or white with none; gray never."""
        black = self.colors == BLACK
        heard = self.heard(black)
        return (black & heard) | ((self.colors == WHITE) & ~heard)
