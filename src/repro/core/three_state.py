"""The 3-state MIS process (Definition 5).

States: ``black1``, ``black0``, ``white``.  A vertex is *black* when its
state is black1 or black0.  The update rule, verbatim::

    let NC_t(u) = {c_{t-1}(v) : v ∈ N(u)}
    if c_{t-1}(u) = black1
       or (c_{t-1}(u) = black0 and black1 ∉ NC_t(u))
       or (c_{t-1}(u) = white and NC_t(u) = {white}):
        c_t(u) = uniformly random in {black1, black0}
    elif c_{t-1}(u) = black0:
        c_t(u) = white
    else:
        c_t(u) = c_{t-1}(u)

This variant needs no collision detection (suitable for the synchronous
stone age model): black1 plays the role of a beep, and a black0 vertex
that hears a black1 beep retreats to white.  A stable black vertex
alternates between black1 and black0 forever, so quiescence of the state
vector is *not* the stabilization criterion — coverage by stable black
vertices is (see :class:`repro.core.process.MISProcess`).

The paper does not analyze this process but conjectures it behaves at
least as well as the 2-state process; Remark 10 notes O(log n) on K_n.
Experiment E10 compares all three processes empirically.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.frontier import FrontierAggregates
from repro.core.neighbor_ops import NeighborOps
from repro.core.process import MISProcess
from repro.core.replica import ReplicaState
from repro.core.states import (
    BLACK0,
    BLACK1,
    WHITE,
    pack_state,
    unpack_state,
    validate_three_state,
)
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource


def resolve_three_state_init(
    init: np.ndarray | str | None,
    n: int,
    coins: CoinSource,
) -> np.ndarray:
    """Resolve an initial 3-state configuration.

    ``"random"`` draws two coin arrays: the first chooses black vs white,
    the second chooses black1 vs black0 for the black vertices.
    """
    if init is None or (isinstance(init, str) and init == "random"):
        is_black = coins.bits(n)  # repro-lint: disable=coin-purity (documented init-time draw)
        is_one = coins.bits(n)  # repro-lint: disable=coin-purity (documented init-time draw)
        out = np.full(n, WHITE, dtype=np.int8)
        out[is_black & is_one] = BLACK1
        out[is_black & ~is_one] = BLACK0
        return out
    if isinstance(init, str):
        if init == "all_white":
            return np.full(n, WHITE, dtype=np.int8)
        if init == "all_black1":
            return np.full(n, BLACK1, dtype=np.int8)
        if init == "all_black0":
            return np.full(n, BLACK0, dtype=np.int8)
        raise ValueError(f"unknown init spec {init!r}")
    return validate_three_state(init, n)


class ThreeStateMIS(MISProcess):
    """Vectorized implementation of the 3-state MIS process.

    Per round, exactly one ``bits(n)`` draw is consumed: the coin that
    chooses black1 (True) vs black0 (False) for re-randomizing vertices.

    The process keeps *two* persistent count arrays
    (:class:`~repro.core.frontier.FrontierAggregates`) — black
    neighbours and black1 neighbours outside ``I_t`` — updated along
    the changed vertices' edges.  A stable black vertex alternates
    black1/black0 forever, but those flips are never scattered: the
    black1 count leaves ``I_t`` out (exact wherever it is read, since a
    black vertex has no stable neighbour), so both counts' deltas
    collapse with ``V_t`` as in the 2-state process.
    """

    name = "3-state"
    state_count = 3

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | np.random.Generator | None = None,
        init: np.ndarray | str | None = None,
        ops: "NeighborOps | None" = None,
    ) -> None:
        super().__init__(graph, coins, ops=ops)
        self.states = resolve_three_state_init(init, self.n, self.coins)

    # ------------------------------------------------------------------
    def _state_token(self) -> object:
        return self.states

    def _frontier_aggregates(self) -> FrontierAggregates:
        frontier = self._frontier
        if frontier is None:
            frontier = self._frontier = FrontierAggregates(
                self.graph, self.ops, track_aux=True
            )
        if frontier.token is not self.states:
            states = self.states
            frontier.rebuild(
                states != WHITE, token=states, aux=(states == BLACK1)
            )
        return frontier

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        states = self.states
        frontier = self._frontier_aggregates()
        randomize = self.active_mask()
        phi = self.coins.bits(self.n)
        # With WHITE = 0, BLACK0 = 1, BLACK1 = 2 the update is
        # arithmetic: a randomizing vertex becomes 1 + phi, and every
        # other vertex ends white (black1 always randomizes, a
        # non-randomizing black0 hears a black1 beep and is demoted, a
        # non-randomizing white stays white).
        new_states = randomize.view(np.int8) + (randomize & phi).view(np.int8)
        # A vertex of I_t stays black and is not counted in the black1
        # aggregate, so its black1/black0 flips are skipped.
        changed = np.flatnonzero((new_states != states) & ~frontier.stable)
        old_state = states[changed]
        new_state = new_states[changed]
        old_black = old_state != WHITE
        new_black = new_state != WHITE
        old_black1 = old_state == BLACK1
        new_black1 = new_state == BLACK1
        frontier.advance(
            new_states != WHITE,
            up=changed[new_black & ~old_black],
            down=changed[old_black & ~new_black],
            token=new_states,
            aux_mask=new_states == BLACK1,
            aux_up=changed[new_black1 & ~old_black1],
            aux_down=changed[old_black1 & ~new_black1],
        )
        self.states = new_states

    # ------------------------------------------------------------------
    def black_mask(self) -> np.ndarray:
        return self.states != WHITE

    def active_mask(self) -> np.ndarray:
        """Vertices that will re-randomize this coming round.

        For the 3-state process, the natural analogue of ``A_t`` is the
        set of vertices whose next state is random: black1 vertices,
        black0 vertices with no black1 neighbour, and white vertices with
        all-white neighbourhoods.
        """
        states = self.states
        frontier = self._frontier_aggregates()
        # The black1 flags count only black1 neighbours outside I_t;
        # they are read at black0 vertices only, where they are exact
        # (a black vertex has no neighbour in I_t).
        return (
            (states == BLACK1)
            | ((states == BLACK0) & ~frontier.aux_has)
            | ((states == WHITE) & ~frontier.has_black)
        )

    def state_vector(self) -> np.ndarray:
        return self.states.copy()

    def corrupt(self, states: np.ndarray) -> None:
        self.states = validate_three_state(states, self.n)
        self._state_changed()

    def _replica_config(self) -> dict[str, Any]:
        return {}

    def replica_state(self) -> ReplicaState:
        return self._replica_record(pack_state(self.states, 2))

    def restore(self, state: ReplicaState) -> None:
        self._restore_header(state)
        self.states = unpack_state(state.state, self.n, np.int8, 2)
        self._state_changed()
