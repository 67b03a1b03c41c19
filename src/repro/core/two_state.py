"""The 2-state MIS process (Definition 4).

Each vertex has a binary state, black or white.  In each round, every
vertex whose state is inconsistent with its neighbours' — black with a
black neighbour, or white with no black neighbour — adopts a uniformly
random state.  The set of black vertices is an MIS exactly when no vertex
is active, and the process then never changes again.

The update rule, verbatim from the paper::

    let NC_t(u) = {c_{t-1}(v) : v ∈ N(u)}
    if (c_{t-1}(u) = black and black ∈ NC_t(u))
       or (c_{t-1}(u) = white and black ∉ NC_t(u)):
        c_t(u) = uniformly random in {black, white}
    else:
        c_t(u) = c_{t-1}(u)

Coin discipline: one fair coin φ_t(u) is drawn for every vertex every
round (§2.1); active vertices set their state to the coin.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.core.frontier import FrontierAggregates
from repro.core.neighbor_ops import NeighborOps, setdiff_sorted, unique_flat
from repro.core.process import MISProcess
from repro.core.replica import ReplicaState
from repro.core.states import pack_state, unpack_state, validate_two_state
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource


def resolve_two_state_init(
    init: np.ndarray | str | None,
    n: int,
    coins: CoinSource,
) -> np.ndarray:
    """Resolve an initial 2-state configuration.

    ``init`` may be a boolean array (copied), one of the strings
    ``"random"`` / ``"all_black"`` / ``"all_white"``, or ``None``
    (= ``"random"``).  Random initial states consume one ``bits(n)`` draw
    from the coin source (before any round coins).
    """
    if init is None or (isinstance(init, str) and init == "random"):
        return coins.bits(n).copy()  # repro-lint: disable=coin-purity (documented init-time draw)
    if isinstance(init, str):
        if init == "all_black":
            return np.ones(n, dtype=bool)
        if init == "all_white":
            return np.zeros(n, dtype=bool)
        raise ValueError(f"unknown init spec {init!r}")
    return validate_two_state(init, n)


class _BlackStateProcess(MISProcess):
    """Shared machinery of the processes whose whole state is one black
    mask (the plain and scheduled 2-state processes): the frontier
    aggregates over ``black`` and the record/fault-injection plumbing."""

    black: np.ndarray

    def _state_token(self) -> object:
        return self.black

    def _frontier_aggregates(self) -> FrontierAggregates:
        frontier = self._frontier
        if frontier is None:
            frontier = self._frontier = FrontierAggregates(
                self.graph, self.ops
            )
        if frontier.token is not self.black:
            frontier.rebuild(self.black, token=self.black)
        return frontier

    def _has_black_neighbor(self) -> np.ndarray:
        """``exists(B_t)`` from the synced aggregates (no mutation)."""
        return self._frontier_aggregates().has_black

    def black_mask(self) -> np.ndarray:
        return self.black.copy()

    def active_mask(self) -> np.ndarray:
        """``A_t``: black with a black neighbour, or white with none."""
        # (black & has) | (~black & ~has) — elementwise XNOR.
        return self.black == self._has_black_neighbor()

    def state_vector(self) -> np.ndarray:
        return self.black.copy()

    def corrupt(self, states: np.ndarray) -> None:
        self.black = validate_two_state(states, self.n)
        self._state_changed()

    def replica_state(self) -> ReplicaState:
        return self._replica_record(pack_state(self.black))

    def restore(self, state: ReplicaState) -> None:
        self._restore_header(state)
        self.black = unpack_state(state.state, self.n, np.bool_)
        self._state_changed()


class TwoStateMIS(_BlackStateProcess):
    """Vectorized implementation of the 2-state MIS process.

    Parameters
    ----------
    graph, coins, ops:
        See :class:`~repro.core.process.MISProcess`.
    init:
        Initial configuration: boolean array, ``"random"``,
        ``"all_black"``, ``"all_white"``, or ``None`` (random).
    eager_white_promotion:
        Ablation flag (footnote 1 of the paper): if ``True``, a white
        vertex with no black neighbour turns black with probability 1
        instead of 1/2.  Black-with-black-neighbour transitions keep the
        fair coin.  Default ``False`` (the paper's process).

    Notes
    -----
    Per round, exactly one ``bits(n)`` draw is consumed from the coin
    source — the φ_t array of §2.1.  The black-neighbour counts are
    persistent :class:`~repro.core.frontier.FrontierAggregates`,
    scatter-updated along the changed vertices' edges or recomputed in
    one reduction, whichever the round's changed volume makes cheaper.
    """

    name = "2-state"
    state_count = 2

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | np.random.Generator | None = None,
        init: np.ndarray | str | None = None,
        eager_white_promotion: bool = False,
        ops: "NeighborOps | None" = None,
    ) -> None:
        super().__init__(graph, coins, ops=ops)
        self.black = resolve_two_state_init(init, self.n, self.coins)
        self.eager_white_promotion = bool(eager_white_promotion)
        # Frontier-localized active set: sorted indices of A_t, kept
        # only while small (see _advance); None = not maintained.
        self._active_idx: np.ndarray | None = None
        self._active_token: object = None

    # ------------------------------------------------------------------
    def _state_changed(self) -> None:
        self._active_idx = None
        super()._state_changed()

    def _topology_changed(self) -> None:
        # A_t depends on the adjacency, so the maintained index set is
        # no longer trustworthy after an edge delta.
        self._active_idx = None
        super()._topology_changed()

    # ------------------------------------------------------------------
    #: |A_t| bound (as a fraction of n) below which the active set is
    #: maintained as an index array instead of recomputed as a mask —
    #: past it, per-round cost is O(|A_t| + vol(changed)) + the coin
    #: draw, with no length-n pass at all.
    _ACTIVE_IDX_FRACTION = 64

    def _advance(self) -> None:
        black = self.black
        frontier = self._frontier_aggregates()
        if (
            not self.eager_white_promotion
            and self._active_idx is not None
            and self._active_token is black
        ):
            self._advance_on_active_idx(frontier)  # repro-lint: disable=coin-flow (fast path draws the identical full-width bits(n))
            return
        # A_t = (black & has) | (~black & ~has), i.e. elementwise XNOR.
        active = black == frontier.has_black
        phi = self.coins.bits(self.n)
        if self.eager_white_promotion:
            # Ablation: active white vertices turn black deterministically;
            # active black vertices still flip the fair coin.
            new_black = black.copy()
            new_black[active & ~black] = True
            active_black = active & black
            new_black[active_black] = phi[active_black]
            changed_mask = new_black != black
        else:
            # Active vertices adopt phi; equivalently, flip exactly the
            # active vertices whose coin differs from their state.
            changed_mask = active & (phi ^ black)
            new_black = black ^ changed_mask
        changed = np.flatnonzero(changed_mask)
        up = changed[new_black[changed]]
        down = changed[~new_black[changed]]
        touched = frontier.advance(new_black, up, down, token=new_black)
        if (
            not self.eager_white_promotion
            and touched is not None
            and int(np.count_nonzero(active)) * self._ACTIVE_IDX_FRACTION
            < self.n
        ):
            # The frontier has collapsed: start maintaining A_t as a
            # sorted index array (exact — A_t can only flip at changed
            # vertices and their neighbours).
            self._active_idx = np.flatnonzero(active & ~changed_mask)
            self._sync_active_idx(
                new_black, frontier, np.concatenate((changed, touched))
            )
        else:
            self._active_idx = None
        self.black = new_black

    def _advance_on_active_idx(self, frontier: FrontierAggregates) -> None:
        """One round touching only A_t and the changed edges.

        Trajectory-identical to the mask path: φ_t is still a full
        ``bits(n)`` draw (§2.1's coin discipline), but it is only read
        at the active vertices, and every update is index-based.
        """
        black = self.black
        act = self._active_idx
        phi = self.coins.bits(self.n)
        flips = phi[act] ^ black[act]
        changed = act[flips]
        new_black = black.copy()
        new_black[changed] = phi[changed]
        up = changed[new_black[changed]]
        down = changed[~new_black[changed]]
        touched = frontier.advance(new_black, up, down, token=new_black)
        if touched is None:  # full-recompute round: candidates unknown
            self._active_idx = None
        else:
            # A_t flips only where blackness or has_black changed.
            self._active_idx = act[~flips]
            self._sync_active_idx(
                new_black, frontier, np.concatenate((changed, touched))
            )
        self.black = new_black

    def _sync_active_idx(
        self,
        new_black: np.ndarray,
        frontier: FrontierAggregates,
        candidates: np.ndarray,
    ) -> None:
        """Merge the candidates' new activity into the index set."""
        act_now = new_black[candidates] == frontier.has_black[candidates]
        activated = candidates[act_now]
        deactivated = candidates[~act_now]
        idx = self._active_idx
        # (np.setdiff1d / np.union1d dedup by hashing, which costs far
        # more than a binary search and a sort at these sizes.)
        if deactivated.size:
            idx = setdiff_sorted(idx, deactivated)
        if activated.size:
            idx = unique_flat(np.concatenate((idx, activated)), self.n)
        if idx.size * self._ACTIVE_IDX_FRACTION >= self.n:
            self._active_idx = None  # regime left; masks are cheaper
        else:
            self._active_idx = idx
            self._active_token = new_black

    def _replica_config(self) -> dict[str, Any]:
        return {"eager_white_promotion": self.eager_white_promotion}

    def corrupt_vertices(self, vertices: Iterable[int], black: bool) -> None:
        """Set the given vertices' colors (targeted fault injection)."""
        idx = np.asarray(list(vertices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("vertex index out of range")
        self.black[idx] = black
        self._state_changed()

    # ------------------------------------------------------------------
    # Extra introspection used by the analysis experiments
    # ------------------------------------------------------------------
    def active_neighbor_counts(self) -> np.ndarray:
        """``|N(u) ∩ A_t|`` for every u (k-activity, §4.1)."""
        return self.ops.count(self.active_mask())

    def k_active_mask(self, k: int) -> np.ndarray:
        """``A^k_t``: active vertices with at most k active neighbours."""
        active = self.active_mask()
        return active & (self.ops.count(active) <= k)
