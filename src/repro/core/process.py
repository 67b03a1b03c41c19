"""Common API for the paper's round-based self-stabilizing processes.

All processes share the synchronous structure of §2: an arbitrary initial
state vector, parallel rounds ``t = 1, 2, ...``, per-round per-vertex
coins (see :mod:`repro.sim.rng`), and the stable/stabilized notions of
Definition 4 (which carry over verbatim to the 3-state and 3-color
processes):

* a vertex is *stable* if it is black with no black neighbours, or it is
  not black and has a stable black neighbour;
* the process is *stabilized* once all vertices are stable, equivalently
  once ``N+[I_t] = V`` where ``I_t`` is the set of black vertices with no
  black neighbour.

Subclasses implement :meth:`_advance` (one synchronous round) and
:meth:`black_mask`.

Aggregate bookkeeping
---------------------

The stability protocol needs the same neighbourhood reductions the
update rules do (``exists(black)``, ``exists(I_t)``).  Two mechanisms
keep the run loop from paying for them twice:

* :meth:`_aggregate` memoizes reductions for the *current* state
  (keyed on the identity of the state array via :meth:`_state_token`),
  so ``step()`` and ``is_stabilized()`` inside
  :func:`repro.sim.runner.run_until_stable` share one computation per
  round instead of recomputing per call;
* processes running an incremental frontier engine
  (:mod:`repro.core.frontier`) expose their persistent aggregates via
  :meth:`_frontier_aggregates`, and the protocol methods below read
  ``I_t`` / ``N+[I_t]`` / the unstable counter straight from them —
  making :meth:`is_stabilized` O(1) instead of two fresh reductions.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.neighbor_ops import NeighborOps, SparseNeighborOps
from repro.core.replica import ReplicaState, replica_class
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, SeededCoins, as_coin_source

if TYPE_CHECKING:  # import cycles: frontier/runner both import process
    from repro.core.frontier import FrontierAggregates
    from repro.sim.runner import RunResult

#: Sentinel: memoized aggregates are unconditionally stale.
_STALE = object()


class MISProcess:
    """Base class for the 2-state, 3-state and 3-color MIS processes.

    Parameters
    ----------
    graph:
        The graph ``G = (V, E)``.
    coins:
        A :class:`~repro.sim.rng.CoinSource`, an integer seed, a numpy
        ``Generator``, or ``None`` (fresh OS entropy).
    ops:
        A pre-built :class:`~repro.core.neighbor_ops.NeighborOps` to
        adopt instead of a fresh
        :class:`~repro.core.neighbor_ops.SparseNeighborOps` over
        ``graph`` — the way the dynamic layer (:mod:`repro.dynamic`)
        injects its delta-aware overlay backend, and the way a test
        shares or instruments one.
    """

    #: Human-readable name of the process (subclasses override).
    name: str = "abstract"
    #: Number of per-vertex states the process uses (paper's accounting).
    state_count: int = 0

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | np.random.Generator | None = None,
        ops: NeighborOps | None = None,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.coins = as_coin_source(coins)
        self.ops: NeighborOps = (
            ops if ops is not None else SparseNeighborOps(graph)
        )
        self.round: int = 0
        self._agg_cache: dict[str, np.ndarray] = {}
        self._agg_token: object = _STALE
        #: Incremental aggregates (set lazily by the families that keep
        #: them: the 2-state, 3-state and scheduled 2-state processes).
        self._frontier = None

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Execute one synchronous round (update all states in parallel)."""
        raise NotImplementedError

    def black_mask(self) -> np.ndarray:
        """Boolean array: which vertices are currently black (``B_t``).

        For the 3-state process "black" means state ∈ {black0, black1};
        for the 3-color process it means state == black.
        """
        raise NotImplementedError

    def active_mask(self) -> np.ndarray:
        """Boolean array of active vertices ``A_t`` (subclass-specific)."""
        raise NotImplementedError

    def state_vector(self) -> np.ndarray:
        """A copy of the current full state vector (encoding varies)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Aggregate bookkeeping (memoization + frontier dispatch)
    # ------------------------------------------------------------------
    def _state_token(self) -> object:
        """Identity token of the current state (memoization key).

        Subclasses whose ``_advance`` rebinds the state array each round
        return that array, so the memo cache self-invalidates on every
        state change.  The default returns a fresh object per call,
        which disables memoization (always safe).
        """
        return object()

    def _state_changed(self) -> None:
        """Invalidate memoized and incremental aggregates.

        Must be called after any *in-place* mutation of the state
        vector (e.g. targeted fault injection); rebinding the state
        array invalidates both caches automatically via identity.
        """
        self._agg_token = _STALE
        if self._frontier is not None:
            self._frontier.invalidate()

    def _topology_changed(self) -> None:
        """Invalidate memoized aggregates after a graph topology change.

        Unlike :meth:`_state_changed` this leaves the frontier
        aggregates alone: the dynamic layer (:mod:`repro.dynamic`)
        repairs them in place via
        :meth:`repro.core.frontier.FrontierAggregates.apply_topology_delta`,
        and discarding them here would forfeit that repair.  Callers
        that *cannot* repair must invalidate the frontier themselves.
        """
        self._agg_token = _STALE

    def _aggregate(
        self, key: str, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Memoize a neighbourhood reduction for the current state.

        Within one round, ``step()``'s update rule and the stability
        predicate consume the same reductions; this cache makes them
        pay once.  Callers must not mutate the returned array.
        """
        token = self._state_token()
        if token is not self._agg_token:
            self._agg_cache.clear()
            self._agg_token = token
        if key not in self._agg_cache:
            self._agg_cache[key] = compute()
        return self._agg_cache[key]

    def _frontier_aggregates(self) -> "FrontierAggregates | None":
        """The process's live incremental aggregates, or ``None``.

        Subclasses running a frontier engine override this to return a
        (rebuilt-if-stale) :class:`repro.core.frontier.FrontierAggregates`;
        the stability protocol below then reads the maintained masks
        instead of recomputing reductions.
        """
        return None

    # ------------------------------------------------------------------
    # Shared semantics
    # ------------------------------------------------------------------
    def step(self, rounds: int = 1) -> None:
        """Advance the process by ``rounds`` synchronous rounds."""
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        for _ in range(rounds):
            self._advance()
            self.round += 1

    def stable_black_mask(self) -> np.ndarray:
        """``I_t``: black vertices with no black neighbour.

        ``I_t`` is an independent set and a subset of the final MIS; once
        a vertex enters ``I_t`` it stays (Definition 4 and §2).
        """
        frontier = self._frontier_aggregates()
        if frontier is not None:
            return frontier.stable.copy()
        black = self.black_mask()
        return black & ~self._aggregate(
            "exists_black", lambda: self.ops.exists(black)
        )

    def covered_mask(self) -> np.ndarray:
        """``N+[I_t]``: vertices that are stable (self or neighbour in I_t)."""
        frontier = self._frontier_aggregates()
        if frontier is not None:
            return frontier.covered.copy()
        stable_black = self.stable_black_mask()
        return stable_black | self._aggregate(
            "exists_stable_black", lambda: self.ops.exists(stable_black)
        )

    def unstable_mask(self) -> np.ndarray:
        """``V_t = V \\ N+[I_t]``: vertices that are not yet stable."""
        return ~self.covered_mask()

    def is_stabilized(self) -> bool:
        """Whether all vertices are stable (``N+[I_t] = V``).

        O(1) under a frontier engine (the maintained unstable-vertex
        counter); otherwise one memoized reduction pass.
        """
        frontier = self._frontier_aggregates()
        if frontier is not None:
            return frontier.unstable_total == 0
        return bool(self.covered_mask().all())

    def trajectory_counts(self) -> tuple[int, int, int, int]:
        """``(|B_t|, |A_t|, |I_t|, |V_t|)`` — the trace aggregates.

        One tuple per round is what :class:`repro.sim.trace.TraceRecorder`
        records; under a frontier engine ``|I_t|`` and ``|V_t|`` come
        straight from the maintained masks/counter instead of fresh
        reductions, which is what makes trajectory-recording runs on
        large graphs cheap.
        """
        frontier = self._frontier_aggregates()
        n_black = int(np.count_nonzero(self.black_mask()))
        n_active = int(np.count_nonzero(self.active_mask()))
        if frontier is not None:
            return (
                n_black,
                n_active,
                int(np.count_nonzero(frontier.stable)),
                frontier.unstable_total,
            )
        n_stable = int(np.count_nonzero(self.stable_black_mask()))
        n_unstable = self.n - int(np.count_nonzero(self.covered_mask()))
        return (n_black, n_active, n_stable, n_unstable)

    def mis(self) -> np.ndarray:
        """The stabilized MIS as a sorted vertex array.

        Raises
        ------
        RuntimeError
            If the process has not stabilized yet.
        """
        if not self.is_stabilized():
            raise RuntimeError("process has not stabilized; no MIS yet")
        return np.flatnonzero(self.black_mask())

    def run(self, max_rounds: int = 1_000_000) -> "RunResult":
        """Convenience wrapper around :func:`repro.sim.runner.run_until_stable`."""
        from repro.sim.runner import run_until_stable

        return run_until_stable(self, max_rounds=max_rounds)

    # ------------------------------------------------------------------
    # Replica records (repro.core.replica)
    # ------------------------------------------------------------------
    def _replica_config(self) -> dict[str, Any]:
        """Constructor configuration a record carries (subclass hook).

        Raises ``TypeError`` for a configuration the record cannot
        express.
        """
        raise TypeError(f"{type(self).__name__} has no replica record")

    def replica_unsupported(self) -> str | None:
        """Why this process has no :class:`ReplicaState`, or ``None``."""
        if replica_class(self.name) is not type(self):
            return f"{type(self).__name__} is not a replica record family"
        if type(self.coins) is not SeededCoins:
            return (
                f"{type(self).__name__} draws from a "
                f"{type(self.coins).__name__}, not a SeededCoins stream"
            )
        try:
            self._replica_config()
        except TypeError as exc:
            return str(exc)
        return None

    def _replica_record(self, state: bytes) -> ReplicaState:
        """The record of this process around its packed ``state``."""
        reason = self.replica_unsupported()
        if reason is not None:
            raise TypeError(reason)
        assert isinstance(self.coins, SeededCoins)
        return ReplicaState(
            family=self.name,
            n=self.n,
            config=self._replica_config(),
            coins=self.coins.state,
            round=self.round,
            state=state,
        )

    def _restore_header(self, state: ReplicaState) -> None:
        """Check ``state`` fits this process; reset round and coins."""
        if replica_class(state.family) is not type(self):
            raise TypeError(
                f"cannot restore a {state.family!r} record into "
                f"{type(self).__name__}"
            )
        if state.n != self.n:
            raise ValueError(
                f"cannot restore an n={state.n} record into an "
                f"n={self.n} process"
            )
        config = self._replica_config()
        if state.config != config:
            raise ValueError(
                f"record config {state.config!r} does not match the "
                f"process's {config!r}"
            )
        self.coins = SeededCoins.from_state(state.coins)
        self.round = int(state.round)

    def replica_state(self) -> ReplicaState:
        """This process's resumable state as a packed record.

        Raises ``TypeError`` when :meth:`replica_unsupported` says why
        there is none.
        """
        raise TypeError(f"{type(self).__name__} has no replica record")

    def restore(self, state: ReplicaState) -> None:
        """Reset round, coins and state to ``state``, in place.

        Every memoized, frontier and active-set cache is invalidated.
        Raises ``TypeError`` for another family and ``ValueError`` for
        another ``n`` or configuration.
        """
        raise TypeError(f"{type(self).__name__} has no replica record")

    @classmethod
    def _blank(
        cls,
        graph: Graph,
        coins: SeededCoins,
        ops: NeighborOps | None,
        config: dict[str, Any],
    ) -> MISProcess:
        """An all-white process of ``config`` (draws no coins)."""
        return cls(  # type: ignore[call-arg]
            graph, coins=coins, init="all_white", ops=ops, **config
        )

    @classmethod
    def from_replica_state(
        cls,
        state: ReplicaState,
        graph: Graph,
        ops: NeighborOps | None = None,
    ) -> MISProcess:
        """A new process on ``graph`` positioned at ``state``."""
        process = cls._blank(
            graph, SeededCoins.from_state(state.coins), ops, state.config
        )
        process.restore(state)
        return process

    # ------------------------------------------------------------------
    # Fault injection hooks (self-stabilization experiments)
    # ------------------------------------------------------------------
    def corrupt(self, states: np.ndarray) -> None:
        """Overwrite the full state vector (transient-fault injection).

        Subclasses validate the encoding.  The round counter is *not*
        reset: self-stabilization means recovery without a restart.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, round={self.round}, "
            f"stabilized={self.is_stabilized()})"
        )
