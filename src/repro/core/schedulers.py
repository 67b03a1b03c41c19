"""Partial-synchrony schedulers for the 2-state MIS process.

§1 recalls (from Shukla et al. [28] and Turau-Weyer [31]) that the
*randomized* transitions make the simple MIS rule stabilize with
probability 1 under a general adversarial scheduler — the synchronous
schedule of Definition 4 being one instance.  This module makes the
scheduler explicit: in each round an *activation set* of vertices is
selected, and only those vertices apply the update rule.

Schedulers provided:

* :class:`SynchronousScheduler` — everyone, every round (Definition 4);
* :class:`IndependentScheduler` — each vertex independently with
  probability q per round (the classic partially synchronous daemon);
* :class:`SingleVertexScheduler` — one uniformly random vertex per
  round (the randomized central daemon);
* :class:`AdversarialGreedyScheduler` — a deterministic adversary that
  activates exactly the currently *inactive-rule* vertices' complement…
  more precisely, it activates the minimal nonempty set it may legally
  pick under weak fairness: the single enabled vertex with the most
  enabled neighbours (churn-maximizing, mirroring
  :class:`repro.baselines.sequential.AdversarialDaemon`).

Fairness: a scheduler must activate every continuously-enabled vertex
eventually; all of the above satisfy this (the adversary activates an
enabled vertex every round and enabled sets shrink under it).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.neighbor_ops import NeighborOps
from repro.core.two_state import _BlackStateProcess, resolve_two_state_init
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, SeededCoins


class Scheduler:
    """Selects the activation set each round."""

    def select(self, process: "ScheduledTwoStateMIS") -> np.ndarray:
        """Boolean mask of vertices allowed to update this round."""
        raise NotImplementedError


class SynchronousScheduler(Scheduler):
    """Definition 4's schedule: all vertices, every round."""

    def select(self, process: "ScheduledTwoStateMIS") -> np.ndarray:
        return np.ones(process.n, dtype=bool)


class IndependentScheduler(Scheduler):
    """Each vertex activates independently with probability ``q``."""

    def __init__(self, q: float) -> None:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        self.q = q

    def select(self, process: "ScheduledTwoStateMIS") -> np.ndarray:
        return process.coins.bernoulli(process.n, self.q)


class SingleVertexScheduler(Scheduler):
    """One uniformly random vertex per round (randomized central daemon).

    Selection is derived from the process's coin source to keep runs
    reproducible: one ``bits(⌈log₂ n⌉)`` array per round is assembled
    into a random index (slight modulo bias is irrelevant for a
    daemon).  Scripted coin sources see one length-⌈log₂ n⌉ draw per
    round (the trajectory is pinned by ``tests/test_schedulers.py``).
    """

    def select(self, process: "ScheduledTwoStateMIS") -> np.ndarray:
        n = process.n
        bits_needed = max(1, int(np.ceil(np.log2(max(n, 2)))))
        draws = process.coins.bits(bits_needed)
        weights = np.left_shift(
            np.int64(1), np.arange(bits_needed, dtype=np.int64)
        )
        index = int(draws.astype(np.int64) @ weights) % n
        mask = np.zeros(n, dtype=bool)
        mask[index] = True
        return mask


class AdversarialGreedyScheduler(Scheduler):
    """Churn-maximizing single-vertex adversary (weakly fair).

    Deterministic: activates the enabled vertex with the most enabled
    neighbours (ties → largest vertex id), computed as one
    ``ops.count(enabled)`` reduction instead of a per-vertex Python
    neighbour loop — same selections, O(n²)→O(reduction) per round.
    """

    def select(self, process: "ScheduledTwoStateMIS") -> np.ndarray:
        enabled = process.active_mask()
        mask = np.zeros(process.n, dtype=bool)
        if not enabled.any():
            return mask
        scores = np.where(enabled, process.ops.count(enabled), -1)
        best_u = int(np.flatnonzero(scores == scores.max()).max())
        mask[best_u] = True
        return mask


class ScheduledTwoStateMIS(_BlackStateProcess):
    """The 2-state MIS rule under a pluggable activation scheduler.

    With :class:`SynchronousScheduler` this is exactly
    :class:`~repro.core.two_state.TwoStateMIS` (tested).  Coin order per
    round: the scheduler's draws (if any) first, then the φ_t array.

    The black-neighbour counts are persistent
    :class:`~repro.core.frontier.FrontierAggregates`: under a daemon
    the black mask changes only at the activated subset of the
    rule-enabled vertices, so their scatter updates shrink with the
    daemon's activation rate as well as with the frontier.

    ``ops`` adopts a pre-built
    :class:`~repro.core.neighbor_ops.NeighborOps` instead of a fresh
    ``SparseNeighborOps(graph)``.
    """

    name = "2-state (scheduled)"
    state_count = 2

    def __init__(
        self,
        graph: Graph,
        scheduler: Scheduler | None = None,
        coins: CoinSource | int | np.random.Generator | None = None,
        init: np.ndarray | str | None = None,
        ops: NeighborOps | None = None,
    ) -> None:
        super().__init__(graph, coins, ops=ops)
        self.scheduler = (
            scheduler if scheduler is not None else SynchronousScheduler()
        )
        self.black = resolve_two_state_init(init, self.n, self.coins)

    def _advance(self) -> None:
        selected = self.scheduler.select(self)
        black = self.black
        frontier = self._frontier_aggregates()
        rule_enabled = black == frontier.has_black  # XNOR
        active = rule_enabled & selected
        phi = self.coins.bits(self.n)
        # Active vertices adopt phi; equivalently, flip exactly the
        # active vertices whose coin differs from their state.
        changed_mask = active & (phi ^ black)
        new_black = black ^ changed_mask
        changed = np.flatnonzero(changed_mask)
        up = changed[new_black[changed]]
        down = changed[~new_black[changed]]
        frontier.advance(new_black, up, down, token=new_black)
        self.black = new_black

    def _replica_config(self) -> dict[str, Any]:
        scheduler = self.scheduler
        name = _SCHEDULER_NAMES.get(type(scheduler))
        if name is None:
            raise TypeError(
                f"a scheduled replica record cannot carry a "
                f"{type(scheduler).__name__}"
            )
        config: dict[str, Any] = {"scheduler": name}
        if isinstance(scheduler, IndependentScheduler):
            config["q"] = scheduler.q
        return config

    @classmethod
    def _blank(
        cls,
        graph: Graph,
        coins: SeededCoins,
        ops: NeighborOps | None,
        config: dict[str, Any],
    ) -> "ScheduledTwoStateMIS":
        scheduler_cls = _SCHEDULERS[config["scheduler"]]
        scheduler = (
            IndependentScheduler(config["q"])
            if scheduler_cls is IndependentScheduler
            else scheduler_cls()
        )
        return cls(
            graph,
            scheduler=scheduler,
            coins=coins,
            init="all_white",
            ops=ops,
        )


#: Replica-record names of the schedulers (all stateless but ``q``).
_SCHEDULERS: dict[str, type[Scheduler]] = {
    "synchronous": SynchronousScheduler,
    "independent": IndependentScheduler,
    "single-vertex": SingleVertexScheduler,
    "adversarial-greedy": AdversarialGreedyScheduler,
}
_SCHEDULER_NAMES = {cls: name for name, cls in _SCHEDULERS.items()}
