"""The logarithmic switch (Definitions 25 and 26, Lemma 27).

The 3-color MIS process needs, per vertex, a binary on/off sequence
σ_0(u), σ_1(u), ... satisfying (for a parameters ``a``, ``b``):

* (S1) every run of consecutive ``off`` values has length at most a ln n;
* (S2) if diam(G) <= 2, every off-run after the first on (past round
  a/6 ln n) has length at least a/6 ln n;
* (S3) if diam(G) <= 2, every on-run (after a constant prefix) has
  length at most b.

:class:`RandomizedLogSwitch` implements Definition 26: each vertex holds a
level in {0..5}; a vertex at level 5 stays with probability 1 - ζ, and
otherwise (and from any level except 0) drops to
``max(level over N+(u)) - 1``; level 0 resets to 5.  The on/off mapping is
``on ⇔ level <= 2``.  The core mechanism equals the RandPhase phase clock
of Emek-Keren for D = 3 — but, as the paper stresses, it is used as a
local non-synchronized counter, not for synchronization.

:class:`OracleSwitch` is a deterministic switch used in tests and
ablations: it realizes ideal (S1)-(S3) sequences directly.

:class:`SwitchTraceAnalyzer` measures S1-S3 run lengths on recorded
sequences — the measurement instrument of experiment E7.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.core.neighbor_ops import NeighborOps, SparseNeighborOps
from repro.core.states import (
    SWITCH_ON_MAX_LEVEL,
    validate_switch_levels,
)
from repro.graphs.graph import Graph
from repro.sim.rng import CoinSource, as_coin_source

#: Definition 28 fixes the switch parameter a = 512, i.e. ζ = 4/a = 2^-7.
DEFAULT_A: float = 512.0


class SwitchProcess:
    """Interface required by :class:`repro.core.three_color.ThreeColorMIS`.

    A switch process exposes the current σ_t(u) values and advances in
    lockstep with the main process.
    """

    def sigma(self) -> np.ndarray:
        """Boolean array: ``True`` where σ_t(u) = on."""
        raise NotImplementedError

    def step(self) -> None:
        """Advance one synchronous round."""
        raise NotImplementedError


class RandomizedLogSwitch(SwitchProcess):
    """Definition 26: the randomized logarithmic switch (6 states).

    Parameters
    ----------
    graph:
        Underlying graph (levels diffuse via max over N+(u)).
    coins:
        Coin source; one ``bernoulli(n, ζ)`` draw per round.
    zeta:
        Reset probability ζ ∈ (0, 1/2].  Definition 28 uses ζ = 4/a with
        a = 512, i.e. ζ = 2^-7 = 0.0078125.
    init:
        Initial levels: int array in 0..5, ``"random"`` or ``None``
        (random levels, consuming one ``bernoulli(n, 0.5)``-free draw —
        levels are derived from two ``bits`` draws), or ``"all_zero"`` /
        ``"all_five"``.
    """

    def __init__(
        self,
        graph: Graph,
        coins: CoinSource | int | np.random.Generator | None = None,
        zeta: float = 4.0 / DEFAULT_A,
        init: np.ndarray | str | None = None,
        ops: NeighborOps | None = None,
    ) -> None:
        if not 0.0 < zeta <= 0.5:
            raise ValueError(f"zeta must be in (0, 1/2], got {zeta}")
        self.graph = graph
        self.n = graph.n
        self.zeta = float(zeta)
        self.coins = as_coin_source(coins)
        self.ops = ops if ops is not None else SparseNeighborOps(graph)
        self.levels = self._resolve_init(init)
        self.round = 0

    def _resolve_init(self, init: np.ndarray | str | None) -> np.ndarray:
        if init is None or (isinstance(init, str) and init == "random"):
            # Derive a uniform level in 0..5 from three coin bits via
            # rejection-free folding: value = (b0 + 2 b1 + 4 b2) mod 6 is
            # *not* uniform; instead draw uniforms via bernoulli trick.
            # We simply use three bits to index 0..7 and fold 6,7 -> 0,1;
            # slight non-uniformity is irrelevant for an *arbitrary*
            # adversarial initialization, but we document it.
            b0 = self.coins.bits(self.n).astype(np.int8)  # repro-lint: disable=coin-purity (documented init-time draw)
            b1 = self.coins.bits(self.n).astype(np.int8)  # repro-lint: disable=coin-purity (documented init-time draw)
            b2 = self.coins.bits(self.n).astype(np.int8)  # repro-lint: disable=coin-purity (documented init-time draw)
            raw = b0 + 2 * b1 + 4 * b2
            raw[raw >= 6] -= 6
            return raw.astype(np.int8)
        if isinstance(init, str):
            if init == "all_zero":
                return np.zeros(self.n, dtype=np.int8)
            if init == "all_five":
                return np.full(self.n, 5, dtype=np.int8)
            raise ValueError(f"unknown init spec {init!r}")
        return validate_switch_levels(init, self.n)

    def step(self) -> None:
        """One round of the Definition 26 update rule."""
        levels = self.levels
        at_five = levels == 5
        at_zero = levels == 0
        # b_t(u) with P[b = 0] = ζ; drawn for level-5 vertices (we draw
        # for all vertices, matching the everyone-flips discipline).
        b_zero = self.coins.bernoulli(self.n, self.zeta)
        stay_five = at_five & ~b_zero  # b = 1 → remain at level 5
        reset_to_five = stay_five | at_zero
        nbr_max = self.ops.max_closed(levels)
        new_levels = np.where(
            reset_to_five, 5, np.maximum(nbr_max - 1, 0)
        ).astype(np.int8)
        self.levels = new_levels
        self.round += 1

    def sigma(self) -> np.ndarray:
        """on ⇔ level <= 2 (Definition 26's mapping)."""
        return self.levels <= SWITCH_ON_MAX_LEVEL

    def corrupt(self, levels: np.ndarray) -> None:
        """Overwrite levels (transient-fault injection)."""
        self.levels = validate_switch_levels(levels, self.n)


class OracleSwitch(SwitchProcess):
    """Deterministic switch realizing ideal (S1)-(S3) sequences.

    Every vertex shares the same periodic schedule: ``on_run`` rounds on,
    then ``off_run`` rounds off, repeated, with a per-vertex phase shift
    of ``stagger * u`` rounds (stagger 0 = fully synchronized).  Used by
    tests and by the switch ablation to isolate the main 3-color dynamics
    from switch randomness.
    """

    def __init__(
        self,
        n: int,
        on_run: int = 3,
        off_run: int = 16,
        stagger: int = 0,
    ) -> None:
        if on_run < 1 or off_run < 0:
            raise ValueError("on_run >= 1 and off_run >= 0 required")
        self.n = n
        self.on_run = on_run
        self.off_run = off_run
        self.period = on_run + off_run
        self.stagger = stagger
        self.round = 0

    def sigma(self) -> np.ndarray:
        phases = (
            np.arange(self.n, dtype=np.int64) * self.stagger + self.round
        ) % max(self.period, 1)
        return phases < self.on_run

    def step(self) -> None:
        self.round += 1


@dataclass
class RunLengthStats:
    """Run-length statistics for one vertex's binary sequence."""

    max_off_run: int
    min_off_run_after_first_on: int | None
    max_on_run_after_prefix: int
    num_switches: int


class SwitchTraceAnalyzer:
    """Accumulates σ_t arrays and measures the S1-S3 quantities.

    Typical use (experiment E7)::

        switch = RandomizedLogSwitch(g, coins=seed)
        analyzer = SwitchTraceAnalyzer()
        for _ in range(rounds):
            analyzer.record(switch.sigma())
            switch.step()
        report = analyzer.analyze(a=512, n=g.n, diam_le_2=True)
    """

    def __init__(self) -> None:
        self._rows: list[np.ndarray] = []

    def record(self, sigma: np.ndarray) -> None:
        """Append one round's σ values (boolean array)."""
        self._rows.append(np.asarray(sigma, dtype=bool).copy())

    @property
    def rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self._rows)

    def sequence(self, u: int) -> np.ndarray:
        """The recorded on/off sequence of vertex ``u``."""
        return np.array([row[u] for row in self._rows], dtype=bool)

    @staticmethod
    def _runs(seq: np.ndarray) -> list[tuple[bool, int]]:
        """Run-length encode a boolean sequence."""
        runs: list[tuple[bool, int]] = []
        for value in seq:
            if runs and runs[-1][0] == bool(value):
                runs[-1] = (runs[-1][0], runs[-1][1] + 1)
            else:
                runs.append((bool(value), 1))
        return runs

    def vertex_stats(self, u: int, skip_prefix: int = 0) -> RunLengthStats:
        """Run-length statistics for vertex ``u``.

        ``skip_prefix`` discards the first rounds before measuring
        (S2)/(S3) — these properties hold only after a warm-up in
        Definition 25.
        """
        seq = self.sequence(u)
        runs = self._runs(seq)
        max_off = max(
            (length for value, length in runs if not value), default=0
        )
        # (S2): off-runs strictly after the first on in the suffix.
        suffix = seq[skip_prefix:]
        suffix_runs = self._runs(suffix)
        first_on_seen = False
        min_off_after_on: int | None = None
        max_on_after_prefix = 0
        for idx, (value, length) in enumerate(suffix_runs):
            if value:
                first_on_seen = True
                max_on_after_prefix = max(max_on_after_prefix, length)
            elif first_on_seen:
                is_last = idx == len(suffix_runs) - 1
                if not is_last:  # a truncated final off-run is not a run
                    if min_off_after_on is None or length < min_off_after_on:
                        min_off_after_on = length
        num_switches = sum(1 for _ in suffix_runs) - 1 if suffix_runs else 0
        return RunLengthStats(
            max_off_run=max_off,
            min_off_run_after_first_on=min_off_after_on,
            max_on_run_after_prefix=max_on_after_prefix,
            num_switches=max(num_switches, 0),
        )

    def analyze(
        self,
        a: float,
        n: int,
        diam_le_2: bool,
        skip_prefix: int | None = None,
    ) -> dict[str, object]:
        """Check S1-S3 over all vertices; returns a report dict.

        Keys: ``s1_holds``, ``s2_holds``, ``s3_holds`` (booleans, with
        S2/S3 reported only when ``diam_le_2``), plus the witnessing
        extreme run lengths.
        """
        if not self._rows:
            raise RuntimeError("no rounds recorded")
        n_vertices = self._rows[0].shape[0]
        log_n = math.log(max(n, 2))
        s1_bound = a * log_n
        s2_bound = (a / 6.0) * log_n
        if skip_prefix is None:
            skip_prefix = int(math.ceil(s2_bound))
        worst_off = 0
        worst_on = 0
        min_off: int | None = None
        for u in range(n_vertices):
            stats = self.vertex_stats(u, skip_prefix=skip_prefix)
            worst_off = max(worst_off, stats.max_off_run)
            worst_on = max(worst_on, stats.max_on_run_after_prefix)
            if stats.min_off_run_after_first_on is not None:
                if min_off is None or stats.min_off_run_after_first_on < min_off:
                    min_off = stats.min_off_run_after_first_on
        report: dict[str, object] = {
            "rounds": self.rounds,
            "s1_bound": s1_bound,
            "max_off_run": worst_off,
            "s1_holds": worst_off <= s1_bound,
        }
        if diam_le_2:
            report["s2_bound"] = s2_bound
            report["min_off_run"] = min_off
            report["s2_holds"] = min_off is None or min_off >= s2_bound
            report["max_on_run"] = worst_on
            report["s3_holds"] = worst_on <= 3
        return report
