"""Replica state records: a process's resumable state as packed data.

A replica of one of the paper's processes carries very little state
that its future depends on: the round counter, the coin stream's
``(key, draw)`` (:attr:`repro.sim.rng.SeededCoins.state`), and one to
three bit-planes per vertex (:func:`repro.core.states.pack_state`).
:class:`ReplicaState` is exactly that, plus the constructor
configuration needed to rebuild the process around it — about 2 KB for
a 2¹⁴-vertex 2-state replica, where a pickled process object is ~40×
that.

Four process families have a record encoding, keyed by their ``name``:

==========================  ==========================================
family                      state bit-planes / config
==========================  ==========================================
``2-state``                 black (1 plane);
                            ``eager_white_promotion``
``3-state``                 states (2 planes); no config
``3-color``                 colors (2 planes) + switch levels (3
                            planes, ``levels``) and ``switch_round``;
                            ``a``, ``zeta``
``2-state (scheduled)``     black (1 plane); ``scheduler`` (and ``q``
                            for the independent daemon)
==========================  ==========================================

Each family's process class implements ``replica_state()`` (process →
record), ``restore(state)`` (record → an existing process, in place)
and ``from_replica_state(state, graph, ops)`` (record → a new process,
drawing no coins).  Only exact instances of the four classes with a
:class:`~repro.sim.rng.SeededCoins` stream encode; a 3-color process
additionally needs its default-shaped switch (a
:class:`~repro.core.switch.RandomizedLogSwitch` on the same graph and
coin stream).  :meth:`~repro.core.process.MISProcess.replica_unsupported`
says why an instance does not.

The fleet path (:mod:`repro.parallel`) ships these records to workers,
gets them back with :attr:`ReplicaState.outcome` filled in, and
journals them as the ``shard:{lo}:{hi}`` checkpoint blob.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.neighbor_ops import NeighborOps
    from repro.core.process import MISProcess
    from repro.graphs.graph import Graph

#: Fixed per-record allowance, on top of the packed bit-planes, that a
#: shipped record may take on the wire (family, config, coin state,
#: round, outcome and the pickle framing around them).
RECORD_HEADER_BYTES = 256


@cache
def _families() -> dict[str, type[MISProcess]]:
    from repro.core.schedulers import ScheduledTwoStateMIS
    from repro.core.three_color import ThreeColorMIS
    from repro.core.three_state import ThreeStateMIS
    from repro.core.two_state import TwoStateMIS

    return {
        cls.name: cls
        for cls in (
            TwoStateMIS,
            ThreeStateMIS,
            ThreeColorMIS,
            ScheduledTwoStateMIS,
        )
    }


def replica_class(family: str) -> type[MISProcess] | None:
    """The process class of a record family, or ``None`` if unknown."""
    return _families().get(family)


@dataclass
class ReplicaState:
    """One replica's resumable state (see the module docs).

    Attributes
    ----------
    family:
        The process family (the class's ``name``).
    n:
        Vertex count (the bit-planes' length).
    config:
        Constructor configuration (family-specific keys, see the
        module table); a restore target must match it.
    coins:
        The :class:`~repro.sim.rng.SeededCoins` ``{"key", "draw"}``.
    round:
        The process's round counter.
    state:
        The state vector, bit-packed.
    levels:
        3-color only: the switch levels, bit-packed (3 planes).
    switch_round:
        3-color only: the switch's round counter.
    outcome:
        Set on records coming back from a run:
        ``(stabilized, stabilization_round, rounds_executed)``.
    """

    family: str
    n: int
    config: dict[str, Any]
    coins: dict[str, int]
    round: int
    state: bytes
    levels: bytes | None = None
    switch_round: int = 0
    outcome: tuple[bool, int | None, int] | None = None

    def __reduce__(self) -> tuple[Any, ...]:
        # Positional: no field names on the wire or in the journal.
        return (ReplicaState, tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def packed_bytes(self) -> int:
        """Bytes of bit-planes the record carries (state + levels)."""
        return len(self.state) + len(self.levels or b"")

    def build(
        self, graph: Graph, ops: NeighborOps | None = None
    ) -> MISProcess:
        """A new process on ``graph`` positioned at this record.

        ``ops`` (a backend bound to ``graph``) is adopted when given —
        a worker shares one per graph across its shard.  No coins are
        drawn: the process continues the record's stream exactly.
        """
        cls = replica_class(self.family)
        if cls is None:
            raise TypeError(f"unknown replica family {self.family!r}")
        return cls.from_replica_state(self, graph, ops)
