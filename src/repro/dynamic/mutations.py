"""Deterministic, seekable topology-mutation streams.

A mutation stream is the service's fault model: an unbounded sequence
of topology events (edge flips, vertex joins/leaves).  Determinism and
seekability are the load-bearing properties — the checkpoint/resume
contract of :class:`~repro.dynamic.service.MISService` replays events
``0..k`` onto a fresh overlay to reconstruct the topology at offset
``k`` exactly, so :meth:`MutationStream.event_at` must be a pure
function of ``(seed, offset)`` and the overlay's *current* topology.
Each event draws from ``random.Random(f"{kind}:{seed}:{offset}")`` —
string seeding hashes via SHA-512, stable across processes and
platforms, the same discipline as :mod:`repro.parallel.chaos`.

Stream kinds (:data:`STREAM_KINDS`, built by :func:`make_stream`):

* ``"uniform"``  — global uniform churn: each event toggles a uniformly
  random vertex pair (insert if absent, delete if present).
* ``"flapping"`` — a fixed pool of links flapping on/off, the classic
  unstable-link fault model.
* ``"hub"``      — adversarial targeted churn: knock out the current
  highest-degree alive vertex; alternate events revive the
  lowest-numbered dead slot with a few random links.
* ``"burst"``    — localized churn: events arrive in fixed-size bursts
  that all touch the neighbourhood of one per-burst centre vertex.

:class:`ScriptedStream` wraps an explicit event list (tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class MutationEvent:
    """One topology mutation.

    ``kind`` ∈ {``"add-edge"``, ``"del-edge"``, ``"add-vertex"``,
    ``"del-vertex"``}; ``v`` is meaningful for edge events only,
    ``neighbors`` for ``"add-vertex"`` only.
    """

    kind: str
    u: int
    v: int = -1
    neighbors: tuple[int, ...] = ()

    def to_tuple(self) -> tuple:
        return (self.kind, self.u, self.v, tuple(self.neighbors))


class MutationStream:
    """Base class: a seeded, seekable event sequence (see module docs)."""

    kind: str = "abstract"

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 2:
            raise ValueError("mutation streams need n >= 2")
        self.n = int(n)
        self.seed = int(seed)

    def spec(self) -> dict[str, Any]:
        """Fingerprintable identity (stream kind + every parameter)."""
        out: dict[str, Any] = {
            "stream": self.kind,
            "n": self.n,
            "seed": self.seed,
        }
        out.update(self._params())
        return out

    def _params(self) -> dict[str, Any]:
        return {}

    def _rng(self, offset: int) -> random.Random:
        return random.Random(f"{self.kind}:{self.seed}:{offset}")

    def event_at(self, offset: int, overlay: Any) -> MutationEvent:
        """The event at ``offset`` given the overlay's current topology."""
        raise NotImplementedError


class ScriptedStream(MutationStream):
    """An explicit finite event list (tests and self-checks)."""

    kind = "scripted"

    def __init__(self, n: int, events: "list[MutationEvent]") -> None:
        super().__init__(n, seed=0)
        self.events = list(events)

    def _params(self) -> dict[str, Any]:
        return {"events": [e.to_tuple() for e in self.events]}

    def event_at(self, offset: int, overlay: Any) -> MutationEvent:
        return self.events[offset]


class UniformChurnStream(MutationStream):
    """Global uniform churn: each event toggles a random vertex pair."""

    kind = "uniform"

    def event_at(self, offset: int, overlay: Any) -> MutationEvent:
        rng = self._rng(offset)
        u = rng.randrange(self.n)
        v = rng.randrange(self.n - 1)
        if v >= u:
            v += 1
        if overlay.has_edge(u, v):
            return MutationEvent("del-edge", u, v)
        return MutationEvent("add-edge", u, v)


class FlappingLinkStream(MutationStream):
    """A fixed pool of ``links`` vertex pairs flapping on/off."""

    kind = "flapping"

    def __init__(self, n: int, seed: int = 0, links: int = 16) -> None:
        super().__init__(n, seed)
        self.links = int(links)
        if self.links < 1:
            raise ValueError("flapping streams need links >= 1")
        pool_rng = random.Random(f"{self.kind}:{self.seed}:pool")
        pool: set[tuple[int, int]] = set()
        limit = min(self.links, n * (n - 1) // 2)
        while len(pool) < limit:
            u = pool_rng.randrange(n)
            v = pool_rng.randrange(n - 1)
            if v >= u:
                v += 1
            pool.add((min(u, v), max(u, v)))
        self._pool = sorted(pool)

    def _params(self) -> dict[str, Any]:
        return {"links": self.links}

    def event_at(self, offset: int, overlay: Any) -> MutationEvent:
        rng = self._rng(offset)
        u, v = self._pool[rng.randrange(len(self._pool))]
        if overlay.has_edge(u, v):
            return MutationEvent("del-edge", u, v)
        return MutationEvent("add-edge", u, v)


class HubDeletionStream(MutationStream):
    """Adversarial targeted churn: delete the current max-degree vertex.

    Odd offsets (when any slot is dead) revive the lowest-numbered dead
    slot with up to ``rewire`` random links to alive vertices, so the
    graph is churned rather than consumed.  Ties on degree break to the
    lowest index — fully deterministic.
    """

    kind = "hub"

    def __init__(self, n: int, seed: int = 0, rewire: int = 3) -> None:
        super().__init__(n, seed)
        self.rewire = int(rewire)

    def _params(self) -> dict[str, Any]:
        return {"rewire": self.rewire}

    def event_at(self, offset: int, overlay: Any) -> MutationEvent:
        rng = self._rng(offset)
        dead = np.flatnonzero(~overlay.alive)
        alive = np.flatnonzero(overlay.alive)
        if (offset % 2 == 1 and dead.size) or alive.size == 0:
            u = int(dead[0])
            others = alive[alive != u]
            k = min(self.rewire, int(others.size))
            nbrs = tuple(
                int(others[rng.randrange(others.size)]) for _ in range(k)
            )
            return MutationEvent("add-vertex", u, neighbors=nbrs)
        degs = overlay.degrees()
        hub = int(alive[np.argmax(degs[alive])])
        return MutationEvent("del-vertex", hub)


class LocalizedBurstStream(MutationStream):
    """Localized churn: bursts of events around one centre per burst."""

    kind = "burst"

    def __init__(self, n: int, seed: int = 0, burst: int = 8) -> None:
        super().__init__(n, seed)
        self.burst = int(burst)
        if self.burst < 1:
            raise ValueError("burst streams need burst >= 1")

    def _params(self) -> dict[str, Any]:
        return {"burst": self.burst}

    def event_at(self, offset: int, overlay: Any) -> MutationEvent:
        block = offset // self.burst
        center = random.Random(
            f"{self.kind}:{self.seed}:centre:{block}"
        ).randrange(self.n)
        rng = self._rng(offset)
        nbrs = overlay.neighbors_of(center)
        if nbrs.size and rng.random() < 0.5:
            w = int(nbrs[rng.randrange(int(nbrs.size))])
            return MutationEvent("del-edge", center, w)
        w = rng.randrange(self.n - 1)
        if w >= center:
            w += 1
        if overlay.has_edge(center, w):
            return MutationEvent("del-edge", center, w)
        return MutationEvent("add-edge", center, w)


#: Seeded stream kinds accepted by :func:`make_stream`.
STREAM_KINDS = ("uniform", "flapping", "hub", "burst")

_STREAMS: dict[str, type[MutationStream]] = {
    "uniform": UniformChurnStream,
    "flapping": FlappingLinkStream,
    "hub": HubDeletionStream,
    "burst": LocalizedBurstStream,
}


def make_stream(
    kind: str, n: int, seed: int = 0, **params: Any
) -> MutationStream:
    """Construct a seeded mutation stream by kind (:data:`STREAM_KINDS`)."""
    if kind not in _STREAMS:
        raise ValueError(
            f"unknown stream kind {kind!r}; expected one of {STREAM_KINDS}"
        )
    return _STREAMS[kind](n, seed, **params)
