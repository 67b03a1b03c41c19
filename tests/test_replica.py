"""Tests for replica state records (:mod:`repro.core.replica`).

The fleet path ships replicas as packed :class:`ReplicaState` records,
so two round trips must be exact for every record family:

* ``restore(replica_state(p))`` into another process, and
* the worker-side construction ``record.build(graph)``,

each reproducing ``state_vector()``, ``round`` (and the 3-color
switch's levels and round) and the next coin draws.  Plus: what has
no record is refused, and the fleet runs 3-color and scheduled fleets
to exactly where their references end.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batched import BatchedTwoStateMIS
from repro.core.replica import RECORD_HEADER_BYTES, ReplicaState
from repro.core.schedulers import (
    AdversarialGreedyScheduler,
    IndependentScheduler,
    ScheduledTwoStateMIS,
    SingleVertexScheduler,
)
from repro.core.states import pack_state, unpack_state
from repro.core.switch import OracleSwitch, RandomizedLogSwitch
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.parallel import leaked_segments, unshippable
from repro.sim.rng import ScriptedCoins, SeededCoins

from oracle import check_fleet, fleet

SIZES = (0, 1, 7, 64, 65)


def _graph(n, seed):
    return gnp_random_graph(n, min(1.0, 3.0 / max(n, 1)), rng=seed)


def _make(family, graph, seed):
    if family == "2-state":
        return TwoStateMIS(graph, coins=seed)
    if family == "2-state-eager":
        return TwoStateMIS(graph, coins=seed, eager_white_promotion=True)
    if family == "3-state":
        return ThreeStateMIS(graph, coins=seed)
    if family == "3-color":
        return ThreeColorMIS(graph, coins=seed, a=64)
    if family == "scheduled":
        return ScheduledTwoStateMIS(
            graph, IndependentScheduler(0.5), coins=seed
        )
    if family == "scheduled-single":
        return ScheduledTwoStateMIS(graph, SingleVertexScheduler(), coins=seed)
    return ScheduledTwoStateMIS(
        graph, AdversarialGreedyScheduler(), coins=seed
    )


FAMILIES = (
    "2-state",
    "2-state-eager",
    "3-state",
    "3-color",
    "scheduled",
    "scheduled-single",
    "scheduled-greedy",
)


def _assert_same(a, b):
    assert type(a) is type(b)
    assert a.round == b.round
    assert np.array_equal(a.state_vector(), b.state_vector())
    assert a.state_vector().dtype == b.state_vector().dtype
    if isinstance(a, ThreeColorMIS):
        assert np.array_equal(a.switch.levels, b.switch.levels)
        assert a.switch.round == b.switch.round
        assert b.switch.coins is b.coins
    # Same stream position: clones draw the same next coins.
    assert a.coins.state == b.coins.state
    assert np.array_equal(
        SeededCoins.from_state(a.coins.state).bits(8),
        SeededCoins.from_state(b.coins.state).bits(8),
    )


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**16),
    rounds=st.integers(0, 6),
)
def test_restore_and_build_roundtrip(family, n, seed, rounds):
    # (The single-vertex daemon cannot step an empty graph.)
    rounds = rounds if n else 0
    graph = _graph(n, seed)
    source = _make(family, graph, seed)
    source.step(rounds)
    record = source.replica_state()
    record = pickle.loads(pickle.dumps(record))  # the wire
    # Restore into a process of the same configuration but another
    # stream, state and round.
    target = _make(family, graph, seed + 1)
    target.step(1 if n else 0)
    target.restore(record)
    built = record.build(graph)
    twin = _make(family, graph, seed)
    twin.step(rounds)
    _assert_same(twin, target)
    twin = _make(family, graph, seed)
    twin.step(rounds)
    _assert_same(twin, built)
    # And the trajectories go on identically (frontier caches reset).
    for proc in (source, target, built):
        proc.step(3 if n else 0)
    assert np.array_equal(source.state_vector(), target.state_vector())
    assert np.array_equal(source.state_vector(), built.state_vector())


@pytest.mark.parametrize("n", SIZES)
def test_record_size_is_packed_state_plus_header(n):
    for family in FAMILIES:
        record = _make(family, _graph(n, 1), 3).replica_state()
        planes = {"3-state": 2, "3-color": 5}.get(family, 1)
        assert record.packed_bytes == planes * -(-n // 8)
        assert len(pickle.dumps(record)) <= (
            record.packed_bytes + RECORD_HEADER_BYTES
        )


def test_k_plane_codec_roundtrip():
    rng = np.random.default_rng(5)
    for planes, top in ((1, 2), (2, 3), (3, 6)):
        for n in SIZES:
            values = rng.integers(0, top, size=n).astype(np.int8)
            blob = pack_state(values, planes)
            assert len(blob) == planes * -(-n // 8)
            out = unpack_state(blob, n, np.int8, planes)
            assert out.dtype == np.int8
            np.testing.assert_array_equal(out, values)
    with pytest.raises(ValueError, match="bit-plane"):
        unpack_state(b"\0" * 3, 9, np.int8, 3)


def test_restore_rejects_mismatched_family_or_n():
    graph = _graph(10, 1)
    two = TwoStateMIS(graph, coins=1)
    three = ThreeStateMIS(graph, coins=1)
    with pytest.raises(TypeError, match="cannot restore"):
        two.restore(three.replica_state())
    scheduled = ScheduledTwoStateMIS(graph, coins=1)
    with pytest.raises(TypeError, match="cannot restore"):
        two.restore(scheduled.replica_state())
    bigger = TwoStateMIS(_graph(11, 1), coins=1)
    with pytest.raises(ValueError, match="n=11"):
        two.restore(bigger.replica_state())
    eager = TwoStateMIS(graph, coins=1, eager_white_promotion=True)
    with pytest.raises(ValueError, match="config"):
        two.restore(eager.replica_state())
    with pytest.raises(TypeError, match="unknown replica family"):
        ReplicaState("4-state", 10, {}, {"key": 1, "draw": 0}, 0, b"").build(
            graph
        )


def test_unencodable_processes_are_refused():
    graph = _graph(12, 2)

    class Custom(TwoStateMIS):
        pass

    oracle = ThreeColorMIS(graph, coins=1, switch=OracleSwitch(12, 2, 3))
    foreign = ThreeColorMIS(
        graph, coins=1, switch=RandomizedLogSwitch(graph, coins=2)
    )
    scripted = TwoStateMIS(graph, coins=ScriptedCoins([[True] * 12] * 2))
    for proc in (Custom(graph, coins=1), oracle, foreign, scripted):
        assert proc.replica_unsupported() is not None
        assert unshippable(proc) is not None
        with pytest.raises(TypeError):
            proc.replica_state()
    assert TwoStateMIS(graph, coins=1).replica_unsupported() is None


def _three_color_fleet():
    return fleet("3-color", [_graph(40, 4)] * 5, seed=700)


def _scheduled_fleet():
    graphs = [_graph(40, 10 + i) for i in range(5)]
    return fleet("independent", graphs, seed=800)


@pytest.mark.parametrize("make", [_three_color_fleet, _scheduled_fleet])
def test_fleet_matches_serial_for_record_families(make):
    # A fixed oracle case: the records carry every replica through the
    # workers to where its literal reference ends.
    check_fleet(make(), n_jobs=2)
    assert leaked_segments() == []


def test_batched_verification_names_the_failing_replica():
    graph = _graph(64, 6)
    fleet = [TwoStateMIS(graph, coins=900 + i) for i in range(6)]
    engine = BatchedTwoStateMIS(fleet)
    results = engine.run(max_rounds=2000)
    assert all(r.stabilized for r in results)
    # A valid group passes; corrupt one row's MIS and the one batched
    # check names that replica's row.
    engine._verify_retired(list(range(6)), results)
    bad = results[4].mis
    results[4].mis = np.union1d(bad, graph.neighbors(int(bad[0]))[:1])
    with pytest.raises(AssertionError, match=r"row 4: independence"):
        engine._verify_retired(list(range(6)), results)
    results[4].mis = bad[1:]
    with pytest.raises(AssertionError, match=r"row 4: maximality"):
        engine._verify_retired(list(range(6)), results)


def test_empty_graph_records():
    graph = Graph(0, [])
    for family in FAMILIES:
        record = _make(family, graph, 1).replica_state()
        assert record.state == b"" and record.n == 0
