"""DeltaOverlay/DeltaNeighborOps correctness and the repair==rebuild law.

Two layers of guarantees:

* The overlay is an exact mutable view: every query (``has_edge``,
  ``neighbors_of``, ``degrees``, ``count``, ``gather``,
  ``apply_count_delta``) answers identically to a from-scratch
  immutable :class:`~repro.graphs.graph.Graph` built from the same
  edge set, before and after compaction.
* The frontier's incremental topology repair is exact: after *any*
  mutation sequence — random edge flips, vertex churn, corrupted
  states, interleaved rounds, 2-state and 3-state — the repaired
  :class:`~repro.core.frontier.FrontierAggregates` are bitwise-identical
  to a from-scratch ``rebuild()`` on the snapshot graph.  Hypothesis
  drives the sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frontier import FrontierAggregates
from repro.core.neighbor_ops import SparseNeighborOps
from repro.core.states import BLACK1, WHITE
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.dynamic import (
    DeltaNeighborOps,
    DeltaOverlay,
    MISService,
    MutationEvent,
    ScriptedStream,
)
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph


def edge_set(graph: Graph) -> set:
    us, vs = graph.edge_arrays()
    return set(zip(us.tolist(), vs.tolist()))


def overlay_edge_set(overlay: DeltaOverlay) -> set:
    return edge_set(overlay.snapshot())


# ---------------------------------------------------------------------------
# DeltaOverlay vs a pure-python reference edge set
# ---------------------------------------------------------------------------


class TestDeltaOverlay:
    def test_toggles_match_reference(self):
        graph = gnp_random_graph(30, 0.15, rng=0)
        overlay = DeltaOverlay(graph)
        ref = edge_set(graph)
        rng = np.random.default_rng(1)
        for _ in range(300):
            u, v = rng.integers(0, 30, size=2)
            if u == v:
                continue
            key = (min(int(u), int(v)), max(int(u), int(v)))
            if rng.random() < 0.5:
                changed = overlay.add_edge(u, v)
                assert changed == (key not in ref)
                ref.add(key)
            else:
                changed = overlay.remove_edge(u, v)
                assert changed == (key in ref)
                ref.discard(key)
            assert overlay.m == len(ref)
            assert overlay.has_edge(u, v) == ((key[0], key[1]) in ref)
        assert overlay_edge_set(overlay) == ref
        # Invariants: added disjoint from base, removed subset of base.
        base_keys = {u * overlay.n + v for u, v in edge_set(overlay.base)}
        assert not (overlay._added & base_keys)
        assert overlay._removed <= base_keys

    def test_flapping_never_grows_delta(self):
        graph = gnp_random_graph(20, 0.2, rng=3)
        overlay = DeltaOverlay(graph)
        us, vs = graph.edge_arrays()
        u, v = int(us[0]), int(vs[0])
        for _ in range(10):
            assert overlay.remove_edge(u, v)
            assert overlay.delta_size() == 1
            assert overlay.add_edge(u, v)
            assert overlay.delta_size() == 0

    def test_neighbors_and_degrees(self):
        graph = gnp_random_graph(25, 0.2, rng=5)
        overlay = DeltaOverlay(graph)
        rng = np.random.default_rng(7)
        for _ in range(120):
            u, v = rng.integers(0, 25, size=2)
            if u == v:
                continue
            if rng.random() < 0.5:
                overlay.add_edge(u, v)
            else:
                overlay.remove_edge(u, v)
        snap = overlay.snapshot()
        for u in range(25):
            np.testing.assert_array_equal(
                overlay.neighbors_of(u), np.sort(snap._row(u))
            )
        np.testing.assert_array_equal(overlay.degrees(), snap.degrees())
        assert overlay.volume() == 2 * snap.m

    def test_vertex_churn(self):
        graph = gnp_random_graph(16, 0.3, rng=2)
        overlay = DeltaOverlay(graph)
        deg_before = int(overlay.degrees()[3])
        rem_us, rem_vs = overlay.remove_vertex(3)
        assert rem_us.size == deg_before
        assert not overlay.alive[3]
        assert overlay.neighbors_of(3).size == 0
        assert overlay.degrees()[3] == 0
        add_us, add_vs = overlay.add_vertex(3, (0, 1, 1, 3, 5))
        assert overlay.alive[3]
        # Self-loop and duplicate skipped; edges {3,0}, {3,1}, {3,5}.
        assert sorted(add_vs.tolist()) == [0, 1, 5]
        np.testing.assert_array_equal(
            overlay.neighbors_of(3), np.array([0, 1, 5])
        )

    def test_apply_event_returns_effective_delta(self):
        graph = gnp_random_graph(12, 0.3, rng=4)
        overlay = DeltaOverlay(graph)
        us, vs = graph.edge_arrays()
        u, v = int(us[0]), int(vs[0])
        # Adding a present edge is a no-op: four empty arrays.
        out = overlay.apply_event(MutationEvent("add-edge", u, v))
        assert all(a.size == 0 for a in out)
        au, av, ru, rv = overlay.apply_event(MutationEvent("del-edge", u, v))
        assert (ru.tolist(), rv.tolist()) == ([u], [v])
        with pytest.raises(ValueError):
            overlay.apply_event(MutationEvent("frobnicate", 0))

    def test_compaction_is_representation_only(self):
        graph = gnp_random_graph(24, 0.2, rng=9)
        overlay = DeltaOverlay(graph, compact_fraction=0.01)
        degrees_obj = overlay.degrees()
        rng = np.random.default_rng(11)
        for _ in range(60):
            u, v = rng.integers(0, 24, size=2)
            if u == v:
                continue
            before = overlay_edge_set(overlay)
            if rng.random() < 0.5:
                overlay.add_edge(u, v)
            else:
                overlay.remove_edge(u, v)
            if overlay.should_compact():
                after = overlay_edge_set(overlay)
                overlay.compact()
                assert overlay.delta_size() == 0
                assert edge_set(overlay.base) == after
                # The degrees array object survives compaction.
                assert overlay.degrees() is degrees_obj
        assert overlay.compactions > 0

    def test_rejects_bad_vertices_and_self_loops(self):
        overlay = DeltaOverlay(gnp_random_graph(8, 0.2, rng=0))
        with pytest.raises(IndexError):
            overlay.add_edge(0, 8)
        with pytest.raises(IndexError):
            overlay.remove_edge(-1, 2)
        with pytest.raises(ValueError):
            overlay.add_edge(3, 3)
        assert not overlay.has_edge(3, 3)
        assert not overlay.has_edge(0, 99)


# ---------------------------------------------------------------------------
# DeltaNeighborOps vs the static backends on the snapshot graph
# ---------------------------------------------------------------------------


def churned_overlay(n=28, p=0.15, steps=150, seed=13):
    overlay = DeltaOverlay(gnp_random_graph(n, p, rng=seed))
    rng = np.random.default_rng(seed + 1)
    for _ in range(steps):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        if rng.random() < 0.5:
            overlay.add_edge(u, v)
        else:
            overlay.remove_edge(u, v)
    return overlay


class TestDeltaNeighborOps:
    def test_count_matches_snapshot_backend(self):
        overlay = churned_overlay()
        ops = DeltaNeighborOps(overlay)
        snap_ops = SparseNeighborOps(overlay.snapshot())
        rng = np.random.default_rng(2)
        for _ in range(20):
            mask = rng.random(overlay.n) < rng.random()
            np.testing.assert_array_equal(
                ops.count(mask), snap_ops.count(mask)
            )

    def test_gather_matches_snapshot(self):
        overlay = churned_overlay(seed=21)
        ops = DeltaNeighborOps(overlay)
        snap = overlay.snapshot()
        snap_ops = SparseNeighborOps(snap)
        rng = np.random.default_rng(3)
        verts = np.unique(rng.integers(0, overlay.n, size=10))
        got = np.sort(ops.gather(verts))
        want = np.sort(snap_ops.gather(verts))
        np.testing.assert_array_equal(got, want)

    def test_apply_count_delta_matches(self):
        overlay = churned_overlay(seed=31)
        ops = DeltaNeighborOps(overlay)
        snap_ops = SparseNeighborOps(overlay.snapshot())
        rng = np.random.default_rng(4)
        counts_a = np.zeros(overlay.n, dtype=np.int64)
        counts_b = np.zeros(overlay.n, dtype=np.int64)
        up = np.unique(rng.integers(0, overlay.n, size=6))
        down = np.unique(rng.integers(0, overlay.n, size=4))
        ops.apply_count_delta(counts_a, up, down)
        snap_ops.apply_count_delta(counts_b, up, down)
        np.testing.assert_array_equal(counts_a, counts_b)

    def test_rebase_after_compaction(self):
        overlay = churned_overlay(seed=41)
        ops = DeltaNeighborOps(overlay)
        mask = np.arange(overlay.n) % 3 == 0
        before = ops.count(mask)
        overlay.compact()
        ops.rebase()
        assert ops.graph is overlay.base
        np.testing.assert_array_equal(ops.count(mask), before)

    def test_inherited_reductions(self):
        overlay = churned_overlay(seed=51)
        ops = DeltaNeighborOps(overlay)
        snap_ops = SparseNeighborOps(overlay.snapshot())
        mask = np.arange(overlay.n) % 2 == 0
        np.testing.assert_array_equal(ops.exists(mask), snap_ops.exists(mask))
        np.testing.assert_array_equal(
            ops.degrees(), overlay.snapshot().degrees()
        )
        assert ops.volume() == 2 * overlay.m


# ---------------------------------------------------------------------------
# Hypothesis: windows of mutations between queries == the snapshot backend
# ---------------------------------------------------------------------------

#: One window of overlay mutations as (op, a, b) integers, reduced at
#: application time; the queries run only between windows, so each sync
#: merges a whole window of touched keys.
WINDOWS = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=6,
)


def _mutate(overlay, ops, base_edges, op, a, b):
    n = overlay.n
    u, v = a % n, b % n
    if op <= 2:  # toggle
        if u != v:
            if overlay.has_edge(u, v):
                overlay.remove_edge(u, v)
            else:
                overlay.add_edge(u, v)
    elif op == 3 and base_edges:  # remove a base edge, then re-add it
        x, y = base_edges[a % len(base_edges)]
        overlay.remove_edge(x, y)
        overlay.add_edge(x, y)
    elif op == 4 and base_edges:  # remove a base edge (re-added later)
        overlay.remove_edge(*base_edges[a % len(base_edges)])
    elif op == 5 and u != v:  # add and remove the same key
        overlay.add_edge(u, v)
        overlay.remove_edge(u, v)
    elif op == 6:
        overlay.remove_vertex(u)
    elif op == 7:
        overlay.add_vertex(u, (v, (v + 1) % n))
    elif op == 8 and overlay.delta_fraction() > b / 255:
        overlay.compact()
        ops.rebase()


def _assert_matches_snapshot(overlay, ops, rng):
    n = overlay.n
    snap = overlay.snapshot()
    ref = SparseNeighborOps(snap)
    np.testing.assert_array_equal(ops.degrees(), snap.degrees())
    for u in range(n):
        np.testing.assert_array_equal(
            overlay.neighbors_of(u), np.sort(snap._row(u)).astype(np.int64)
        )
    for _ in range(3):
        mask = rng.random(n) < rng.random()
        np.testing.assert_array_equal(ops.count(mask), ref.count(mask))
        verts = rng.integers(0, n, size=rng.integers(0, n + 1))
        got = ops.gather(verts)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(np.sort(got), np.sort(ref.gather(verts)))
        counts = rng.integers(0, 4, size=n).astype(np.int64)
        want = counts.copy()
        up = np.unique(rng.integers(0, n, size=3))
        down = np.setdiff1d(np.unique(rng.integers(0, n, size=3)), up)
        ops.apply_count_delta(counts, up, down)
        ref.apply_count_delta(want, up, down)
        np.testing.assert_array_equal(counts, want)


@settings(max_examples=60, deadline=None)
@given(
    windows=WINDOWS,
    n=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_mutation_windows_match_snapshot_backend(windows, n, seed):
    """Every query after a window of mutations == the snapshot CSR backend."""
    graph = gnp_random_graph(n, 0.3, rng=seed)
    overlay = DeltaOverlay(graph)
    ops = DeltaNeighborOps(overlay)
    us, vs = graph.edge_arrays()
    base_edges = list(zip(us.tolist(), vs.tolist()))
    rng = np.random.default_rng(seed)
    for window in windows:
        for op, a, b in window:
            _mutate(overlay, ops, base_edges, op, a, b)
        _assert_matches_snapshot(overlay, ops, rng)


def test_correction_cost_tracks_the_touched_keys(monkeypatch):
    """A sync merges only the keys touched since the previous one, and a
    gather over rows that lost no edge never builds or probes src keys."""
    import repro.dynamic.overlay as overlay_mod

    n = 2**10
    overlay = DeltaOverlay(gnp_random_graph(n, 3.0 / n, rng=3))
    ops = DeltaNeighborOps(overlay)
    us, vs = overlay.base.edge_arrays()
    a, b = int(us[0]), int(vs[0])
    overlay.remove_edge(a, b)
    rng = np.random.default_rng(4)
    for _ in range(300):
        overlay.add_edge(*rng.choice(n, size=2, replace=False))
    ops.gather(np.arange(n))

    calls = {"merged": [], "_gather_rows": 0, "_hit": 0}
    merge = overlay_mod._merge

    def spy_merge(mirror, leaving, entering, n):
        calls["merged"].append(len(leaving) + len(entering))
        return merge(mirror, leaving, entering, n)

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(overlay_mod, "_merge", spy_merge)
    spy(Graph, "_gather_rows")
    spy(DeltaOverlay, "_hit")
    x, y = next(
        (int(x), int(y)) for x, y in rng.integers(0, n, size=(100, 2))
        if x != y and not overlay.has_edge(x, y) and a not in (x, y)
        and b not in (x, y)
    )
    overlay.add_edge(x, y)
    overlay.add_edge(y, x)  # no-op: not touched again
    overlay.add_edge(x, (x + 1) % n)  # a key added and removed again
    overlay.remove_edge(x, (x + 1) % n)
    clean = np.setdiff1d(np.arange(n), [a, b])
    got = ops.gather(clean)
    assert calls["merged"] == [1, 0]  # one key enters the add mirror
    assert calls["_gather_rows"] == calls["_hit"] == 0
    ref = SparseNeighborOps(overlay.snapshot())
    np.testing.assert_array_equal(np.sort(got), np.sort(ref.gather(clean)))
    ops.gather(clean)
    assert calls["merged"] == [1, 0]  # nothing touched since
    ops.gather(np.array([a]))
    assert calls["_gather_rows"] == calls["_hit"] == 1


# ---------------------------------------------------------------------------
# Hypothesis: incremental topology repair == from-scratch rebuild
# ---------------------------------------------------------------------------

#: One mutation as draw-friendly integers: (op, a, b).  ``op`` selects
#: edge-toggle / vertex-kill / vertex-revive / state-corruption /
#: round-step; a and b are reduced mod n at application time.
MUTATIONS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=30,
)


def _assert_repair_matches_rebuild(service: MISService) -> None:
    """The engine's repaired aggregates == a from-scratch rebuild."""
    frontier = service.proc._frontier
    token, black, aux = service._state_arrays()
    if frontier is None or frontier.token is not token:
        return  # nothing incremental to audit
    _assert_frontier_exact(service.overlay, frontier, black, aux)


def _drive(process: str, n: int, p_seed: int, moves) -> None:
    graph = gnp_random_graph(n, 0.2, rng=p_seed)
    events = []
    for op, a, b in moves:
        u, v = a % n, b % n
        if op <= 5:  # edge toggles dominate the mix
            if u != v:
                events.append(MutationEvent("toggle", u, v))
        elif op == 6:
            events.append(MutationEvent("del-vertex", u))
        elif op == 7:
            events.append(
                MutationEvent("add-vertex", u, neighbors=(v, (v + 1) % n))
            )
        else:
            events.append(MutationEvent("corrupt-or-step", u, v))
    if not events:
        return
    service = MISService(
        graph,
        ScriptedStream(n, [MutationEvent("add-edge", 0, 1)]),  # placeholder
        seed=p_seed,
        process=process,
        settle_every=3,
        compact_fraction=0.5,
    )
    rng = np.random.default_rng(p_seed)
    for event in events:
        if event.kind == "toggle":
            kind = (
                "del-edge"
                if service.overlay.has_edge(event.u, event.v)
                else "add-edge"
            )
            real = MutationEvent(kind, event.u, event.v)
        elif event.kind == "corrupt-or-step":
            # Corruption (stale token → rebuild path) or a plain round
            # (advance path); both must leave repair exact afterwards.
            if event.v % 2:
                if process == "3-state":
                    states = rng.integers(0, 3, size=n).astype(np.int8)
                    service.proc.corrupt(states)
                else:
                    service.proc.corrupt(rng.random(n) < 0.5)
            else:
                service.proc.step()
            _assert_repair_matches_rebuild(service)
            continue
        else:
            real = event
        service.apply_event(real)
        _assert_repair_matches_rebuild(service)
    # Drain to stability and audit once more.
    service.proc.step(5)
    _assert_repair_matches_rebuild(service)


@settings(max_examples=40, deadline=None)
@given(
    moves=MUTATIONS,
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_repair_matches_rebuild_two_state(moves, n, seed):
    _drive("2-state", n, seed, moves)


@settings(max_examples=40, deadline=None)
@given(
    moves=MUTATIONS,
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_repair_matches_rebuild_three_state(moves, n, seed):
    _drive("3-state", n, seed, moves)


def test_direct_topology_delta_actions():
    """apply_topology_delta's three outcomes, pinned deterministically."""
    graph = gnp_random_graph(40, 0.1, rng=17)
    overlay = DeltaOverlay(graph)
    ops = DeltaNeighborOps(overlay)
    proc = TwoStateMIS(graph, coins=3, ops=ops)
    proc.run(max_rounds=500)
    frontier = proc._frontier_aggregates()
    assert frontier is not None and frontier.token is proc.black
    empty = np.zeros(0, dtype=np.int64)

    # Adding an edge between two non-stable-adjacent vertices: repair.
    white = np.flatnonzero(~proc.black)
    if white.size >= 2:
        u, v = int(white[0]), int(white[1])
        if not overlay.has_edge(u, v):
            overlay.add_edge(u, v)
            action = frontier.apply_topology_delta(
                proc.black,
                np.array([u]), np.array([v]), empty, empty,
                token=proc.black,
            )
            assert action in ("repair", "repair+recover")
            proc._topology_changed()
            _assert_frontier_exact(overlay, frontier, proc.black)

    # Deleting an edge incident to a stable vertex: repair+recover.
    stable = np.flatnonzero(frontier.stable)
    u = int(stable[0])
    nbrs = overlay.neighbors_of(u)
    if nbrs.size:
        v = int(nbrs[0])
        overlay.remove_edge(u, v)
        action = frontier.apply_topology_delta(
            proc.black,
            empty, empty, np.array([u]), np.array([v]),
            token=proc.black,
        )
        assert action == "repair+recover"
        proc._topology_changed()
        _assert_frontier_exact(overlay, frontier, proc.black)

    # A stale token always falls back to rebuild.
    frontier.invalidate()
    action = frontier.apply_topology_delta(
        proc.black, empty, empty, empty, empty, token=proc.black
    )
    assert action == "rebuild"
    assert frontier.topology_rebuilds >= 1
    assert frontier.topology_repairs >= 1


def _assert_frontier_exact(overlay, frontier, black, aux=None):
    snap = overlay.snapshot()
    ops = SparseNeighborOps(snap)
    ref = FrontierAggregates(snap, ops, track_aux=frontier.track_aux)
    ref.rebuild(black, black, aux=aux)
    np.testing.assert_array_equal(frontier.counts, ref.counts)
    np.testing.assert_array_equal(frontier.has_black, ref.has_black)
    np.testing.assert_array_equal(frontier.stable, ref.stable)
    np.testing.assert_array_equal(frontier.covered, ref.covered)
    assert frontier.unstable_total == ref.unstable_total
    if frontier.track_aux:
        # The black1 count covers the black1 vertices outside I_t.
        expected = ops.count(aux & ~frontier.stable)
        np.testing.assert_array_equal(frontier.aux_counts, expected)
        np.testing.assert_array_equal(frontier.aux_has, expected > 0)
        np.testing.assert_array_equal(frontier.aux_counts, ref.aux_counts)


def test_direct_topology_delta_three_state():
    """Edges between black1 vertices move them out of and into I_t."""
    graph = gnp_random_graph(60, 0.05, rng=11)
    overlay = DeltaOverlay(graph)
    ops = DeltaNeighborOps(overlay)
    proc = ThreeStateMIS(graph, coins=4, ops=ops)
    proc.run(max_rounds=500)
    frontier = proc._frontier_aggregates()
    states = proc.states
    black, aux = states != WHITE, states == BLACK1
    pair = [
        int(v) for v in np.flatnonzero(frontier.stable & aux)
    ][:2]
    assert len(pair) == 2 and not overlay.has_edge(*pair)
    u, v = np.array(pair[:1]), np.array(pair[1:])
    empty = np.zeros(0, dtype=np.int64)
    for adds, rems in (((u, v), (empty, empty)), ((empty, empty), (u, v))):
        if adds[0].size:
            overlay.add_edge(pair[0], pair[1])
        else:
            overlay.remove_edge(pair[0], pair[1])
        action = frontier.apply_topology_delta(
            black, *adds, *rems, token=states, aux=aux
        )
        assert action in ("repair", "repair+recover")
        proc._topology_changed()
        # Joined by an edge, both leave I_t; parted again, both return.
        assert frontier.stable[pair].all() == (rems[0].size > 0)
        _assert_frontier_exact(overlay, frontier, black, aux)


def test_huge_delta_falls_back_to_rebuild():
    """A delta bigger than the scatter threshold rebuilds (adaptive)."""
    graph = gnp_random_graph(30, 0.4, rng=23)
    overlay = DeltaOverlay(graph)
    ops = DeltaNeighborOps(overlay)
    proc = TwoStateMIS(graph, coins=5, ops=ops)
    proc.run(max_rounds=500)
    frontier = proc._frontier_aggregates()
    assert frontier is not None
    rem_us, rem_vs = overlay.remove_vertex(int(np.argmax(overlay.degrees())))
    # Hand the frontier a delta worth more than crossover * volume.
    while frontier.changed_volume(
        np.concatenate((rem_us, rem_vs))
    ) <= frontier._threshold:
        u = int(np.argmax(overlay.degrees()))
        ru, rv = overlay.remove_vertex(u)
        rem_us = np.concatenate((rem_us, ru))
        rem_vs = np.concatenate((rem_vs, rv))
    empty = np.zeros(0, dtype=np.int64)
    action = frontier.apply_topology_delta(
        proc.black, empty, empty, rem_us, rem_vs, token=proc.black
    )
    assert action == "rebuild"
    _assert_frontier_exact(overlay, frontier, proc.black)


# ---------------------------------------------------------------------------
# Local coverage recovery: each trigger of "repair+recover", and its cost
# ---------------------------------------------------------------------------


def _settled_service(process, n, seed):
    """A stabilized service that applies events without settling them."""
    service = MISService(
        gnp_random_graph(n, 3.0 / n, rng=seed),
        ScriptedStream(n, [MutationEvent("add-edge", 0, 1)]),  # unused
        process=process,
        seed=seed,
        settle_every=2**62,
    )
    assert service.is_stable()
    return service


def _apply_exact(service, kind, u, v=-1):
    """Apply one event; the repaired aggregates must equal a rebuild."""
    record = service.apply_event(MutationEvent(kind, u, v))
    token, black, aux = service._state_arrays()
    frontier = service.proc._frontier
    assert frontier.token is token
    _assert_frontier_exact(service.overlay, frontier, black, aux)
    return record


def _sole_cover(frontier, overlay):
    """A stable vertex with a neighbour whose only stable neighbour it is."""
    for s in np.flatnonzero(frontier.stable):
        for w in overlay.neighbors_of(s):
            if frontier.stable[overlay.neighbors_of(w)].sum() == 1:
                return int(s), int(w)
    raise AssertionError("no solely-covered vertex")


@pytest.mark.parametrize("process", ["2-state", "3-state"])
def test_stable_pair_insertion_recovers_locally(process):
    """Joining two stable vertices uncovers their sole dependants.

    Parting them again re-adds both to I_t while the deleted edge still
    fires the recover branch, so the monotone additions must follow it.
    """
    service = _settled_service(process, 400, seed=7)
    frontier = service.proc._frontier
    u, w = _sole_cover(frontier, service.overlay)
    v = next(
        int(s) for s in np.flatnonzero(frontier.stable)
        if s != u and not service.overlay.has_edge(u, s)
    )
    before = frontier.unstable_total
    assert _apply_exact(service, "add-edge", u, v).action == "repair+recover"
    assert not frontier.stable[[u, v]].any()
    assert not frontier.covered[w]
    assert frontier.unstable_total > before
    assert _apply_exact(service, "del-edge", u, v).action == "repair+recover"
    assert frontier.stable[[u, v]].all()
    assert frontier.unstable_total == before


def test_deleting_sole_stable_edge_uncovers_white():
    service = _settled_service("2-state", 400, seed=8)
    frontier = service.proc._frontier
    s, w = _sole_cover(frontier, service.overlay)
    before = frontier.unstable_total
    assert _apply_exact(service, "del-edge", s, w).action == "repair+recover"
    assert frontier.stable[s] and not frontier.covered[w]
    assert frontier.unstable_total == before + 1


@pytest.mark.parametrize("process", ["2-state", "3-state"])
def test_deleting_stable_hub_recovers_locally(process):
    """Its sole dependants lose their cover; the hub itself stays stable."""
    service = _settled_service(process, 400, seed=9)
    frontier, overlay = service.proc._frontier, service.overlay

    def dependants(s):
        return sum(
            frontier.stable[overlay.neighbors_of(w)].sum() == 1
            for w in overlay.neighbors_of(s)
        )

    hub = int(max(np.flatnonzero(frontier.stable), key=dependants))
    lost = dependants(hub)
    assert lost >= 2
    before = frontier.unstable_total
    record = _apply_exact(service, "del-vertex", hub)
    assert record.action == "repair+recover" and record.removed >= lost
    assert frontier.stable[hub]  # parked as an isolated singleton
    assert frontier.unstable_total == before + lost


def test_recover_gathers_only_near_the_delta(monkeypatch):
    """A stable-pair insertion on G(2^14, 3/n) gathers O(d^2) edges.

    Re-deriving N+[I_t] from scratch would gather every row of I_t
    (about 17k edges here; this delta gathers 80).
    """
    service = _settled_service("2-state", 2**14, seed=5)
    frontier = service.proc._frontier
    assert frontier.ops is service.ops
    u, v = (int(s) for s in np.flatnonzero(frontier.stable)[:2])
    assert not service.overlay.has_edge(u, v)
    gathered = []
    gather = service.ops.gather

    def counting_gather(vertices):
        out = gather(vertices)
        gathered.append(out.size)
        return out

    monkeypatch.setattr(service.ops, "gather", counting_gather)
    record = service.apply_event(MutationEvent("add-edge", u, v))
    monkeypatch.undo()
    assert record.action == "repair+recover" and record.rounds == 0
    assert 0 < sum(gathered) < 512
    token, black, _ = service._state_arrays()
    _assert_frontier_exact(service.overlay, frontier, black)
