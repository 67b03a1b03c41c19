"""The differential oracle: every execution path against the reference.

:mod:`repro.core.reference` transcribes the paper's per-vertex
definitions literally; every serial, batched and fleet run must be the
run of those references under the same coins (differential testing,
after McKeeman, "Differential Testing for Software", 1998).  This is
the one harness that checks it: the family table (:data:`FAMILIES`),
the runs to check (:class:`Fleet`) and the Hypothesis strategies that
draw them, what the references produce (:func:`reference_waves`), the
checks down each path (:func:`check_serial`, :func:`check_batched`,
:func:`check_fleet`), and the from-scratch aggregate audits they run.
``tests/test_oracle.py`` draws the fleets; other suites check fixed
ones.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core import batched as batched_module
from repro.core import frontier as frontier_module
from repro.core.batched import (
    BatchedScheduledTwoStateMIS,
    BatchedThreeColorMIS,
    BatchedThreeStateMIS,
    BatchedTwoStateMIS,
)
from repro.core.batched_frontier import BatchedFrontierAggregates
from repro.core.neighbor_ops import DenseNeighborOps, SparseNeighborOps
from repro.core.reference import (
    ReferenceIndependentDaemon,
    ReferenceThreeColor,
    ReferenceThreeState,
    ReferenceTwoState,
)
from repro.core.schedulers import (
    IndependentScheduler,
    ScheduledTwoStateMIS,
    SynchronousScheduler,
)
from repro.core.states import BLACK1
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.graph import Graph
from repro.sim.rng import SeededCoins
from repro.sim.runner import RunResult, run_many_until_stable, run_until_stable


class Family(NamedTuple):
    """``build(graph, coins, ops, i)`` makes replica ``i``'s process and
    ``reference(graph, coins, i)`` its literal reference; ``sample(rng,
    n)`` draws an arbitrary full state (see :func:`process_state`)."""

    build: Callable[..., Any]
    reference: Callable[..., Any]
    engine: type
    sample: Callable[[np.random.Generator, int], np.ndarray]


#: Daemon rates and 3-color switch parameters, cycled over replica
#: rows so one batch mixes per-row draw probabilities.
RATES = (0.5, 0.25)
SWITCH_A = (16.0, 32.0)


def _bits(rng, n):
    return rng.random(n) < rng.random()


FAMILIES: dict[str, Family] = {
    "2-state": Family(
        lambda g, c, ops, i: TwoStateMIS(g, coins=c, ops=ops),
        lambda g, c, i: ReferenceTwoState(g, coins=c),
        BatchedTwoStateMIS, _bits),
    "eager": Family(
        lambda g, c, ops, i: TwoStateMIS(
            g, coins=c, ops=ops, eager_white_promotion=True),
        lambda g, c, i: ReferenceTwoState(g, c, eager_white_promotion=True),
        BatchedTwoStateMIS, _bits),
    "3-state": Family(
        lambda g, c, ops, i: ThreeStateMIS(g, coins=c, ops=ops),
        lambda g, c, i: ReferenceThreeState(g, coins=c),
        BatchedThreeStateMIS,
        lambda rng, n: rng.integers(0, 3, n).astype(np.int8)),
    "3-color": Family(
        lambda g, c, ops, i: ThreeColorMIS(
            g, coins=c, a=SWITCH_A[i % 2], ops=ops),
        lambda g, c, i: ReferenceThreeColor(g, coins=c, a=SWITCH_A[i % 2]),
        BatchedThreeColorMIS,
        lambda rng, n: np.stack(
            (rng.integers(0, 3, n), rng.integers(0, 6, n))).astype(np.int8)),
    "independent": Family(
        lambda g, c, ops, i: ScheduledTwoStateMIS(
            g, IndependentScheduler(RATES[i % 2]), coins=c, ops=ops),
        lambda g, c, i: ReferenceIndependentDaemon(g, RATES[i % 2], coins=c),
        BatchedScheduledTwoStateMIS, _bits),
    "synchronous": Family(
        lambda g, c, ops, i: ScheduledTwoStateMIS(
            g, SynchronousScheduler(), coins=c, ops=ops),
        lambda g, c, i: ReferenceTwoState(g, coins=c),
        BatchedScheduledTwoStateMIS, _bits),
}


class Fleet(NamedTuple):
    """A run to check: replica ``i`` of family ``names[i]`` on
    ``graphs[i]`` with coin seed ``seed + i``; a clean or corrupted
    start, then ``waves`` fault waves of ``flips`` vertices each, every
    run cut at ``budget`` rounds.  ``backend`` (a NeighborOps class)
    pins the backend, one instance per graph."""

    names: list[str]
    graphs: list[Graph]
    backend: type | None = None
    corrupt: bool = False
    waves: int = 0
    flips: int = 1
    budget: int = 10_000
    seed: int = 0


def fleet(name: str, graphs, **kwargs) -> Fleet:
    """A fleet of one family, one replica per graph."""
    return Fleet([name] * len(graphs), list(graphs), **kwargs)


def build_processes(spec: Fleet, coins=SeededCoins) -> list:
    ops: dict[int, Any] = {}
    procs = []
    for i, (name, graph) in enumerate(zip(spec.names, spec.graphs)):
        if spec.backend is not None and id(graph) not in ops:
            ops[id(graph)] = spec.backend(graph)
        coin = coins(spec.seed + i)
        procs.append(FAMILIES[name].build(graph, coin, ops.get(id(graph)), i))
    return procs


def process_state(proc) -> np.ndarray:
    """The full state: the 3-color process stacks colors and levels."""
    if isinstance(proc, ThreeColorMIS):
        return proc.full_state_vector()
    return proc.state_vector()


def reference_state(ref) -> np.ndarray:
    if isinstance(ref, ReferenceThreeColor):
        return np.stack((ref.colors, ref.switch.levels))
    if isinstance(ref, ReferenceThreeState):
        return ref.states.copy()
    return ref.black.copy()


def set_reference_state(ref, state: np.ndarray) -> None:
    if isinstance(ref, ReferenceThreeColor):
        ref.colors, ref.switch.levels = state[0].copy(), state[1].copy()
    elif isinstance(ref, ReferenceThreeState):
        ref.states = state.copy()
    else:
        ref.black = state.copy()


def corrupt(proc, state: np.ndarray, in_place: bool = False) -> None:
    """Put ``proc`` in ``state``; ``in_place`` writes a 2-state
    process's changed vertices into its array (``corrupt_vertices``)."""
    if isinstance(proc, ThreeColorMIS):
        proc.corrupt(state[0])
        proc.corrupt_switch(state[1])
    elif in_place and isinstance(proc, TwoStateMIS):
        changed = np.flatnonzero(state != proc.black)
        proc.corrupt_vertices(changed[state[changed]], black=True)
        proc.corrupt_vertices(changed[~state[changed]], black=False)
    else:
        proc.corrupt(state)


def flip(rng: np.random.Generator, state: np.ndarray, k: int) -> np.ndarray:
    """``state`` with ``k`` random vertices moved to another value (both
    the color and the switch level of a 3-color state)."""
    state = np.array(state)
    n = state.shape[-1]
    idx = rng.choice(n, size=min(k, n), replace=False)
    if state.dtype == np.bool_:
        state[idx] = ~state[idx]
    else:
        for plane, top in zip(np.atleast_2d(state), (3, 6)):
            plane[idx] = (plane[idx] + rng.integers(1, top, idx.size)) % top
    return state


class Observation(NamedTuple):
    """What a process must show at one round, or (with ``active`` and
    ``stable`` left out) after a run."""

    state: np.ndarray
    black: np.ndarray
    covered: np.ndarray
    round: int
    coins: dict
    active: np.ndarray | None = None  # the 3-color reference has no A_t
    stable: np.ndarray | None = None


def observe(ref, every=True) -> Observation:
    obs = Observation(
        reference_state(ref), ref.black_mask(), ref.covered_mask(),
        ref.round, ref.coins.state,
    )
    if not every:
        return obs
    active = ref.active_mask() if hasattr(ref, "active_mask") else None
    return obs._replace(active=active, stable=ref.stable_black_mask())


def run_reference(ref, max_rounds, check_every=1, trajectory=None) -> RunResult:
    """Run ``ref`` in place as ``run_until_stable`` runs its process;
    the result that run must report.  A ``trajectory`` list gets the
    :func:`observe` of the start and of every round."""

    def stabilized() -> bool:
        if trajectory is None:
            return ref.is_stabilized()
        trajectory.append(observe(ref))
        return bool(trajectory[-1].covered.all())

    start = ref.round
    found = 0 if stabilized() else None
    while found is None and ref.round - start < max_rounds:
        ref.step()
        if stabilized() and (ref.round - start) % check_every == 0:
            found = ref.round - start
    if found is None and ref.is_stabilized():  # budget ended off a check
        found = ref.round - start
    mis = None if found is None else np.flatnonzero(ref.black_mask())
    return RunResult(found is not None, found, ref.round - start, mis)


class Wave(NamedTuple):
    """One run of a fleet, as the references make it."""

    states: list | None  # what every replica is put in first, if anything
    results: list[RunResult]
    finals: list[Observation]
    trajectories: list[list[Observation]] | None


def reference_waves(spec: Fleet, check_every=1, observed=False) -> list[Wave]:
    """Every wave of ``spec`` run by the references: the start or the
    faults each wave applies, and what every replica must end with (and,
    ``observed``, show at every round)."""
    refs = [
        FAMILIES[name].reference(graph, SeededCoins(spec.seed + i), i)
        for i, (name, graph) in enumerate(zip(spec.names, spec.graphs))
    ]
    rng = np.random.default_rng(spec.seed)
    waves = []
    for wave in range(1 + spec.waves):
        states = None
        if wave:
            states = [flip(rng, reference_state(r), spec.flips) for r in refs]
        elif spec.corrupt:
            states = [
                FAMILIES[name].sample(rng, ref.n)
                for name, ref in zip(spec.names, refs)
            ]
        for ref, state in zip(refs, states or ()):
            set_reference_state(ref, state)
        paths = [[] if observed else None for _ in refs]
        results = [
            run_reference(ref, spec.budget, check_every, path)
            for ref, path in zip(refs, paths)
        ]
        finals = [observe(ref, every=False) for ref in refs]
        waves.append(Wave(states, results, finals, paths if observed else None))
    return waves


def assert_same_results(expected, observed, where="") -> None:
    """Two lists of :class:`RunResult` agree, MIS included."""
    assert len(expected) == len(observed), where
    for i, (a, b) in enumerate(zip(expected, observed)):
        at = f"{where} replica {i}"
        assert (a.stabilized, a.stabilization_round, a.rounds_executed) == (
            b.stabilized, b.stabilization_round, b.rounds_executed), at
        assert (a.mis is None) == (b.mis is None), at
        if a.mis is not None:
            assert np.array_equal(a.mis, b.mis), at


def assert_observes(proc, obs: Observation, where: str) -> None:
    """``proc`` shows ``obs``: state, round, coin-stream position and
    ``N+[I_t]``, and every observable of a round when ``obs`` has it."""
    expect_equal("state", process_state(proc), obs.state, where)
    assert proc.round == obs.round, f"{where}: round"
    assert proc.coins.state == obs.coins, f"{where}: coin stream"
    if isinstance(proc, ThreeColorMIS):
        assert proc.switch.round == obs.round, f"{where}: switch round"
    expect_equal("covered", proc.covered_mask(), obs.covered, where)
    if obs.stable is None:
        return
    expect_equal("stable", proc.stable_black_mask(), obs.stable, where)
    expect_equal("unstable", proc.unstable_mask(), ~obs.covered, where)
    assert proc.is_stabilized() == bool(obs.covered.all()), where
    got = list(proc.trajectory_counts())
    want = [obs.black.sum(), None, obs.stable.sum(), (~obs.covered).sum()]
    if obs.active is None:
        got[1] = None
    else:
        expect_equal("active", proc.active_mask(), obs.active, where)
        want[1] = obs.active.sum()
    assert got == want, f"{where}: trajectory counts"


def expect_equal(name: str, got, want, where: str) -> None:
    """Assert equal arrays; a mismatch names the first entry that differs."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{where}: {name} has shape {got.shape}"
    bad = np.argwhere(got != want)
    if bad.size:
        at = tuple(int(x) for x in bad[0])
        place = f"vertex {at[-1]}" + (f" of row {at[0]}" if len(at) > 1 else "")
        raise AssertionError(
            f"{where}: {name} differs at {place}: {got[at]} != {want[at]}"
        )


def neighbor_counts(graph: Graph, mask: np.ndarray) -> np.ndarray:
    """``|N(u) ∩ mask|`` for every vertex, straight from the CSR rows."""
    owner = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return np.bincount(owner[mask[graph.indices]], minlength=graph.n)


def scratch_aggregates(graph, black, aux=None, aux_outside_stable=False):
    """Every aggregate the engines maintain, recomputed for ``black``."""
    counts = neighbor_counts(graph, black)
    stable = black & (counts == 0)
    covered = stable | (neighbor_counts(graph, stable) > 0)
    out = {"counts": counts, "stable": stable, "covered": covered}
    if aux is not None:
        counted = aux & ~stable if aux_outside_stable else aux
        out["aux_counts"] = neighbor_counts(graph, counted)
    return out


def _expect_aggregates(agg, has, want, where) -> None:
    expect_equal("counts", agg.counts, want["counts"], where)
    expect_equal("has", has, want["counts"] > 0, where)
    if "aux_counts" in want:
        expect_equal("aux_counts", agg.aux_counts, want["aux_counts"], where)
        expect_equal("aux_has", agg.aux_has, want["aux_counts"] > 0, where)
    expect_equal("stable", agg.stable, want["stable"], where)
    expect_equal("covered", agg.covered, want["covered"], where)


def audit_frontier(frontier, black, aux=None, where="serial") -> None:
    """Serial aggregates equal a recomputation for ``black`` (and the
    3-state black1 mask ``aux``, counted outside ``I_t``)."""
    want = scratch_aggregates(frontier.graph, black, aux, True)
    _expect_aggregates(frontier, frontier.has_black, want, where)
    unstable = frontier.n - int(np.count_nonzero(want["covered"]))
    assert frontier.unstable_total == unstable, f"{where}: unstable counter"


def audit_process(proc, where="serial") -> None:
    """Audit a serial process's aggregates and 2-state active index
    set, where they are in sync with its state."""
    frontier = proc._frontier
    token = proc._state_token()
    if frontier is None or frontier.token is not token:
        return
    black = proc.black_mask()
    aux = proc.states == BLACK1 if frontier.track_aux else None
    audit_frontier(frontier, black, aux, where)
    idx = getattr(proc, "_active_idx", None)
    if idx is not None and proc._active_token is token:
        active = black == (neighbor_counts(proc.graph, black) > 0)
        expect_equal("active index", idx, np.flatnonzero(active), where)


def audit_batched(aggregates, black, pos, aux=None, where="batched") -> None:
    """Batched aggregates equal a recomputation, row by row.  Live row
    ``i`` runs on the shared graph, or on replica ``pos[i]``'s (a
    frontier run never compacts its block: ``pos`` holds replicas)."""
    procs = aggregates.engine.processes
    rows = range(black.shape[0])
    graphs = [procs[0 if pos is None else int(pos[i])].graph for i in rows]
    scratch = [
        scratch_aggregates(g, black[i], None if aux is None else aux[i])
        for i, g in zip(rows, graphs)
    ]
    want = {
        key: np.array([row[key] for row in scratch]).reshape(black.shape)
        for key in scratch[0]
    }
    _expect_aggregates(aggregates, aggregates.has, want, where)
    unstable = black.shape[1] - np.count_nonzero(want["covered"], axis=1)
    expect_equal("unstable", aggregates.unstable, unstable, where)


def audit_activity(engine, black, has, where="batched") -> None:
    """A maintained 2-state activity set is exactly ``{black == has}``."""
    if engine._act_pairs is not None:
        got = engine._act_pairs
    elif engine._act_mask is not None:
        got = np.flatnonzero(engine._act_mask)
    else:
        return
    want = np.flatnonzero(black == has)
    if not np.array_equal(got, want):
        odd = np.setxor1d(got, want)
        row, vertex = divmod(int(odd[0]), black.shape[1]) if odd.size else (0, 0)
        at = f"vertex {vertex} of row {row}" if odd.size else "its order"
        raise AssertionError(f"{where}: activity set differs at {at}")


@contextmanager
def audited(label: dict):
    """Audit every batched aggregate update inside the block, and the
    2-state activity set wherever it is seeded or synced.  Messages
    name ``label["family"]``, ``label["wave"]`` and the round."""
    cls = BatchedFrontierAggregates
    rebuild, repair = cls.rebuild, cls.repair
    full_round, advance = cls.full_round, cls.advance
    seed_act = BatchedTwoStateMIS._seed_act_mask
    sync_act = BatchedTwoStateMIS._sync_act_pairs

    def where(agg):
        return f"{label['family']} wave {label['wave']} round {agg.oracle_round}"

    def on_rebuild(self, black, pos, aux_mask=None):
        rebuild(self, black, pos, aux_mask)
        self.oracle_round = 0
        audit_batched(self, black, pos, aux_mask, where(self) + " (rebuild)")

    def on_repair(self, black, pos, resident, aux_mask=None):
        out = repair(self, black, pos, resident, aux_mask)
        if out is not None:
            self.oracle_round = 0
            audit_batched(self, black, pos, aux_mask, where(self) + " (repair)")
        return out

    def on_full_round(self, new_black, pos, aux_mask=None):
        full_round(self, new_black, pos, aux_mask)
        self.oracle_round += 1
        audit_batched(self, new_black, pos, aux_mask, where(self))

    def on_advance(self, new_black, delta, pos):
        touched = advance(self, new_black, delta, pos)
        self.oracle_round += 1
        audit_batched(self, new_black, pos, delta.aux_mask, where(self))
        return touched

    def on_seed(self, black, has, candidates=None):
        seed_act(self, black, has, candidates)
        audit_activity(self, black, has, where(self._frontier_state))

    def on_sync(self, black, counts, delta, touched):
        sync_act(self, black, counts, delta, touched)
        audit_activity(self, black, counts, where(self._frontier_state))

    with pytest.MonkeyPatch.context() as mp:
        for owner, name, hook in (
            (cls, "rebuild", on_rebuild),
            (cls, "repair", on_repair),
            (cls, "full_round", on_full_round),
            (cls, "advance", on_advance),
            (BatchedTwoStateMIS, "_seed_act_mask", on_seed),
            (BatchedTwoStateMIS, "_sync_act_pairs", on_sync),
        ):
            mp.setattr(owner, name, hook)
        yield


#: Crossovers forcing each regime: recompute every moving round, the
#: shipped blend, scatter every round.
CROSSOVERS = (0.0, frontier_module.DEFAULT_CROSSOVER, 1e18)


@contextmanager
def regime(crossover, bulk=None):
    """Aggregates built inside the block use ``crossover``; batched runs
    with ``bulk=0`` never take a bulk round after the first."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier_module, "DEFAULT_CROSSOVER", crossover)
        if bulk is not None:
            mp.setattr(batched_module, "BULK_ADVANCE_FRACTION", bulk)
        yield


def replay(procs, waves: list[Wave], run, label: dict) -> None:
    """Put ``procs`` through ``waves``: ``run(procs, trajectories,
    where)`` must return the references' results and leave every
    replica where its reference ended."""
    for number, wave in enumerate(waves):
        for proc, state in zip(procs, wave.states or ()):
            corrupt(proc, state, in_place=number > 0)
        label["wave"] = number
        where = f"{label['family']} wave {number}"
        paths = wave.trajectories or [None] * len(procs)
        assert_same_results(wave.results, run(procs, paths, where), where)
        for i, (proc, final) in enumerate(zip(procs, wave.finals)):
            assert_observes(proc, final, f"{where} replica {i}")


def label_for(spec: Fleet) -> dict:
    return {"family": "+".join(sorted(set(spec.names))), "wave": 0}


def run_observed(proc, trajectory, max_rounds, check_every, where):
    """``run_until_stable(proc)``, its every round checked against the
    reference's ``trajectory`` and audited, its trace compared too."""
    start, step = proc.round, proc.step

    def check():
        at = f"{where} round {proc.round - start}"
        assert proc.round - start < len(trajectory), f"{at}: past the reference"
        assert_observes(proc, trajectory[proc.round - start], at)
        audit_process(proc, at)

    def observed_step(rounds=1):
        step(rounds)
        check()

    check()
    proc.step = observed_step
    try:
        result = run_until_stable(
            proc, max_rounds, record_trace=True, check_every=check_every
        )
    finally:
        del proc.step
    trace = result.trace.as_arrays()
    for key, curve in (
        ("black", [o.black.sum() for o in trajectory]),
        ("stable_black", [o.stable.sum() for o in trajectory]),
        ("unstable", [(~o.covered).sum() for o in trajectory]),
    ):
        expect_equal(f"{key} trace", trace[key], curve[:len(trace[key])], where)
    return result


def check_serial(spec: Fleet, crossovers=CROSSOVERS, check_every=1) -> None:
    """Run every replica serially in each crossover regime, every round
    against the reference."""
    waves = reference_waves(spec, check_every, observed=True)

    def run(procs, paths, where):
        return [
            run_observed(proc, path, spec.budget, check_every, where)
            for proc, path in zip(procs, paths)
        ]

    for crossover in crossovers:
        with regime(crossover):
            replay(build_processes(spec), waves, run, label_for(spec))


def check_batched(
    spec: Fleet, modes=((CROSSOVERS[1], None),), coins=(SeededCoins,)
) -> None:
    """Run the fleet on one batched engine in each ``(crossover, bulk)``
    of ``modes`` and on each coin factory, every aggregate update audited.
    The engine is built before the start and reused for every wave:
    each run adopts the changes."""
    waves = reference_waves(spec)
    for (crossover, bulk), factory in itertools.product(modes, coins):
        label = label_for(spec)
        with regime(crossover, bulk), audited(label):
            procs = build_processes(spec, factory)
            engine = FAMILIES[spec.names[0]].engine(procs)
            replay(procs, waves, lambda ps, _, __: engine.run(spec.budget), label)


def check_fleet(spec: Fleet, pool=None, n_jobs=None) -> None:
    """Run the fleet through ``run_many_until_stable`` on ``pool`` (or
    ``n_jobs`` shards), in-process batched runs audited."""
    label = label_for(spec)

    def run(procs, paths, where):
        return run_many_until_stable(
            procs, max_rounds=spec.budget, n_jobs=n_jobs, pool=pool
        )

    with audited(label):
        replay(build_processes(spec), reference_waves(spec), run, label)


# Hypothesis generates (and shrinks towards) early entries of a
# ``sampled_from`` more often, so each list starts with the draws that
# reach the most code: mid-size graphs, full runs, several replicas.

#: Vertex counts: empty and singleton graphs, and sizes past the
#: thresholds of the local (candidate-set) stability passes.
SIZES = (70, 12, 130, 33, 5, 2, 1, 0)

seeds = st.integers(0, 2**32 - 1)
backends = st.sampled_from((SparseNeighborOps, None, DenseNeighborOps))
regimes = st.tuples(st.sampled_from(CROSSOVERS), st.sampled_from((None, 0)))
#: Round budgets: small ones leave some replicas unstabilized.
budgets = st.sampled_from((10_000, 4, 1))
#: Vertices flipped per fault wave; 40 exceeds the batched repair bound
#: (1/64 of the pairs) on the smaller graphs.
flips = st.sampled_from((1, 3, 40))


def random_graph(n, pieces, degree, isolated, seed) -> Graph:
    """``pieces`` components of about ``degree`` average degree, plus an
    ``isolated`` fraction of edgeless vertices."""
    rng = np.random.default_rng(seed)
    piece = rng.integers(0, pieces, n)
    piece[rng.random(n) < isolated] = -1
    us, vs = np.triu_indices(n, 1)
    keep = (piece[us] == piece[vs]) & (piece[us] >= 0)
    keep &= rng.random(us.size) < degree / max(n, 1)
    return Graph.from_numpy_edges(n, us[keep], vs[keep])


@st.composite
def graph_lists(draw, count, mixed_sizes=False):
    """``count`` replicas' graphs: one shared object, one per replica on
    one ``n`` (the batched block-diagonal path), or — ``mixed_sizes`` —
    one per replica on its own ``n``."""
    n = draw(st.sampled_from(SIZES))
    shape = (
        draw(st.integers(1, 3)),
        draw(st.sampled_from((3.0, 1.5, 6.0, 0.0))),
        draw(st.sampled_from((0.0, 0.2, 0.6))),
    )
    seed = draw(seeds)
    layouts = ("shared", "per-replica") + (("mixed",) if mixed_sizes else ())
    layout = draw(st.sampled_from(layouts))
    if layout == "shared":
        return [random_graph(n, *shape, seed)] * count
    sizes = [n] * count
    if layout == "mixed":
        sizes = [draw(st.sampled_from(SIZES)) for _ in range(count)]
    return [random_graph(m, *shape, seed + i) for i, m in enumerate(sizes)]


@st.composite
def fleets(draw, first=None, min_replicas=1, max_replicas=8, mixed_sizes=False):
    """Replicas of any families, or — given the ``first`` replica's —
    of the families its batched engine runs; a clean or corrupted start
    and 0–3 fault waves."""
    counts = (8, 4, 2, 1, 6, 3, 5, 7)
    count = draw(st.sampled_from(
        [c for c in counts if min_replicas <= c <= max_replicas]))
    group = [
        name for name, family in FAMILIES.items()
        if first is None or family.engine is FAMILIES[first].engine
    ]
    if first is None:
        first = draw(st.sampled_from(group))
    return Fleet(
        names=[first] + [draw(st.sampled_from(group)) for _ in range(count - 1)],
        graphs=draw(graph_lists(count, mixed_sizes)),
        backend=draw(backends),
        corrupt=draw(st.booleans()),
        waves=draw(st.sampled_from((3, 1, 0, 2))),
        flips=draw(flips),
        budget=draw(budgets),
        seed=draw(seeds),
    )
