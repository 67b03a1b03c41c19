"""One differential oracle: every execution path against the reference.

The draws (``tests/oracle.py``) span the six families; graphs with
``n`` down to 0, isolated vertices and disjoint components, shared or
one per replica; the dense and CSR backends and the graph's own pick;
every crossover regime, with or without bulk rounds; clean and
corrupted starts; fault waves on a reused engine and on a persistent
pool whose workers repair resident engines; budgets that cut runs
short; a worker killed or a result poisoned; and a fleet resumed from
a journal prefix.  Every result, final state, round and coin position
is checked against the references, every serial round's observables
too, and every aggregate update against a from-scratch recomputation.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import (
    ChaosPolicy, RetryPolicy, SupervisedPool, leaked_segments, shard_ranges,
)
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.rng import SeededCoins
from repro.sim.runner import run_many_until_stable

from coin_probes import CountingCoins
from oracle import (
    CROSSOVERS, FAMILIES, assert_observes, assert_same_results,
    build_processes, check_batched, check_fleet, check_serial, corrupt,
    fleets, reference_waves, regimes,
)


@pytest.fixture(scope="module")
def pool():
    """The persistent pool of the fleet draws; its workers keep each
    shard's engines resident from one wave to the next."""
    with SupervisedPool(2) as shared:
        yield shared
    assert leaked_segments() == []


@pytest.mark.parametrize("family", FAMILIES)
@given(
    data=st.data(),
    crossover=st.sampled_from(CROSSOVERS),
    check_every=st.sampled_from((1, 3)),
)
@settings(max_examples=12, deadline=None)
def test_serial_runs_follow_the_reference(family, data, crossover, check_every):
    spec = data.draw(fleets(family, max_replicas=1))
    check_serial(spec, (crossover,), check_every)


@pytest.mark.parametrize("family", FAMILIES)
@given(
    data=st.data(),
    crossover=regimes,
    coins=st.sampled_from((SeededCoins, CountingCoins)),
)
@settings(max_examples=15, deadline=None)
def test_batched_runs_follow_the_reference(family, data, crossover, coins):
    # A counting subclass keeps the row draws on the per-source path.
    check_batched(data.draw(fleets(family)), (crossover,), (coins,))


@given(spec=fleets(mixed_sizes=True), n_jobs=st.sampled_from((2, 1)))
@settings(max_examples=25, deadline=None)
def test_fleet_runs_follow_the_reference(pool, spec, n_jobs):
    check_fleet(spec, pool, n_jobs)


@given(
    spec=fleets(min_replicas=2, mixed_sizes=True),
    fault=st.sampled_from(("kill", "poison")),
)
@settings(max_examples=8, deadline=None)
def test_fleets_survive_worker_faults(spec, fault):
    # Every wave's first attempt at the first shard is killed or poisoned.
    first = shard_ranges(len(spec.names), 2)[0]
    policy = ChaosPolicy.scripted({(first, 0): fault})
    retry = RetryPolicy(backoff_base=0.0)
    with SupervisedPool(2, chaos=policy, retry=retry) as chaos_pool:
        check_fleet(spec, chaos_pool)


@given(
    spec=fleets(min_replicas=2, mixed_sizes=True),
    kept=st.integers(0, 2),
)
@settings(max_examples=12, deadline=None)
def test_resumed_fleets_follow_the_reference(pool, spec, kept):
    # A campaign killed after ``kept`` shards landed resumes with fresh
    # processes: the journaled shards are restored, the rest re-run.
    (wave,) = reference_waves(spec._replace(waves=0))
    fingerprint = {"oracle": "fleet"}

    def start():
        procs = build_processes(spec)
        for proc, state in zip(procs, wave.states or ()):
            corrupt(proc, state)
        return procs

    with tempfile.TemporaryDirectory() as tmp:
        full, prefix = Path(tmp) / "full.journal", Path(tmp) / "prefix.journal"
        with CheckpointJournal(full, fingerprint, resume=False) as journal:
            run_many_until_stable(
                start(), max_rounds=spec.budget, pool=pool, journal=journal
            )
            shards = [k for k in journal.keys() if k.startswith("shard:")]
            landed = [(k, journal.get_bytes(k)) for k in shards[:kept]]
        with CheckpointJournal(prefix, fingerprint, resume=False) as journal:
            for key, payload in landed:
                journal.put_bytes(key, payload)
        fresh = start()
        with CheckpointJournal(prefix, fingerprint, resume=True) as journal:
            got = run_many_until_stable(
                fresh, max_rounds=spec.budget, pool=pool, journal=journal
            )
    assert_same_results(wave.results, got, "resumed")
    for i, (proc, final) in enumerate(zip(fresh, wave.finals)):
        assert_observes(proc, final, f"resumed replica {i}")
