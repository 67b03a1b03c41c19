"""MISService lifecycle: determinism, checkpoint/resume, chaos recovery.

The daemon's contracts, in increasing order of adversity:

* same (graph, stream, seed) ⇒ bitwise-identical trajectory and
  records, with or without journaling, whatever the compaction cadence;
* incremental frontier repair is a pure performance transformation —
  ``repair=False`` (rebuild after every event) matches bitwise;
* a service killed at any offset resumes from its journal to the exact
  uninterrupted trajectory — including when the kill tears the journal
  tail mid-record (the ``"poison"`` fault), and for any
  ``checkpoint_every`` cadence;
* the journal commits once per snapshot: a crash may garble, drop or
  zero-fill any line past the last fsync, and resume keeps the longest
  decodable prefix and still reproduces the trajectory bitwise;
* queries filter dead slots; streams are seekable pure functions.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.dynamic import (
    ChurnRecord,
    MISService,
    MutationEvent,
    ScriptedStream,
    ServiceKilledError,
    make_stream,
    run_with_chaos,
)
from repro.dynamic.mutations import STREAM_KINDS
from repro.core.states import pack_state, unpack_state
from repro.graphs.random_graphs import gnp_random_graph
from repro.parallel.chaos import ServiceChaosPolicy
from repro.sim.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
)

N, EVENTS = 128, 40


@pytest.fixture
def graph():
    return gnp_random_graph(N, 3.0 / N, rng=11)


@pytest.fixture
def stream():
    return make_stream("uniform", N, seed=3)


def state_of(service):
    return service._state_arrays()[0]


def records_of(service):
    return [r.to_dict() for r in service.records]


def run_reference(graph, stream, **kwargs):
    service = MISService(graph, stream, seed=1, **kwargs)
    service.run(EVENTS)
    return service


# ---------------------------------------------------------------------------
# Determinism and the repair==rebuild transformation
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_trajectory(self, graph, stream):
        a = run_reference(graph, stream)
        b = run_reference(graph, stream)
        np.testing.assert_array_equal(state_of(a), state_of(b))
        assert records_of(a) == records_of(b)
        assert a.proc.round == b.proc.round

    @pytest.mark.parametrize("process", ["2-state", "3-state"])
    def test_repair_equals_rebuild(self, graph, stream, process):
        fast = run_reference(graph, stream, process=process)
        slow = run_reference(graph, stream, process=process, repair=False)
        np.testing.assert_array_equal(state_of(fast), state_of(slow))
        assert [r.rounds for r in fast.records] == [
            r.rounds for r in slow.records
        ]
        assert fast.repairs > 0 and slow.rebuilds > 0

    def test_compaction_is_bitwise_neutral(self, graph, stream):
        eager = run_reference(graph, stream, compact_fraction=0.02)
        never = run_reference(graph, stream, compact_fraction=1e9)
        assert eager.overlay.compactions > 0
        assert never.overlay.compactions == 0
        np.testing.assert_array_equal(state_of(eager), state_of(never))
        assert [r.rounds for r in eager.records] == [
            r.rounds for r in never.records
        ]

    def test_settle_batching(self, graph, stream):
        batched = run_reference(graph, stream, settle_every=8)
        settled = [r.offset for r in batched.records if r.rounds >= 0
                   and (r.offset + 1) % 8 == 0]
        unsettled = [r for r in batched.records if (r.offset + 1) % 8 != 0]
        assert all(r.rounds == 0 for r in unsettled)
        assert len(settled) == EVENTS // 8


# ---------------------------------------------------------------------------
# Queries and dead-slot semantics
# ---------------------------------------------------------------------------


class TestQueries:
    def test_mis_is_maximal_independent_on_alive(self, graph, stream):
        service = run_reference(graph, stream)
        assert service.is_stable()
        mis = service.mis()
        members = np.zeros(N, dtype=bool)
        members[mis] = True
        snap = service.overlay.snapshot()
        us, vs = snap.edge_arrays()
        assert not np.any(members[us] & members[vs])  # independent
        covered = members.copy()
        covered[us[members[vs]]] = True
        covered[vs[members[us]]] = True
        assert covered.all()  # maximal (dead slots are isolated+black)

    def test_dead_slots_filtered(self, graph):
        events = [MutationEvent("del-vertex", 5)]
        service = MISService(graph, ScriptedStream(N, events), seed=1)
        service.run(1)
        assert not service.overlay.alive[5]
        assert not service.is_member(5)
        assert 5 not in service.mis()
        # The dead slot still parks as a stable singleton internally.
        assert service._state_arrays()[1][5]
        with pytest.raises(IndexError):
            service.is_member(N)

    def test_mis_requires_stability(self, graph, stream):
        service = MISService(
            graph, stream, seed=1, max_recovery_rounds=0, settle_every=1
        )
        if not service.is_stable():
            with pytest.raises(RuntimeError):
                service.mis()

    def test_constructor_validation(self, graph):
        with pytest.raises(ValueError):
            MISService(graph, make_stream("uniform", N + 1, seed=0))
        with pytest.raises(ValueError):
            MISService(graph, make_stream("uniform", N, seed=0),
                       process="5-state")
        with pytest.raises(ValueError):
            MISService(graph, make_stream("uniform", N, seed=0),
                       settle_every=0)


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    @pytest.mark.parametrize("cadence", [1, 4, 7])
    def test_resume_is_bitwise(self, graph, stream, tmp_path, cadence):
        ref = run_reference(graph, stream)
        path = tmp_path / "svc.ckpt"
        first = MISService(
            graph, stream, seed=1, checkpoint=path, checkpoint_every=cadence
        )
        first.run(EVENTS // 2)
        first.close()
        resumed = MISService(
            graph, stream, seed=1, checkpoint=path, checkpoint_every=cadence
        )
        # Snapshots only exist at cadence boundaries (plus the initial
        # one), so the resume point is the last boundary before half.
        assert resumed.next_offset >= EVENTS // 2 - cadence
        resumed.run(EVENTS)
        resumed.close()
        np.testing.assert_array_equal(state_of(ref), state_of(resumed))
        assert records_of(ref) == records_of(resumed)
        assert ref.proc.round == resumed.proc.round

    def test_resume_three_state(self, graph, tmp_path):
        stream = make_stream("burst", N, seed=5)
        ref = MISService(graph, stream, seed=2, process="3-state")
        ref.run(EVENTS)
        path = tmp_path / "svc3.ckpt"
        first = MISService(
            graph, stream, seed=2, process="3-state", checkpoint=path
        )
        first.run(EVENTS // 3)
        first.close()
        resumed = MISService(
            graph, stream, seed=2, process="3-state", checkpoint=path
        )
        resumed.run(EVENTS)
        resumed.close()
        np.testing.assert_array_equal(state_of(ref), state_of(resumed))
        assert records_of(ref) == records_of(resumed)

    def test_resume_false_starts_fresh(self, graph, stream, tmp_path):
        path = tmp_path / "svc.ckpt"
        first = MISService(graph, stream, seed=1, checkpoint=path)
        first.run(10)
        first.close()
        fresh = MISService(
            graph, stream, seed=1, checkpoint=path, resume=False
        )
        assert fresh.next_offset == 0
        fresh.close()

    def test_resume_through_compaction(self, graph, stream, tmp_path):
        ref = run_reference(graph, stream, compact_fraction=0.05)
        path = tmp_path / "svc.ckpt"
        first = MISService(
            graph, stream, seed=1, checkpoint=path, compact_fraction=0.05
        )
        first.run(EVENTS // 2)
        assert first.overlay.compactions > 0
        first.close()
        resumed = MISService(
            graph, stream, seed=1, checkpoint=path, compact_fraction=0.05
        )
        resumed.run(EVENTS)
        resumed.close()
        np.testing.assert_array_equal(state_of(ref), state_of(resumed))
        assert records_of(ref) == records_of(resumed)

    @staticmethod
    def _write_pcg64_era_snapshot(store, service):
        """A snapshot as journaled before the counter-based coin stream."""
        state = state_of(service)
        store.put(
            "state:-1",
            {
                "offset": -1,
                "round": int(service.proc.round),
                "rng": np.random.default_rng(1).bit_generator.state,
                "repairs": 0,
                "rebuilds": 0,
                "start_rounds": service.start_rounds,
            },
        )
        store.put_bytes("blob:-1", state.tobytes())

    def _assert_old_spec_refused(self, graph, stream, tmp_path, edit):
        """A journal fingerprinted with ``edit(spec)`` is never adopted."""
        live = MISService(graph, stream, seed=1)
        old_spec = live._spec()
        edit(old_spec)
        path = tmp_path / "svc.ckpt"
        with CheckpointJournal(path, old_spec, resume=False) as journal:
            self._write_pcg64_era_snapshot(journal, live)
        with pytest.raises(CheckpointMismatchError):
            MISService(graph, stream, seed=1, checkpoint=path)
        # resume=False starts over under the current spec.
        fresh = MISService(
            graph, stream, seed=1, checkpoint=path, resume=False
        )
        assert fresh.next_offset == 0
        fresh.close()

    def test_pre_counter_stream_journal_is_refused(
        self, graph, stream, tmp_path
    ):
        # The fingerprint before the stream change had no "coins" key.
        self._assert_old_spec_refused(
            graph, stream, tmp_path, lambda spec: spec.pop("coins")
        )

    def test_backend_knob_journal_is_refused(self, graph, stream, tmp_path):
        # Journals written while the service took backend= carry it.
        self._assert_old_spec_refused(
            graph, stream, tmp_path,
            lambda spec: spec.update(backend="auto"),
        )

    def test_pre_counter_snapshot_in_open_view_is_refused(
        self, graph, stream, tmp_path
    ):
        # A journal handed in already open skips the fingerprint check;
        # the snapshot's own format still refuses to resume.
        journal = CheckpointJournal(tmp_path / "shared.ckpt", {"suite": 1})
        self._write_pcg64_era_snapshot(
            journal.scoped("svc/"), MISService(graph, stream, seed=1)
        )
        with pytest.raises(CheckpointError, match="coin stream"):
            MISService(
                graph, stream, seed=1, checkpoint=journal.scoped("svc/")
            )
        journal.close()

    def test_shared_journal_view(self, graph, stream, tmp_path):
        # Services can share one journal through scoped views.
        journal = CheckpointJournal(tmp_path / "shared.ckpt", {"suite": 1})
        service = MISService(
            graph, stream, seed=1, checkpoint=journal.scoped("svc/")
        )
        service.run(5)
        assert any(k.startswith("svc/rec:") for k in journal.keys())
        journal.close()


# ---------------------------------------------------------------------------
# Group commit: one fsync per snapshot, bit-packed snapshot blobs
# ---------------------------------------------------------------------------


class TestGroupCommit:
    EVERY = 8
    WRITTEN = 36  # snapshots at -1, 7, ..., 31; rec:32..35 are unsynced

    def _journal(self, graph, stream, path):
        service = MISService(
            graph, stream, seed=1, checkpoint=path, checkpoint_every=self.EVERY
        )
        service.run(self.WRITTEN)
        service.close()
        raw = path.read_bytes()
        lines = raw.split(b"\n")[:-1]
        return raw, lines, [json.loads(line).get("key") for line in lines]

    @pytest.mark.parametrize(
        "case", ["garbled-record", "zero-filled-hole", "cut-before-blob"]
    )
    def test_torn_group_resume_is_bitwise(self, graph, stream, tmp_path, case):
        ref = run_reference(graph, stream)
        path = tmp_path / "svc.ckpt"
        raw, lines, keys = self._journal(graph, stream, path)

        def start(i):
            return sum(len(line) + 1 for line in lines[:i])

        if case == "garbled-record":
            # A crash during the last commit: rec:28 is garbage, yet valid
            # records and a whole snapshot (state:31, blob:31) follow it.
            bad = keys.index("rec:28")
            end = start(bad) + len(lines[bad])
            damaged = raw[:start(bad)] + b"#" * len(lines[bad]) + raw[end:]
            resume_at = 24
        elif case == "zero-filled-hole":
            # A NUL run from mid rec:33 into rec:34, after the last snapshot.
            bad = keys.index("rec:33")
            lo = start(bad) + len(lines[bad]) // 2
            hi = start(bad + 1) + len(lines[bad + 1]) // 2
            damaged = raw[:lo] + b"\0" * (hi - lo) + raw[hi:]
            resume_at = 32
        else:
            # The file ends after state:31, part-way into blob:31.
            bad = keys.index("blob:31")
            damaged = raw[:start(bad) + len(lines[bad]) // 2]
            resume_at = 24
        path.write_bytes(damaged)
        resumed = MISService(
            graph, stream, seed=1, checkpoint=path, checkpoint_every=self.EVERY
        )
        # Exactly the prefix before the first bad line survives, on disk.
        assert path.read_bytes() == raw[:start(bad)]
        assert resumed.next_offset == resume_at
        resumed.run(EVENTS)
        resumed.close()
        np.testing.assert_array_equal(state_of(ref), state_of(resumed))
        assert records_of(ref) == records_of(resumed)
        assert ref.proc.round == resumed.proc.round

    def test_one_fsync_per_snapshot(self, tmp_path, monkeypatch):
        import repro.sim.checkpoint as checkpoint

        calls = []
        monkeypatch.setattr(checkpoint.os, "fsync", calls.append)
        n, events, every = 2**12, 4096, 16
        service = MISService(
            gnp_random_graph(n, 3.0 / n, rng=11),
            make_stream("uniform", n, seed=3),
            seed=1,
            checkpoint=tmp_path / "svc.ckpt",
            checkpoint_every=every,
        )
        service.run(events)
        service.close()
        # The header, the initial snapshot, then one per checkpoint_every.
        assert len(calls) == 2 + events // every == 258

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 4097])
    def test_snapshot_codec_roundtrip(self, n):
        rng = np.random.default_rng(n)
        black = rng.random(n) < 0.5
        blob = pack_state(black)
        assert len(blob) == -(-n // 8)
        decoded = unpack_state(blob, n, np.bool_)
        assert decoded.dtype == np.bool_
        np.testing.assert_array_equal(decoded, black)
        states = rng.integers(0, 3, size=n).astype(np.int8)
        blob = pack_state(states)
        assert len(blob) == 2 * -(-n // 8)
        decoded = unpack_state(blob, n, np.int8)
        assert decoded.dtype == np.int8
        np.testing.assert_array_equal(decoded, states)

    def test_wrong_length_blob_is_refused(self, graph, stream, tmp_path):
        journal = CheckpointJournal(tmp_path / "shared.ckpt", {"suite": 1})
        view = journal.scoped("svc/")
        MISService(
            graph, stream, seed=1, checkpoint=view, checkpoint_every=4
        ).run(8)
        # One byte per vertex, as journal version 1 stored the blob.
        view.put_bytes("blob:7", np.zeros(N, dtype=np.bool_).tobytes())
        with pytest.raises(CheckpointError, match="blob:7"):
            MISService(graph, stream, seed=1, checkpoint=view)
        journal.close()


# ---------------------------------------------------------------------------
# Chaos: kill / poison (torn tail) / hang / slow
# ---------------------------------------------------------------------------


class TestChaosRecovery:
    def test_scripted_kill_resume(self, graph, stream, tmp_path):
        ref = run_reference(graph, stream)
        path = tmp_path / "svc.ckpt"
        chaos = ServiceChaosPolicy.scripted(
            {(8, 0): "kill", (20, 0): "kill", (30, 0): "hang", (31, 0): "slow"}
        )

        def make_service():
            return MISService(
                graph, stream, seed=1, checkpoint=path, checkpoint_every=3
            )

        service, restarts = run_with_chaos(make_service, EVENTS, chaos)
        assert restarts == 2
        np.testing.assert_array_equal(state_of(ref), state_of(service))
        assert records_of(ref) == records_of(service)
        service.close()

    def test_torn_tail_resume(self, graph, stream, tmp_path):
        ref = run_reference(graph, stream)
        path = tmp_path / "svc.ckpt"
        chaos = ServiceChaosPolicy.scripted({(13, 0): "poison"})

        def make_service():
            return MISService(
                graph, stream, seed=1, checkpoint=path, checkpoint_every=2
            )

        service, restarts = run_with_chaos(make_service, EVENTS, chaos)
        assert restarts == 1
        np.testing.assert_array_equal(state_of(ref), state_of(service))
        assert records_of(ref) == records_of(service)
        service.close()
        # The torn fragment must have been truncated away on resume.
        with open(path, "rb") as fh:
            assert fh.read().endswith(b"\n")

    def test_seeded_chaos_converges(self, graph, stream, tmp_path):
        ref = run_reference(graph, stream)
        path = tmp_path / "svc.ckpt"
        chaos = ServiceChaosPolicy(seed=17, kill=0.08, poison=0.04)

        def make_service():
            return MISService(graph, stream, seed=1, checkpoint=path)

        service, restarts = run_with_chaos(make_service, EVENTS, chaos)
        np.testing.assert_array_equal(state_of(ref), state_of(service))
        assert records_of(ref) == records_of(service)
        service.close()

    def test_kill_without_journal_raises(self, graph, stream):
        chaos = ServiceChaosPolicy.scripted({(2, 0): "kill"})
        service = MISService(graph, stream, seed=1)
        with pytest.raises(ServiceKilledError) as err:
            service.run(EVENTS, chaos=chaos)
        assert err.value.offset == 2

    def test_run_with_chaos_restart_bound(self, graph, stream, tmp_path):
        # An unbounded policy that always kills offset 0 must exhaust.
        chaos = ServiceChaosPolicy(
            seed=0, kill=1.0, max_faulty_attempts=None
        )

        def make_service():
            return MISService(
                graph, stream, seed=1, checkpoint=tmp_path / "svc.ckpt"
            )

        with pytest.raises(ServiceKilledError):
            run_with_chaos(make_service, 4, chaos, max_restarts=3)


# ---------------------------------------------------------------------------
# Streams and the chaos policy
# ---------------------------------------------------------------------------


class TestStreams:
    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_streams_deterministic_and_seekable(self, kind):
        from repro.dynamic import DeltaOverlay

        graph = gnp_random_graph(32, 0.15, rng=1)
        events = []
        overlay = DeltaOverlay(graph)
        stream = make_stream(kind, 32, seed=9)
        for offset in range(25):
            event = stream.event_at(offset, overlay)
            events.append(event.to_tuple())
            overlay.apply_event(event)
        # Replaying from scratch yields the identical event sequence.
        overlay2 = DeltaOverlay(graph)
        stream2 = make_stream(kind, 32, seed=9)
        for offset in range(25):
            event = stream2.event_at(offset, overlay2)
            assert event.to_tuple() == events[offset]
            overlay2.apply_event(event)
        assert stream.spec() == stream2.spec()
        assert stream.spec()["stream"] == kind

    def test_spec_distinguishes_seeds_and_params(self):
        assert (
            make_stream("uniform", 16, seed=1).spec()
            != make_stream("uniform", 16, seed=2).spec()
        )
        assert (
            make_stream("flapping", 16, seed=1, links=4).spec()
            != make_stream("flapping", 16, seed=1, links=8).spec()
        )
        with pytest.raises(ValueError):
            make_stream("nope", 16)

    def test_hub_stream_targets_max_degree(self):
        graph = gnp_random_graph(32, 0.2, rng=3)
        from repro.dynamic import DeltaOverlay

        overlay = DeltaOverlay(graph)
        stream = make_stream("hub", 32, seed=0)
        event = stream.event_at(0, overlay)
        assert event.kind == "del-vertex"
        assert overlay.degrees()[event.u] == overlay.degrees().max()

    def test_churn_record_roundtrip(self):
        record = ChurnRecord(
            offset=3, kind="add-edge", added=1, removed=0,
            action="repair", compacted=False, rounds=2,
            stabilized=True, round_end=7,
        )
        assert ChurnRecord.from_dict(record.to_dict()) == record

    def test_churn_record_to_dict_matches_asdict(self):
        # Same keys, order and values: the journal's record bytes depend
        # on all three.
        graph = gnp_random_graph(40, 0.1, rng=2)
        service = MISService(graph, make_stream("uniform", 40, seed=1), seed=3)
        records = service.run(6)
        records.append(
            ChurnRecord(
                offset=3, kind="add-edge", added=1, removed=0,
                action="repair", compacted=False, rounds=2,
                stabilized=True, round_end=7,
            )
        )
        for record in records:
            assert list(record.to_dict().items()) == list(
                dataclasses.asdict(record).items()
            )


class TestServiceChaosPolicy:
    def test_seeded_draws_are_stable(self):
        policy = ServiceChaosPolicy(seed=5, kill=0.3, hang=0.2)
        draws = [policy.fault_for(o, 0) for o in range(50)]
        assert draws == [policy.fault_for(o, 0) for o in range(50)]
        assert any(d == "kill" for d in draws)
        # Attempt 1 never faults under the default bound.
        assert all(policy.fault_for(o, 1) is None for o in range(50))

    def test_namespace_disjoint_from_worker_policy(self):
        from repro.parallel.chaos import ChaosPolicy

        worker = ChaosPolicy(seed=5, kill=0.5)
        service = ServiceChaosPolicy(seed=5, kill=0.5)
        worker_draws = [worker.fault_for((o, o + 1), 0) for o in range(40)]
        service_draws = [service.fault_for(o, 0) for o in range(40)]
        assert worker_draws != service_draws

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceChaosPolicy(kill=0.9, poison=0.9)
        with pytest.raises(ValueError):
            ServiceChaosPolicy.scripted({(0, 0): "explode"})
