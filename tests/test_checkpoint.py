"""Tests for campaign checkpointing (:mod:`repro.sim.checkpoint`).

The persistence half of the PR 9 resilience contract:

* **Journal mechanics** — append/replay round-trips, bytes framing,
  scoped views, torn-tail tolerance, fingerprint/version/magic gates.
* **Campaign resume** — an estimate or fleet interrupted mid-campaign
  and re-run with ``resume`` skips completed units and produces
  results bitwise-identical to an uninterrupted run.
* **Default-directory plumbing** — the experiments CLI's
  ``--checkpoint DIR`` path: scope labels, campaign sequence numbers,
  and the child-process refusal.
"""

import json

import numpy as np
import pytest

from repro.core.two_state import TwoStateMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.checkpoint import (
    JOURNAL_VERSION,
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    campaign_fingerprint,
    checkpoint_scope,
    get_default_checkpoint_dir,
    open_default_journal,
    set_default_checkpoint_dir,
)
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.runner import run_many_until_stable


@pytest.fixture(autouse=True)
def _no_default_checkpoint_dir():
    # Tests that install a default directory must not leak it.
    yield
    set_default_checkpoint_dir(None)


def _factory(trial_seed):
    return TwoStateMIS(
        gnp_random_graph(30, 0.1, rng=trial_seed), coins=trial_seed
    )


def _assert_stats_equal(a, b):
    assert np.array_equal(a.times, b.times)
    assert a.failures == b.failures
    assert a.max_rounds == b.max_rounds


# ---------------------------------------------------------------------------
# Journal mechanics
# ---------------------------------------------------------------------------


def test_journal_roundtrip_and_replay(tmp_path):
    path = tmp_path / "campaign.journal"
    spec = {"kind": "test", "trials": 3}
    with CheckpointJournal(path, spec, resume=False) as journal:
        journal.put("stats", {"mean": 4.5})
        journal.put("trial:0", [True, 7])
        journal.put_bytes("shard:0:4", b"\x00payload\xff")
        assert len(journal) == 3
        assert "trial:0" in journal and "trial:9" not in journal
    with CheckpointJournal(path, spec, resume=True) as journal:
        assert journal.get("stats") == {"mean": 4.5}
        assert journal.get("trial:0") == [True, 7]
        assert journal.get_bytes("shard:0:4") == b"\x00payload\xff"
        assert journal.get("missing", "sentinel") == "sentinel"
        assert list(journal.keys()) == ["stats", "trial:0", "shard:0:4"]


def test_journal_fingerprint_mismatch_refuses_resume(tmp_path):
    path = tmp_path / "campaign.journal"
    CheckpointJournal(path, {"trials": 3}, resume=False).close()
    with pytest.raises(CheckpointMismatchError, match="different campaign"):
        CheckpointJournal(path, {"trials": 4}, resume=True)
    # resume=False starts over instead.
    journal = CheckpointJournal(path, {"trials": 4}, resume=False)
    assert len(journal) == 0
    journal.close()


def test_journal_rejects_foreign_and_future_files(tmp_path):
    alien = tmp_path / "alien.journal"
    alien.write_text('{"not": "a journal"}\n')
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        CheckpointJournal(alien, {}, resume=True)
    fingerprint = campaign_fingerprint({})
    for version in (1, 999):  # version 1: byte-per-vertex service blobs
        other = tmp_path / f"v{version}.journal"
        other.write_text(
            f'{{"magic": "repro-checkpoint", "version": {version}, '
            f'"fingerprint": "{fingerprint}"}}\n'
        )
        with pytest.raises(CheckpointError, match="version"):
            CheckpointJournal(other, {}, resume=True)
    garbled = tmp_path / "garbled.journal"
    garbled.write_text("{{{\n")
    with pytest.raises(CheckpointError, match="header"):
        CheckpointJournal(garbled, {}, resume=True)


def test_journal_tolerates_torn_tail(tmp_path):
    path = tmp_path / "campaign.journal"
    spec = {"kind": "torn"}
    with CheckpointJournal(path, spec, resume=False) as journal:
        journal.put("trial:0", [True, 5])
        journal.put("trial:1", [True, 9])
    # Simulate a crash mid-append: a truncated final line.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "trial:2", "val')
    with CheckpointJournal(path, spec, resume=True) as journal:
        assert journal.get("trial:0") == [True, 5]
        assert journal.get("trial:1") == [True, 9]
        assert "trial:2" not in journal  # re-run, not misparsed


@pytest.fixture
def fsync_calls(monkeypatch):
    """Count ``os.fsync`` calls made by the checkpoint module."""
    import repro.sim.checkpoint as checkpoint

    calls = []
    real = checkpoint.os.fsync
    monkeypatch.setattr(
        checkpoint.os, "fsync", lambda fd: (calls.append(fd), real(fd))
    )
    return calls


def test_unsynced_puts_commit_with_next_synced_put(tmp_path, fsync_calls):
    path = tmp_path / "group.journal"
    with CheckpointJournal(path, {}, resume=False) as journal:
        assert len(fsync_calls) == 1  # the header
        journal.put("rec:0", 0, sync=False)
        journal.scoped("v/").put_bytes("rec:1", b"\x01", sync=False)
        assert len(fsync_calls) == 1
        journal.put("blob:1", 1)
        assert len(fsync_calls) == journal.fsyncs == 2
        # One fsync made the whole group durable.
        assert path.read_bytes().count(b"\n") == 4
    with CheckpointJournal(path, {}, resume=True) as journal:
        assert list(journal.keys()) == ["rec:0", "v/rec:1", "blob:1"]


def _garble_line(raw, lines, i):
    """Overwrite line ``i`` (newline kept) with same-length garbage."""
    start = sum(len(line) + 1 for line in lines[:i])
    return raw[:start] + b"#" * len(lines[i]) + raw[start + len(lines[i]):]


def _zero_fill_across(raw, lines, i):
    """A NUL run from mid-line ``i`` into line ``i + 1``."""
    start = sum(len(line) + 1 for line in lines[:i]) + len(lines[i]) // 2
    stop = start + len(lines[i]) // 2 + 1 + len(lines[i + 1]) // 2
    return raw[:start] + b"\0" * (stop - start) + raw[stop:]


@pytest.mark.parametrize("corrupt", [_garble_line, _zero_fill_across])
def test_replay_keeps_prefix_before_bad_line_in_unsynced_group(
    tmp_path, corrupt
):
    # After a crash any unsynced line may be bad, not only the last:
    # replay keeps exactly the lines before the first bad one, even when
    # valid lines follow it, and truncates the rest on disk.
    path = tmp_path / "group.journal"
    with CheckpointJournal(path, {}, resume=False) as journal:
        journal.put("snap:0", 0)
        for i in range(1, 6):
            journal.put(f"rec:{i}", [i, "x" * i], sync=False)
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    path.write_bytes(corrupt(raw, lines, 3))  # rec:2's line
    with CheckpointJournal(path, {}, resume=True) as journal:
        assert list(journal.keys()) == ["snap:0", "rec:1"]
    assert path.read_bytes() == b"".join(line + b"\n" for line in lines[:3])


def test_campaign_journals_fsync_every_put(tmp_path, fsync_calls):
    # Estimate and fleet journals keep one synced put per completed unit.
    estimate = tmp_path / "estimate.journal"
    estimate_stabilization_time(
        _factory, trials=4, max_rounds=300, seed=4, batch=None,
        checkpoint=estimate,
    )
    assert len(fsync_calls) == estimate.read_bytes().count(b"\n") == 6
    fleet = tmp_path / "fleet.journal"
    graph = gnp_random_graph(40, 0.1, rng=3)
    with CheckpointJournal(fleet, {"kind": "fleet"}, resume=False) as journal:
        run_many_until_stable(
            [TwoStateMIS(graph, coins=50 + i) for i in range(8)],
            max_rounds=400, n_jobs=2, journal=journal,
        )
        assert journal.fsyncs == fleet.read_bytes().count(b"\n") == 3
    assert len(fsync_calls) == 6 + 3


def test_closed_journal_refuses_writes(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.journal", {}, resume=False)
    journal.close()
    journal.close()  # idempotent
    with pytest.raises(CheckpointError, match="closed"):
        journal.put("key", 1)


def test_scoped_views_nest_prefixes(tmp_path):
    with CheckpointJournal(
        tmp_path / "j.journal", {}, resume=False
    ) as journal:
        point = journal.scoped("p3:")
        point.put("stats", {"mean": 1.0})
        inner = point.scoped("chunk:")
        inner.put_bytes("0", b"abc")
        assert journal.get("p3:stats") == {"mean": 1.0}
        assert journal.get_bytes("p3:chunk:0") == b"abc"
        assert "stats" in point
        assert point.get_bytes("chunk:0") == b"abc"


def test_campaign_fingerprint_is_canonical():
    a = campaign_fingerprint({"trials": 3, "seed": 0})
    b = campaign_fingerprint({"seed": 0, "trials": 3})
    assert a == b  # key order is irrelevant
    assert a != campaign_fingerprint({"seed": 1, "trials": 3})


# ---------------------------------------------------------------------------
# Campaign resume: estimates
# ---------------------------------------------------------------------------


def test_estimate_checkpoint_caches_and_resumes(tmp_path):
    path = tmp_path / "estimate.journal"
    baseline = estimate_stabilization_time(
        _factory, trials=5, max_rounds=300, seed=2
    )
    first = estimate_stabilization_time(
        _factory, trials=5, max_rounds=300, seed=2, checkpoint=path
    )
    _assert_stats_equal(baseline, first)
    # Second run: everything is served from the journal ("stats" key).
    second = estimate_stabilization_time(
        _factory, trials=5, max_rounds=300, seed=2, checkpoint=path
    )
    _assert_stats_equal(baseline, second)


def test_estimate_checkpoint_mismatch_raises(tmp_path):
    path = tmp_path / "estimate.journal"
    estimate_stabilization_time(
        _factory, trials=5, max_rounds=300, seed=2, checkpoint=path
    )
    with pytest.raises(CheckpointMismatchError):
        estimate_stabilization_time(
            _factory, trials=6, max_rounds=300, seed=2, checkpoint=path
        )
    # resume=False starts the journal over for the new campaign.
    stats = estimate_stabilization_time(
        _factory, trials=6, max_rounds=300, seed=2, checkpoint=path,
        resume=False,
    )
    assert len(stats.times) + stats.failures == 6


def test_estimate_journal_from_another_coin_stream_is_refused(tmp_path):
    # A campaign journal whose fingerprint lacks the coin-stream identity
    # (as every journal written before the counter-based stream does)
    # holds results drawn from another stream: never resume from it.
    path = tmp_path / "estimate.journal"
    spec = {
        "kind": "estimate", "trials": 5, "max_rounds": 300, "seed": 2,
        "batch": "auto",
    }
    with CheckpointJournal(path, spec, resume=False) as journal:
        journal.put("stats", {"times": [1] * 5, "failures": 0,
                              "max_rounds": 300})
    with pytest.raises(CheckpointMismatchError):
        estimate_stabilization_time(
            _factory, trials=5, max_rounds=300, seed=2, checkpoint=path
        )


def test_estimate_serial_path_resumes_per_trial(tmp_path):
    path = tmp_path / "estimate.journal"
    baseline = estimate_stabilization_time(
        _factory, trials=6, max_rounds=300, seed=4, batch=None
    )
    estimate_stabilization_time(
        _factory, trials=6, max_rounds=300, seed=4, batch=None,
        checkpoint=path,
    )
    # Drop the summary so the re-run must rebuild from trial keys.
    lines = path.read_text().splitlines()
    kept = [line for line in lines if json.loads(line).get("key") != "stats"]
    assert len(kept) == len(lines) - 1
    path.write_text("\n".join(kept) + "\n")
    resumed = estimate_stabilization_time(
        _factory, trials=6, max_rounds=300, seed=4, batch=None,
        checkpoint=path,
    )
    _assert_stats_equal(baseline, resumed)


# ---------------------------------------------------------------------------
# Fleet-level shard journaling
# ---------------------------------------------------------------------------


def test_fleet_restores_journaled_shards(tmp_path):
    graph = gnp_random_graph(40, 0.1, rng=3)
    serial = [TwoStateMIS(graph, coins=50 + i) for i in range(8)]
    rs = run_many_until_stable(serial, max_rounds=400)

    path = tmp_path / "fleet.journal"
    with CheckpointJournal(path, {"kind": "fleet"}, resume=False) as journal:
        fleet = [TwoStateMIS(graph, coins=50 + i) for i in range(8)]
        run_many_until_stable(
            fleet, max_rounds=400, n_jobs=2, journal=journal.scoped("f:")
        )
        journaled = [k for k in journal.keys() if k.startswith("f:shard:")]
        assert len(journaled) == 2
    # A fresh run against the same journal re-dispatches nothing: the
    # results come straight from the journaled shard payloads.
    with CheckpointJournal(path, {"kind": "fleet"}, resume=True) as journal:
        restored = [TwoStateMIS(graph, coins=50 + i) for i in range(8)]
        rr = run_many_until_stable(
            restored, max_rounds=400, n_jobs=2, journal=journal.scoped("f:")
        )
    assert len(rr) == len(rs)
    for a, b in zip(rs, rr):
        assert a.stabilization_round == b.stabilization_round
    for a, b in zip(serial, restored):
        assert np.array_equal(a.state_vector(), b.state_vector())
        assert np.array_equal(a.coins.bits(8), b.coins.bits(8))


def _rewrite_fleet_journal_version(tmp_path, version):
    """A journaled fleet run whose header is rewritten to ``version``."""
    graph = gnp_random_graph(40, 0.1, rng=3)
    path = tmp_path / "fleet.journal"
    spec = {"kind": "fleet"}
    with CheckpointJournal(path, spec, resume=False) as journal:
        run_many_until_stable(
            [TwoStateMIS(graph, coins=50 + i) for i in range(4)],
            max_rounds=400, n_jobs=2, journal=journal.scoped("f:"),
        )
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["version"] == JOURNAL_VERSION == 4
    header["version"] = version
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return path, spec


def test_version_2_fleet_journal_is_refused(tmp_path):
    # Version 2 journaled shards as pickled process objects; the
    # current build must refuse the file rather than try to decode its
    # shards.
    path, spec = _rewrite_fleet_journal_version(tmp_path, 2)
    with pytest.raises(CheckpointError, match="version 2"):
        CheckpointJournal(path, spec, resume=True)


def test_version_3_fleet_journal_is_refused(tmp_path):
    # Version 3 replica records carried an ``engine`` config key, which
    # no process accepts any more.
    path, spec = _rewrite_fleet_journal_version(tmp_path, 3)
    with pytest.raises(CheckpointError, match="version 3"):
        CheckpointJournal(path, spec, resume=True)


# ---------------------------------------------------------------------------
# Default-directory plumbing (the CLI's --checkpoint DIR)
# ---------------------------------------------------------------------------


def test_default_journal_names_scope_and_sequence(tmp_path):
    set_default_checkpoint_dir(tmp_path)
    assert get_default_checkpoint_dir() == tmp_path
    with checkpoint_scope("E7"):
        first = open_default_journal({"kind": "estimate"})
        second = open_default_journal({"kind": "estimate"})
        assert first is not None and second is not None
        try:
            assert first.path.name.startswith("E7-000-")
            assert second.path.name.startswith("E7-001-")
            # Same spec, different sequence number => distinct
            # fingerprints (and thus distinct journals).
            assert first.fingerprint != second.fingerprint
        finally:
            first.close()
            second.close()
    with checkpoint_scope("E7"):
        again = open_default_journal({"kind": "estimate"})
        assert again is not None
        try:
            # Scope entry resets the sequence: re-runs map the i-th
            # campaign to the i-th journal deterministically.
            assert again.path.name == first.path.name
        finally:
            again.close()


def test_default_journal_disabled_without_directory():
    set_default_checkpoint_dir(None)
    assert open_default_journal({"kind": "estimate"}) is None


def test_estimate_uses_default_directory(tmp_path):
    set_default_checkpoint_dir(tmp_path)
    baseline = estimate_stabilization_time(
        _factory, trials=4, max_rounds=300, seed=8
    )
    set_default_checkpoint_dir(tmp_path)  # reset the sequence counter
    cached = estimate_stabilization_time(
        _factory, trials=4, max_rounds=300, seed=8
    )
    _assert_stats_equal(baseline, cached)
    assert list(tmp_path.glob("campaign-000-*.journal"))
