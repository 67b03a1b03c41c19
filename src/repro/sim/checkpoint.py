"""Campaign checkpointing: a versioned, append-only journal.

Long Monte-Carlo campaigns (a 12-point grid × hundreds of trials) die
for boring reasons — preemption, Ctrl-C, a full disk — and PR 9's
resilience contract says dying must not forfeit completed work.  The
:class:`CheckpointJournal` is the persistence half of that contract: a
single JSONL file where the first line is a header (format version +
campaign fingerprint) and every further line is one completed unit of
work (``{"key": ..., "value": ...}``), appended the moment it
completes and, by default, made durable at once (write, flush,
fsync).  A re-run with ``resume=True`` replays the journal, skips
every journaled unit, and — because every replica owns an independent
coin stream — produces results bitwise-identical to an uninterrupted
run.

Key conventions (written by :mod:`repro.sim.montecarlo` and
:mod:`repro.parallel.fleet`):

=====================  ==============================================
key                    value
=====================  ==============================================
``stats``              a finished estimate's summarized TrialStats
``trial:{i}``          serial-path per-trial ``[stabilized, round]``
``chunk:{lo}``         chunked-path per-chunk result list
``shard:{lo}:{hi}``    fleet-path shard records (bytes, ReplicaState)
=====================  ==============================================

Robustness properties:

* **Group commit; torn data tolerated.**  ``put(..., sync=False)``
  only writes the line to the file buffer; the next synced put flushes
  and fsyncs the whole file, so one fsync commits the group (the MIS
  service journals its per-event records this way and commits with
  each snapshot).  After a crash, any line past the last fsync may be
  torn, missing or zero-filled — not only the last one.  Replay
  therefore keeps the longest decodable prefix: it stops at the first
  line that is not a keyed JSON object, truncates everything from
  there on disk (so later appends cannot merge into the garbage and
  vanish from future replays), and the lost units are simply re-run.
  A line written before the last fsync always survives.
* **Fingerprint checked.**  Resuming against a journal whose header
  fingerprint does not match the campaign raises
  :class:`CheckpointMismatchError` instead of silently splicing
  results from a different experiment.
* **Version gated.**  A journal written by any other format version
  (an older one included) is refused, not misparsed.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing as mp
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

#: On-disk format version (header field ``"version"``).  Version 2: the
#: MIS service's bit-packed snapshot blobs and group-committed records.
#: Version 3: fleet ``shard:`` blobs hold packed
#: :class:`~repro.core.replica.ReplicaState` records, not pickled
#: processes.  Version 4: replica record configs and the MIS service
#: spec no longer carry an ``engine`` key.
JOURNAL_VERSION = 4

#: Header magic so a random JSONL file is not mistaken for a journal.
_MAGIC = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint journal could not be read or written."""


class CheckpointMismatchError(CheckpointError):
    """A journal's fingerprint does not match the resuming campaign."""


def campaign_fingerprint(spec: Mapping[str, Any]) -> str:
    """Digest a campaign spec into a stable hex fingerprint.

    Canonical JSON (sorted keys, no whitespace variance) hashed with
    sha256 — two campaigns fingerprint equal iff their specs are equal,
    on any machine, in any process.
    """
    canonical = json.dumps(
        dict(spec), sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _encode_value(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(value)).decode("ascii")}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__bytes__"}:
        return base64.b64decode(value["__bytes__"])
    return value


class CheckpointJournal:
    """One campaign's on-disk journal of completed work units.

    Parameters
    ----------
    path:
        Journal file (parent directories are created).
    fingerprint:
        The campaign's identity — a spec mapping (fingerprinted via
        :func:`campaign_fingerprint`) or a ready-made hex digest.
    resume:
        ``True`` (default) replays an existing journal at ``path``
        (fingerprint-checked); ``False`` truncates and starts fresh.

    The journal is a mapping-flavored object: ``journal.put(key,
    value)`` persists one completed unit (JSON-serializable values;
    raw ``bytes`` are transparently base64-framed), ``journal.get`` /
    ``in`` query the replayed + live state.  :meth:`scoped` returns a
    key-prefixed view for nested campaigns (a fleet run or an MIS
    service sharing one journal with other work).
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: Mapping[str, Any] | str,
        *,
        resume: bool = True,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = (
            fingerprint
            if isinstance(fingerprint, str)
            else campaign_fingerprint(fingerprint)
        )
        self._entries: dict[str, Any] = {}
        #: fsyncs issued through this handle (one per synced put).
        self.fsyncs = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists() and self.path.stat().st_size > 0:
            self._replay()
            self._file = open(self.path, "a", encoding="utf-8")
        else:
            self._file = open(self.path, "w", encoding="utf-8")
            self._append(
                {
                    "magic": _MAGIC,
                    "version": JOURNAL_VERSION,
                    "fingerprint": self.fingerprint,
                }
            )
        self._closed = False

    def _replay(self) -> None:
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        try:
            header = json.loads(lines[0])
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"{self.path}: unreadable journal header"
            ) from exc
        if header.get("magic") != _MAGIC:
            raise CheckpointError(
                f"{self.path}: not a repro checkpoint journal"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"{self.path}: journal format version "
                f"{header.get('version')!r} (this build reads "
                f"{JOURNAL_VERSION})"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointMismatchError(
                f"{self.path}: journal belongs to a different campaign "
                f"(fingerprint {header.get('fingerprint')!r:.20} != "
                f"{self.fingerprint!r:.20}); pass resume=False (or the "
                "CLI's plain --checkpoint without --resume) to start over"
            )
        # Only newline-terminated lines count: split() leaves whatever
        # followed the final "\n" — a torn fragment, or b"" for a clean
        # file — as the last element, which is never replayed.
        good_end = len(lines[0]) + 1
        for line in lines[1:-1]:
            try:
                entry = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                # Torn, lost or zero-filled data past the last fsync:
                # every line before the last fsync is intact, so keep
                # the prefix and re-run the rest.
                break
            if not isinstance(entry, dict) or "key" not in entry:
                break
            self._entries[entry["key"]] = _decode_value(entry.get("value"))
            good_end += len(line) + 1
        if good_end < len(raw):
            # Drop the bad suffix *on disk*, not just in replay —
            # otherwise the very next append would merge into the
            # garbage line and hide every later entry from future
            # replays (the resume-after-poison chaos path).
            with open(self.path, "rb+") as fh:
                fh.truncate(good_end)

    def _append(self, record: Mapping[str, Any], sync: bool = True) -> None:
        self._file.write(
            json.dumps(record, separators=(",", ":"), default=repr) + "\n"
        )
        if sync:
            self._sync()

    def _sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1

    # -- mapping-flavored API ------------------------------------------
    def put(self, key: str, value: Any, *, sync: bool = True) -> None:
        """Journal one completed unit (durable on return unless ``sync=False``).

        With ``sync=True`` (default) the line — and every unsynced line
        before it — is flushed and fsynced before ``put`` returns, so it
        survives a crash.  ``sync=False`` only writes it to the file
        buffer: it becomes durable with the next synced put, and a crash
        before that may tear, lose or zero-fill it (replay then drops it
        and everything after it).
        """
        if self._closed:
            raise CheckpointError(f"{self.path}: journal is closed")
        self._entries[key] = value
        self._append({"key": key, "value": _encode_value(value)}, sync)

    def get(self, key: str, default: Any = None) -> Any:
        """The journaled value for ``key``, or ``default``."""
        return self._entries.get(key, default)

    def put_bytes(self, key: str, data: bytes, *, sync: bool = True) -> None:
        """Journal raw bytes (base64-framed on disk); ``sync`` as in :meth:`put`."""
        self.put(key, data, sync=sync)

    def get_bytes(self, key: str) -> bytes | None:
        """Journaled bytes for ``key``, or ``None``."""
        value = self._entries.get(key)
        return bytes(value) if isinstance(value, (bytes, bytearray)) else None

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[str]:
        """Journaled keys, in completion order."""
        return iter(self._entries)

    def scoped(self, prefix: str) -> "CheckpointView":
        """A key-prefixed view (for nested campaign structure)."""
        return CheckpointView(self, prefix)

    def tear_tail(self) -> None:
        """Append a deliberately torn (truncated, newline-less) record.

        Chaos-testing hook (:mod:`repro.parallel.chaos`): simulates a
        crash mid-append so resume paths can prove they tolerate a torn
        tail.  The next replay discards the fragment and truncates it
        from disk.
        """
        if self._closed:
            raise CheckpointError(f"{self.path}: journal is closed")
        self._file.write('{"key": "torn-')
        self._sync()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._file.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CheckpointJournal({str(self.path)!r}, entries={len(self)}, "
            f"fingerprint={self.fingerprint[:12]!r})"
        )


class CheckpointView:
    """A key-prefixed window onto a :class:`CheckpointJournal`.

    Same ``put``/``get``/``in`` surface as the journal, with every key
    transparently prefixed — a campaign hands a fleet run the view
    ``journal.scoped("phase1:")`` and the fleet dispatch writes its
    ``shard:{lo}:{hi}`` entries without knowing it is nested.
    """

    def __init__(self, journal: CheckpointJournal, prefix: str) -> None:
        self.journal = journal
        self.prefix = prefix

    def put(self, key: str, value: Any, *, sync: bool = True) -> None:
        """Journal one completed unit under the view's prefix."""
        self.journal.put(self.prefix + key, value, sync=sync)

    def get(self, key: str, default: Any = None) -> Any:
        """The journaled value for the prefixed ``key``, or ``default``."""
        return self.journal.get(self.prefix + key, default)

    def put_bytes(self, key: str, data: bytes, *, sync: bool = True) -> None:
        """Journal raw bytes under the view's prefix."""
        self.journal.put_bytes(self.prefix + key, data, sync=sync)

    def get_bytes(self, key: str) -> bytes | None:
        """Journaled bytes for the prefixed ``key``, or ``None``."""
        return self.journal.get_bytes(self.prefix + key)

    def __contains__(self, key: object) -> bool:
        return (self.prefix + str(key)) in self.journal

    def keys(self) -> Iterator[str]:
        """Journaled keys under the view's prefix (prefix stripped)."""
        plen = len(self.prefix)
        return (
            k[plen:]
            for k in self.journal.keys()
            if k.startswith(self.prefix)
        )

    def scoped(self, prefix: str) -> "CheckpointView":
        """A further-nested view (prefixes concatenate)."""
        return CheckpointView(self.journal, self.prefix + prefix)

    def __repr__(self) -> str:
        return f"CheckpointView({self.journal!r}, prefix={self.prefix!r})"


# ---------------------------------------------------------------------------
# Process-wide default checkpointing (the experiments CLI's --checkpoint)
# ---------------------------------------------------------------------------

_default_dir: Path | None = None
_default_resume: bool = True
_scope_label: str = ""
_scope_counter: int = 0


def set_default_checkpoint_dir(
    path: str | Path | None, *, resume: bool = True
) -> None:
    """Install a process-wide checkpoint directory (``None`` disables).

    With a directory installed, every campaign launched *without* an
    explicit ``checkpoint=`` (each ``estimate_stabilization_time``
    call) journals itself into a file
    there, named from the active :func:`checkpoint_scope` label, a
    per-scope campaign sequence number, and the campaign fingerprint —
    so one ``--checkpoint DIR --resume`` on the experiments CLI makes
    every Monte-Carlo campaign of every experiment resumable with no
    per-call-site plumbing.  Resets the campaign sequence.
    """
    global _default_dir, _default_resume, _scope_counter
    _default_dir = Path(path) if path is not None else None
    _default_resume = resume
    _scope_counter = 0


def get_default_checkpoint_dir() -> Path | None:
    """The installed default checkpoint directory, if any."""
    return _default_dir


@contextmanager
def checkpoint_scope(label: str) -> Iterator[None]:
    """Scope default-journal filenames/fingerprints under ``label``.

    The experiments CLI wraps each experiment in its id — two
    experiments whose campaigns happen to share a shape (same trials,
    budget, seed) must not resume from each other's journals, and the
    shape is all :func:`campaign_fingerprint` can see (a process
    factory cannot be fingerprinted).  Also resets the campaign
    sequence number, so within a scope the i-th campaign launched maps
    to the i-th journal deterministically on every (re-)run.
    """
    global _scope_label, _scope_counter
    previous = (_scope_label, _scope_counter)
    _scope_label = label
    _scope_counter = 0
    try:
        yield
    finally:
        _scope_label, _scope_counter = previous


def open_default_journal(
    spec: Mapping[str, Any],
) -> CheckpointJournal | None:
    """Open the default-directory journal for one campaign, if armed.

    ``None`` when no default directory is installed — and always in
    worker/child processes (a forked worker inherits the default, but
    only the master owns campaign journaling; children would assign
    nondeterministic sequence numbers).
    """
    global _scope_counter
    if _default_dir is None or mp.parent_process() is not None:
        return None
    index = _scope_counter
    _scope_counter += 1
    full = dict(spec)
    full["scope"] = _scope_label
    full["campaign_index"] = index
    fingerprint = campaign_fingerprint(full)
    stem = f"{_scope_label or 'campaign'}-{index:03d}-{fingerprint[:12]}"
    return CheckpointJournal(
        _default_dir / f"{stem}.journal",
        fingerprint,
        resume=_default_resume,
    )
