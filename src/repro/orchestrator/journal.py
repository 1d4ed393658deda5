"""The orchestrator's write-ahead journal: append, fsync, replay, compact.

Durability model
----------------

Two files live in the orchestrator's workdir:

``journal.jsonl``
    Append-only JSONL, one record per line, every record stamped with a
    monotonically increasing ``seq``.  One :meth:`Journal.append` call is
    one write and one fsync, whether it carries one record or a whole
    topic sweep's hour bins — so any state the daemon *acts on* is already
    on disk.  Whichever call creates the file fsyncs the workdir once, so
    the file's name is as durable as its records.  A process killed
    mid-write leaves a prefix of complete lines plus at most one torn
    trailing line; replay keeps the complete lines and drops the torn
    one, and :meth:`Journal.recover` cuts it off the file (fsynced) before
    the next append can extend it.

``snapshot.json``
    An atomically-written fold of every record up to ``last_seq``
    (:meth:`~repro.orchestrator.model.OrchestratorState.to_dict`).
    Compaction writes it via temp-file + ``os.replace`` + fsync, *then*
    truncates the journal.  A crash between those two steps is harmless:
    the journal still holds records with ``seq <= last_seq``, and the
    reducer skips them on replay.

Recovery is therefore always: load ``snapshot.json`` if present, then
apply the surviving ``journal.jsonl`` records in order.  There is no
window in which a ``kill -9`` loses an acknowledged record or applies one
twice.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.orchestrator.model import OrchestratorState
from repro.util.jsonio import _fsync_dir, atomic_write_text, read_log

__all__ = ["Journal"]


class Journal:
    """One workdir's write-ahead journal and compaction snapshot."""

    def __init__(self, workdir: str | Path) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.workdir / "journal.jsonl"
        self.snapshot_path = self.workdir / "snapshot.json"
        self._fh = None
        self._next_seq = 1
        #: Fsynced writes since the last compaction (drives compact_every
        #: policies); a group of records written together counts once.
        self.appends_since_compact = 0

    # -- writing ---------------------------------------------------------------

    def append(self, *records: dict) -> list[dict]:
        """Stamp consecutive ``seq``s; one write, flush, fsync for them all.

        Returns the stamped records.  The fsync is the whole point of a
        write-ahead journal: when ``append`` returns, every record it
        carried survives ``kill -9``.  A kill inside the write leaves a
        prefix of them on disk, each a complete line that replay keeps.
        Callers apply the returned records to their in-memory reducer so
        memory and disk stay in lockstep.
        """
        stamped = []
        for record in records:
            stamped.append(dict(record, seq=self._next_seq))
            self._next_seq += 1
        fh = self._handle()
        fh.write("".join(
            json.dumps(record, sort_keys=True) + "\n" for record in stamped
        ))
        fh.flush()
        os.fsync(fh.fileno())
        self.appends_since_compact += 1
        return stamped

    def _handle(self):
        if self._fh is None:
            self._fh = self._open("a")
        return self._fh

    def _open(self, mode: str):
        """Open the journal file; fsync the workdir if this created it."""
        created = not self.journal_path.exists()
        fh = open(self.journal_path, mode, encoding="utf-8")
        if created:
            _fsync_dir(self.workdir)
        return fh

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading ---------------------------------------------------------------

    def replay_records(self) -> list[dict]:
        """The surviving journal records, torn trailing line dropped."""
        return self._replay(cut_torn_tail=False)

    def _replay(self, cut_torn_tail: bool) -> list[dict]:
        if not self.journal_path.exists():
            return []
        return read_log(
            self.journal_path, "journal", cut_torn_tail=cut_torn_tail,
            fsync=True,
        )

    def recover(self) -> OrchestratorState:
        """Fold snapshot + journal into the authoritative state.

        Cuts a torn trailing line off the journal first (the next append
        must start a line of its own, or it would corrupt the fragment and
        itself), and primes :attr:`Journal.append`'s ``seq`` counter past
        everything already on disk, so new records keep the monotonic
        ordering replay depends on.
        """
        state = OrchestratorState()
        if self.snapshot_path.exists():
            state = OrchestratorState.from_dict(
                json.loads(self.snapshot_path.read_text(encoding="utf-8"))
            )
        for record in self._replay(cut_torn_tail=True):
            state.apply(record)
        self._next_seq = max(self._next_seq, state.last_seq + 1)
        return state

    # -- compaction ------------------------------------------------------------

    def compact(self, state: OrchestratorState) -> None:
        """Snapshot the folded state atomically, then truncate the journal.

        Order is load-bearing: the snapshot must be durable *before* the
        journal lines it covers disappear.  A crash after the snapshot
        write but before the truncate only leaves already-folded records
        behind, and ``seq`` idempotence makes their replay a no-op.
        """
        self.close()
        atomic_write_text(
            self.snapshot_path,
            json.dumps(state.to_dict(), sort_keys=True) + "\n",
        )
        with self._open("w") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        self.appends_since_compact = 0
