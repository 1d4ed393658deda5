"""Query-level checkpointing: survive dying *inside* a snapshot.

A campaign's spill store (:class:`~repro.core.spill.SpillStore`) persists
whole snapshots, but one snapshot is 4,032 hour-bin queries — 403,200
quota units in the paper's design.  Dying at query 4,000 and re-issuing
all 4,032 on resume wastes a day of quota and (worse) smears the snapshot
across quota days, which the paper's methodology explicitly avoids.

A :class:`PartialSnapshotStore` is an append-only JSONL sidecar inside
the spill directory (``partial.jsonl``): a header naming the snapshot
being collected, then one record per *completed* hour-bin query.
Each append is one flushed write, so the file is exactly as complete as
the collection was when the process died.  Flushing hands the bytes to
the OS without an fsync: the sidecar survives a process kill, not an OS
crash (see ``docs/RESILIENCE.md``, "Failure model").  On resume the
collector replays completed bins from the store and issues only the
missing ones; the determinism of the simulator (responses are a pure
function of query and request date) makes the resumed snapshot
byte-identical to an uninterrupted one.

A partially-written trailing line (the record being appended when the
process was killed) is tolerated and dropped — its hour bin is simply
re-queried, which is always safe because bins are only recorded *after*
their results are complete — and :meth:`PartialSnapshotStore.load` cuts
it off the file, since a resume appends without calling ``begin``.

Both collection engines record through the store in hour order, from the
collecting thread — the per-call loop one bin per write as each bin
completes (:meth:`~PartialSnapshotStore.record_hour`), the batch engine a
whole topic per write once its sweep is billed
(:meth:`~PartialSnapshotStore.record_hours`) — so the sidecar's contents
after a crash are an hour-order prefix per topic, and a resume under
either engine replays it identically (resumed topics always take the
per-call path; see :mod:`repro.core.batch`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from repro.util.jsonio import read_log
from repro.util.timeutil import format_rfc3339, parse_rfc3339

__all__ = ["PartialSnapshot", "PartialSnapshotStore"]


@dataclass
class PartialSnapshot:
    """Completed hour bins of one in-flight snapshot."""

    index: int
    collected_at: datetime
    #: (topic, hour index) -> (video IDs, reported pool size)
    hours: dict[tuple[str, int], tuple[list[str], int]] = field(default_factory=dict)

    def completed_for(self, topic: str) -> dict[int, tuple[list[str], int]]:
        """The completed bins of one topic, keyed by hour index."""
        return {h: v for (t, h), v in self.hours.items() if t == topic}


class PartialSnapshotStore:
    """Append-only persistence for one snapshot's completed hour bins."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        """Whether a partial snapshot is on disk."""
        return self.path.exists()

    # -- writing ---------------------------------------------------------------

    def begin(self, index: int, collected_at: datetime) -> None:
        """Start (or restart) recording one snapshot; truncates the file."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "kind": "partial-header",
                "index": index,
                "collected_at": format_rfc3339(collected_at),
            }, sort_keys=True))
            fh.write("\n")

    def record_hour(
        self, topic: str, hour: int, ids: list[str], pool: int, units: int = 0
    ) -> None:
        """Append one completed hour-bin query (flushed immediately)."""
        self.record_hours(topic, [(hour, ids, pool, units)])

    def record_hours(
        self, topic: str, bins: list[tuple[int, list[str], int, int]]
    ) -> None:
        """Append a topic's ``(hour, ids, pool, units)`` bins in one write.

        ``units`` is the quota each bin's queries spent.  The sidecar does
        not record it; stores that journal billing (the orchestrator's
        :class:`~repro.orchestrator.daemon.JournalPartialStore`) do.
        """
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("".join(
                json.dumps({
                    "kind": "hour",
                    "topic": topic,
                    "hour": hour,
                    "ids": list(ids),
                    "pool": int(pool),
                }, sort_keys=True) + "\n"
                for hour, ids, pool, _units in bins
            ))
            fh.flush()

    def clear(self) -> None:
        """Delete the partial file (the snapshot completed or is stale)."""
        self.path.unlink(missing_ok=True)

    # -- reading ---------------------------------------------------------------

    def load(self) -> PartialSnapshot | None:
        """Read the partial snapshot back, or ``None`` if absent.

        Raises ``ValueError`` on structural corruption (wrong header, bad
        record kinds); a truncated *final* line is dropped silently, since
        killing the process mid-append is this store's normal failure mode,
        and cut off the file, so the resumed bins append after the last
        complete record (the bin it tore will be re-queried).
        """
        if not self.path.exists():
            return None
        records = read_log(self.path, "partial checkpoint", cut_torn_tail=True)
        if not records:
            return None
        header = records[0]
        if header.get("kind") != "partial-header":
            raise ValueError(
                f"{self.path}: not a partial-snapshot file (missing header)"
            )
        partial = PartialSnapshot(
            index=int(header["index"]),
            collected_at=parse_rfc3339(header["collected_at"]),
        )
        for record in records[1:]:
            if record.get("kind") != "hour":
                raise ValueError(
                    f"{self.path}: unexpected record kind {record.get('kind')!r}"
                )
            key = (str(record["topic"]), int(record["hour"]))
            partial.hours[key] = (list(record["ids"]), int(record["pool"]))
        return partial
