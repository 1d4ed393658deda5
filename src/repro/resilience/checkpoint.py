"""Query-level checkpointing: survive dying *inside* a snapshot.

The campaign runner has always checkpointed whole snapshots, but one
snapshot is 4,032 hour-bin queries — 403,200 quota units in the paper's
design.  Dying at query 4,000 and re-issuing all 4,032 on resume wastes a
day of quota and (worse) smears the snapshot across quota days, which the
paper's methodology explicitly avoids.

A :class:`PartialSnapshotStore` is an append-only JSONL sidecar next to
the campaign checkpoint (``<checkpoint>.partial``): a header naming the
snapshot being collected, then one record per *completed* hour-bin query.
Appends are flushed per record, so the file is exactly as complete as the
collection was when the process died.  On resume the collector replays
completed bins from the store and issues only the missing ones; the
determinism of the simulator (responses are a pure function of query and
request date) makes the resumed snapshot byte-identical to an
uninterrupted one.

A partially-written trailing line (the record being appended when the
process was killed) is tolerated and dropped — its hour bin is simply
re-queried, which is always safe because bins are only recorded *after*
their results are complete.

Both collection engines record through the store bin by bin, in hour
order, from the collecting thread — the per-call loop as each bin
completes, the batch engine as it walks its finished sweep — so the
sidecar's contents after a crash are an hour-order prefix per topic, and a
resume under either engine replays it identically (resumed topics always
take the per-call path; see :mod:`repro.core.batch`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

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
        """Append one completed hour-bin query (flushed immediately).

        ``units`` is the quota the bin's queries spent.  The sidecar does
        not record it; stores that journal billing (the orchestrator's
        :class:`~repro.orchestrator.daemon.JournalPartialStore`) do.
        """
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "kind": "hour",
                "topic": topic,
                "hour": hour,
                "ids": list(ids),
                "pool": int(pool),
            }, sort_keys=True))
            fh.write("\n")
            fh.flush()

    def clear(self) -> None:
        """Delete the partial file (the snapshot completed or is stale)."""
        self.path.unlink(missing_ok=True)

    # -- reading ---------------------------------------------------------------

    def load(self) -> PartialSnapshot | None:
        """Read the partial snapshot back, or ``None`` if absent.

        Raises ``ValueError`` on structural corruption (wrong header, bad
        record kinds); a truncated *final* line is dropped silently, since
        killing the process mid-append is this store's normal failure mode.
        """
        if not self.path.exists():
            return None
        raw_lines = self.path.read_text(encoding="utf-8").splitlines()
        records: list[dict] = []
        for n, line in enumerate(raw_lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if n == len(raw_lines) - 1:
                    break  # interrupted append; the bin will be re-queried
                raise ValueError(
                    f"{self.path}:{n + 1}: corrupt partial checkpoint: {exc}"
                ) from exc
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
