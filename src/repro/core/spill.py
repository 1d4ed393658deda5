"""Disk-backed columnar campaign store: campaigns bigger than RAM.

A 52-week many-topic campaign (the paper's design, and the TubeCensus
longitudinal censuses that push it further) cannot hold every raw
snapshot in memory.  :class:`SpillStore` spills each
:class:`~repro.core.datasets.Snapshot` to a compact on-disk columnar
form the moment its collection completes, so the campaign runner only
ever holds the snapshot in flight; analyses reload from disk with
bounded-memory iteration or feed the incremental
:class:`~repro.core.index.CampaignIndex` one collection at a time.

On-disk layout (one directory per campaign)::

    manifest.json       atomic truth: format, topic keys, one entry per
                        spilled snapshot (files + byte counts)
    snap-00000.jsonl    one line per topic: interned video-ID table
                        ("ids", first-seen order), per-hour-bin rows
                        into that table, pool draws, missing hours
    meta-00000.jsonl    sidecar, only when a topic captured metadata or
                        comments: video/channel resources + raw comments,
                        written and read as resource texts (the campaign
                        file's line encoder and decoder)

The data lines intern each topic-snapshot's video IDs once (``ids``)
and store every hour bin as integer rows into that table — the same
interning trick as :class:`~repro.core.index.CampaignIndex`, so a video
returned in many bins costs one string on disk.  Dict insertion order
(hour bins, metadata, comments) is preserved end to end, which is what
makes a reload byte-identical under :meth:`CampaignResult.save`.

Atomicity mirrors the orchestrator journal: :meth:`append` writes and
fsyncs the snapshot's data (and sidecar) files first, then replaces the
manifest through the same-directory temp + :func:`os.replace` path of
:mod:`repro.util.jsonio`.  A crash mid-append leaves at worst an orphan
or torn data file that the (old, intact) manifest never references —
:meth:`open` sees the previous consistent state and a re-collection
overwrites the orphan.  ``tests/test_spill.py`` and
``tools/spill_smoke.py`` (a real SIGKILL mid-campaign) pin this.

Equivalence is the contract, as everywhere in this repository:
:meth:`export_jsonl` streams the exact record sequence
:meth:`CampaignResult.save` writes — byte-identical, pinned against the
golden campaign sha256 — and :meth:`load` rebuilds snapshots that
compare ``==`` to the originals.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Iterator

from repro.core.datasets import (
    CampaignResult,
    Snapshot,
    TopicSnapshot,
    campaign_records,
)
from repro.obs.observer import Observer
from repro.util.jsonio import (
    dump_json,
    encode_record,
    load_json,
    read_jsonl,
    read_records,
    write_jsonl,
)
from repro.util.timeutil import format_rfc3339, parse_rfc3339

__all__ = ["SpillStore", "SPILL_FORMAT"]

#: On-disk format version (bump on incompatible layout changes).
SPILL_FORMAT = 1

_MANIFEST = "manifest.json"


def _encode_topic(snap: Snapshot, key: str, ts: TopicSnapshot) -> dict:
    """One topic-snapshot as a columnar data line (interned IDs)."""
    ids: list[str] = []
    id_row: dict[str, int] = {}
    hours: list[int] = []
    rows: list[list[int]] = []
    for hour, hour_ids in ts.hour_video_ids.items():
        hours.append(hour)
        hour_rows: list[int] = []
        for vid in hour_ids:
            row = id_row.get(vid)
            if row is None:
                row = id_row[vid] = len(ids)
                ids.append(vid)
            hour_rows.append(row)
        rows.append(hour_rows)
    record = {
        "kind": "spill-topic",
        "index": snap.index,
        "topic": key,
        "ids": ids,
        "hours": hours,
        "rows": rows,
        "pool_hours": list(ts.pool_sizes.keys()),
        "pools": list(ts.pool_sizes.values()),
    }
    if ts.missing_hours:
        record["missing"] = list(ts.missing_hours)
    return record


def _decode_topic(record: dict, collected_at, meta: dict) -> TopicSnapshot:
    """Inverse of :func:`_encode_topic` (dict orders preserved), with the
    topic's sidecar record (``{}`` when it captured nothing)."""
    ids = record["ids"]
    hour_video_ids = {
        int(hour): [ids[row] for row in hour_rows]
        for hour, hour_rows in zip(record["hours"], record["rows"])
    }
    pool_sizes = {
        int(hour): int(pool)
        for hour, pool in zip(record["pool_hours"], record["pools"])
    }
    return TopicSnapshot(
        topic=record["topic"],
        collected_at=collected_at,
        hour_video_ids=hour_video_ids,
        pool_sizes=pool_sizes,
        video_meta=meta.get("video_meta", {}),
        channel_meta=meta.get("channel_meta", {}),
        comments=meta.get("comments", {}),
        missing_hours=[int(h) for h in record.get("missing", [])],
    )


def _write_fsync(path: Path, lines: list[str]) -> int:
    """Write lines and fsync; returns the byte count.  Not atomic on its
    own — the manifest replace is what publishes the file."""
    text = "".join(line + "\n" for line in lines)
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return len(data)


class SpillStore:
    """One campaign's disk-backed columnar snapshot store.

    Construct through :meth:`create` (new directory), :meth:`open`
    (existing store), or :meth:`attach` (open-or-create, the campaign
    runner's resume path).  :meth:`append` is durable: once it returns,
    the snapshot survives SIGKILL.
    """

    def __init__(
        self,
        directory: str | Path,
        manifest: dict,
        observer: Observer | None = None,
    ) -> None:
        self.directory = Path(directory)
        self._manifest = manifest
        self.observer = observer or Observer()

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        topic_keys: tuple[str, ...] | list[str],
        observer: Observer | None = None,
    ) -> "SpillStore":
        """Start an empty store (the directory may exist but must not
        already hold a manifest)."""
        directory = Path(directory)
        if directory.exists() and not directory.is_dir():
            raise ValueError(
                f"{directory} is a file, not a spill directory; a campaign "
                "JSONL file is read by CampaignResult.load()"
            )
        if (directory / _MANIFEST).exists():
            raise ValueError(
                f"spill directory {directory} already holds a campaign; "
                "use SpillStore.open() (or attach()) to resume it"
            )
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": SPILL_FORMAT,
            "topic_keys": list(topic_keys),
            "snapshots": [],
        }
        dump_json(directory / _MANIFEST, manifest, atomic=True)
        return cls(directory, manifest, observer)

    @classmethod
    def open(
        cls, directory: str | Path, observer: Observer | None = None
    ) -> "SpillStore":
        """Open an existing store, verifying manifest + file integrity.

        Orphan or torn data files that the manifest does not reference
        (a crash mid-append) are ignored — the manifest is the truth.
        A *referenced* file that is missing or short is real corruption
        and raises.
        """
        directory = Path(directory)
        manifest_path = directory / _MANIFEST
        if not manifest_path.exists():
            raise ValueError(
                f"{directory} is not a spill directory (no {_MANIFEST})"
            )
        try:
            manifest = load_json(manifest_path)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: corrupt manifest: {exc}") from exc
        fmt = manifest.get("format")
        if fmt != SPILL_FORMAT:
            raise ValueError(
                f"{manifest_path}: unsupported spill format {fmt!r} "
                f"(this build reads format {SPILL_FORMAT})"
            )
        for entry in manifest["snapshots"]:
            for file_key, bytes_key in (("data", "data_bytes"),
                                        ("meta", "meta_bytes")):
                name = entry.get(file_key)
                if name is None:
                    continue
                path = directory / name
                if not path.exists():
                    raise ValueError(
                        f"{directory}: manifest references missing file {name}"
                    )
                actual = path.stat().st_size
                if actual != entry[bytes_key]:
                    raise ValueError(
                        f"{directory}: {name} is {actual} bytes, manifest "
                        f"recorded {entry[bytes_key]} (corrupt store)"
                    )
        return cls(directory, manifest, observer)

    @classmethod
    def attach(
        cls,
        directory: str | Path,
        topic_keys: tuple[str, ...] | list[str],
        observer: Observer | None = None,
    ) -> "SpillStore":
        """Open when a manifest exists (validating the topic keys match),
        create otherwise — the campaign runner's resume entry point."""
        directory = Path(directory)
        if not (directory / _MANIFEST).exists():
            return cls.create(directory, topic_keys, observer)
        store = cls.open(directory, observer)
        if tuple(store.topic_keys) != tuple(topic_keys):
            raise ValueError(
                f"spill directory {directory} holds topics "
                f"{list(store.topic_keys)}, campaign wants {list(topic_keys)}"
            )
        return store

    # -- reading -------------------------------------------------------------

    @property
    def topic_keys(self) -> tuple[str, ...]:
        """The campaign's topic keys, in analysis order."""
        return tuple(self._manifest["topic_keys"])

    @property
    def n_snapshots(self) -> int:
        """Number of durably spilled snapshots."""
        return len(self._manifest["snapshots"])

    @property
    def total_bytes(self) -> int:
        """Bytes of spilled data + sidecar files, per the manifest."""
        return sum(
            entry["data_bytes"] + entry["meta_bytes"]
            for entry in self._manifest["snapshots"]
        )

    def collected_dates(self) -> list:
        """Collection datetimes of the spilled snapshots, in order —
        straight from the manifest, no data files touched (the campaign
        runner's resume validation)."""
        return [
            parse_rfc3339(entry["collected_at"])
            for entry in self._manifest["snapshots"]
        ]

    def read_snapshot(self, index: int) -> Snapshot:
        """Load one snapshot from its data (and sidecar) files."""
        entry = self._manifest["snapshots"][index]
        collected_at = parse_rfc3339(entry["collected_at"])
        meta: dict[str, dict] = {}
        if entry.get("meta") is not None:
            for record in read_records(self.directory / entry["meta"]):
                meta[record["topic"]] = record
        topics: dict[str, TopicSnapshot] = {}
        for record in read_jsonl(self.directory / entry["data"]):
            if record.get("kind") != "spill-topic":
                raise ValueError(
                    f"{self.directory / entry['data']}: unexpected record "
                    f"kind {record.get('kind')!r}"
                )
            topics[record["topic"]] = _decode_topic(
                record, collected_at, meta.get(record["topic"], {})
            )
        stray = sorted(set(meta) - set(topics))
        if stray:
            raise ValueError(
                f"{self.directory / entry['meta']}: metadata for topic(s) "
                f"{', '.join(stray)} that the snapshot does not hold"
            )
        return Snapshot(
            index=int(entry["index"]), collected_at=collected_at, topics=topics
        )

    def iter_snapshots(self) -> Iterator[Snapshot]:
        """Bounded-memory iteration: one snapshot in memory at a time."""
        for index in range(self.n_snapshots):
            yield self.read_snapshot(index)

    def load(self, corpus=None) -> CampaignResult:
        """Materialize the full campaign (when it does fit in memory)."""
        return CampaignResult(
            topic_keys=self.topic_keys,
            snapshots=list(self.iter_snapshots()),
            corpus=corpus,
        )

    def build_index(self, corpus=None, observer: Observer | None = None):
        """An incremental :class:`~repro.core.index.CampaignIndex` over
        the spilled snapshots — columnar matrices only, never the whole
        raw campaign in memory."""
        from repro.core.index import CampaignIndex

        index = CampaignIndex.incremental(
            self.topic_keys, corpus=corpus, observer=observer
        )
        for snap in self.iter_snapshots():
            index.append_snapshot(snap, observer=observer)
        return index

    # -- writing -------------------------------------------------------------

    def append(self, snap: Snapshot) -> None:
        """Spill one snapshot durably (data files, then atomic manifest).

        Snapshots must arrive in collection order and carry every topic
        the store was created with, same as the incremental index.
        """
        expected = self.n_snapshots
        if snap.index != expected:
            raise ValueError(
                "spill store needs snapshots in collection order: "
                f"expected index {expected}, got {snap.index}"
            )
        absent = [key for key in self.topic_keys if key not in snap.topics]
        if absent:
            raise ValueError(
                f"snapshot {snap.index} is missing topic(s) "
                f"{', '.join(sorted(absent))}"
            )
        t0 = time.perf_counter()
        data_lines: list[str] = []
        meta_lines: list[str] = []
        for key, ts in snap.topics.items():
            data_lines.append(encode_record(_encode_topic(snap, key, ts)))
            if ts.video_meta or ts.channel_meta or ts.comments:
                meta_lines.append(encode_record({
                    "kind": "spill-meta",
                    "index": snap.index,
                    "topic": key,
                    "video_meta": ts.video_meta,
                    "channel_meta": ts.channel_meta,
                    "comments": ts.comments,
                }))
        data_name = f"snap-{snap.index:05d}.jsonl"
        data_bytes = _write_fsync(self.directory / data_name, data_lines)
        entry = {
            "index": snap.index,
            "collected_at": format_rfc3339(snap.collected_at),
            "data": data_name,
            "data_bytes": data_bytes,
            "records": len(data_lines),
            "meta": None,
            "meta_bytes": 0,
        }
        if meta_lines:
            meta_name = f"meta-{snap.index:05d}.jsonl"
            entry["meta"] = meta_name
            entry["meta_bytes"] = _write_fsync(
                self.directory / meta_name, meta_lines
            )
        self._manifest["snapshots"].append(entry)
        try:
            # The publish point: readers see the snapshot only once the
            # manifest lands (temp + os.replace + dir fsync).
            dump_json(self.directory / _MANIFEST, self._manifest, atomic=True)
        except BaseException:
            self._manifest["snapshots"].pop()
            raise
        self.observer.emit(
            "spill.write",
            str(self.directory),
            snap.index,
            len(snap.topics),
            len(data_lines) + len(meta_lines),
            data_bytes + entry["meta_bytes"],
            time.perf_counter() - t0,
        )

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path: str | Path) -> int:
        """Stream the campaign out in the legacy JSONL format.

        Byte-identical to :meth:`CampaignResult.save` on the same
        snapshots, without ever materializing the whole campaign.
        """
        return write_jsonl(
            path, campaign_records(self.topic_keys, self.iter_snapshots())
        )

    def sha256(self) -> str:
        """Digest of the exported legacy JSONL bytes, computed streaming.

        Matches ``hashlib.sha256(path.read_bytes())`` over a file written
        by :meth:`export_jsonl` / :meth:`CampaignResult.save` — the same
        line encoder fed straight into the hash.
        """
        digest = hashlib.sha256()
        for record in campaign_records(self.topic_keys, self.iter_snapshots()):
            digest.update((encode_record(record) + "\n").encode("utf-8"))
        return digest.hexdigest()
