"""Snapshot and campaign containers, with JSONL persistence.

A campaign produces one :class:`Snapshot` per collection date; each
snapshot holds, per topic, the hour-binned search returns, the
``totalResults`` pool sizes, and (optionally) video/channel metadata and
raw comment captures.  The analysis modules consume these containers only —
they never touch the API — so persisted campaigns can be re-analyzed
offline, exactly like a real measurement study's data directory.

The captured resources (``video_meta``, ``channel_meta``, ``comments``)
are :class:`~repro.util.jsonio.CapturedResources`: read-only mappings
that hold each resource as JSON text and parse it on access, so a
campaign's captures stay off the garbage collector's heap.  A plain dict
passed at construction is captured as canonical text there.
:meth:`CampaignResult.save` splices the texts into its lines and
:meth:`CampaignResult.load` keeps each resource's text as the file holds
it, so a file ``save`` wrote round-trips byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from repro.util.jsonio import (
    CAPTURED_FIELDS,
    CapturedResources,
    read_records,
    write_jsonl,
)
from repro.util.timeutil import format_rfc3339, parse_rfc3339

__all__ = [
    "TopicSnapshot",
    "Snapshot",
    "CampaignResult",
    "CapturedResources",
    "campaign_records",
]


@dataclass
class TopicSnapshot:
    """One topic's returns in one collection."""

    topic: str
    collected_at: datetime
    #: hour index within the topic window -> video IDs returned for that hour
    hour_video_ids: dict[int, list[str]]
    #: totalResults reported by each hourly query, indexed by hour
    pool_sizes: dict[int, int]
    #: video ID -> Videos:list resource (may be missing for gapped IDs)
    video_meta: CapturedResources = field(default_factory=CapturedResources)
    #: channel ID -> Channels:list resource
    channel_meta: CapturedResources = field(default_factory=CapturedResources)
    #: video ID -> {"top_level": [comment resources], "replies": [...]}
    comments: CapturedResources = field(default_factory=CapturedResources)
    #: hour indices whose queries failed permanently (degraded collection);
    #: empty for a complete snapshot — the overwhelmingly common case.
    missing_hours: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Canonical ascending order.  Persistence always wrote the hours
        # sorted; normalizing the in-memory form too makes save -> load a
        # true round trip (every consumer treats the field as a set).
        self.missing_hours = sorted(self.missing_hours)
        # One representation: captures passed as plain dicts become text.
        for name in CAPTURED_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, CapturedResources):
                setattr(self, name, CapturedResources(value))

    @property
    def degraded(self) -> bool:
        """Whether any hour bin is missing (collected under a failure)."""
        return bool(self.missing_hours)

    @property
    def video_ids(self) -> set[str]:
        """All video IDs returned in this collection (union over hours)."""
        out: set[str] = set()
        for ids in self.hour_video_ids.values():
            out.update(ids)
        return out

    @property
    def total_returned(self) -> int:
        """Total number of videos returned (hours are disjoint by design)."""
        return sum(len(ids) for ids in self.hour_video_ids.values())

    def count_for_hour(self, hour: int) -> int:
        """Videos returned for one hour bin (0 when the hour is absent)."""
        return len(self.hour_video_ids.get(hour, ()))


@dataclass
class Snapshot:
    """One collection across all topics."""

    index: int
    collected_at: datetime
    topics: dict[str, TopicSnapshot]

    def topic(self, key: str) -> TopicSnapshot:
        """A topic's slice of this snapshot."""
        return self.topics[key]

    def video_ids(self, key: str) -> set[str]:
        """Convenience: a topic's returned video-ID set."""
        return self.topics[key].video_ids

    @property
    def degraded(self) -> bool:
        """Whether any topic in this collection is missing hour bins."""
        return any(ts.degraded for ts in self.topics.values())


@dataclass
class CampaignResult:
    """All snapshots of a campaign, in collection order."""

    topic_keys: tuple[str, ...]
    snapshots: list[Snapshot]
    #: Live columnar corpus of the world this campaign ran against, when
    #: collection happened in-process against a columnar store.  Never
    #: persisted: :meth:`save` ignores it and :meth:`load` leaves it
    #: ``None``, in which case analyses fall back to parsing the captured
    #: API resources (the only option for real or archived campaigns).
    corpus: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for i, snap in enumerate(self.snapshots):
            if snap.index != i:
                raise ValueError(f"snapshot {i} carries index {snap.index}")

    @property
    def n_collections(self) -> int:
        """Number of snapshots collected."""
        return len(self.snapshots)

    def sets_for_topic(self, key: str) -> list[set[str]]:
        """Video-ID sets per collection for one topic, in order."""
        return [snap.video_ids(key) for snap in self.snapshots]

    def degraded_indices(self, key: str) -> list[int]:
        """Collection indices where a topic's snapshot is degraded."""
        return [
            snap.index for snap in self.snapshots if snap.topic(key).degraded
        ]

    def ever_returned(self, key: str) -> set[str]:
        """Union of a topic's returned IDs over all collections."""
        out: set[str] = set()
        for snap in self.snapshots:
            out |= snap.video_ids(key)
        return out

    def merged_video_meta(self, key: str) -> CapturedResources:
        """Per-video metadata, first-seen-wins across collections.

        The Videos:list endpoint occasionally gaps a video in one
        collection; merging across snapshots recovers near-complete
        coverage, which is how the paper assembles its regression features.
        """
        merged: dict[str, str] = {}
        for snap in self.snapshots:
            for vid, text in snap.topic(key).video_meta.text_items():
                merged.setdefault(vid, text)
        return CapturedResources.from_texts(merged)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Write the campaign as JSONL (one record per topic-snapshot)."""
        return write_jsonl(
            path, campaign_records(self.topic_keys, self.snapshots)
        )

    @classmethod
    def load(cls, path: str | Path) -> "CampaignResult":
        """Read a campaign persisted with :meth:`save`.

        Each captured resource keeps the text the file holds: a file
        :meth:`save` wrote saves again byte for byte, and a foreign file
        keeps its own formatting inside resources.
        """
        topic_keys: tuple[str, ...] = ()
        by_index: dict[int, Snapshot] = {}
        for record in read_records(path):
            if record["kind"] == "header":
                topic_keys = tuple(record["topic_keys"])
                continue
            if record["kind"] != "topic-snapshot":
                raise ValueError(f"unknown record kind: {record['kind']!r}")
            index = int(record["index"])
            collected_at = parse_rfc3339(record["collected_at"])
            snap = by_index.setdefault(
                index, Snapshot(index=index, collected_at=collected_at, topics={})
            )
            snap.topics[record["topic"]] = TopicSnapshot(
                topic=record["topic"],
                collected_at=collected_at,
                hour_video_ids={int(h): v for h, v in record["hour_video_ids"].items()},
                pool_sizes={int(h): int(p) for h, p in record["pool_sizes"].items()},
                video_meta=record.get("video_meta", {}),
                channel_meta=record.get("channel_meta", {}),
                comments=record.get("comments", {}),
                missing_hours=[int(h) for h in record.get("missing_hours", [])],
            )
        snapshots = [by_index[i] for i in sorted(by_index)]
        return cls(topic_keys=topic_keys, snapshots=snapshots)


def campaign_records(topic_keys, snapshots):
    """The campaign JSONL record stream :meth:`CampaignResult.save` writes.

    A generator so stores that hold snapshots out of core (the spill
    store) can export the legacy format byte-identically without ever
    materializing the whole campaign; ``snapshots`` may be any iterable
    of :class:`Snapshot` in collection order.  The captured resources go
    out as :class:`CapturedResources`, which
    :func:`~repro.util.jsonio.encode_record` splices as text.
    """
    yield {"kind": "header", "topic_keys": list(topic_keys)}
    for snap in snapshots:
        for key, ts in snap.topics.items():
            record = {
                "kind": "topic-snapshot",
                "index": snap.index,
                "collected_at": format_rfc3339(snap.collected_at),
                "topic": key,
                "hour_video_ids": {
                    str(h): v for h, v in ts.hour_video_ids.items()
                },
                "pool_sizes": {str(h): p for h, p in ts.pool_sizes.items()},
                "video_meta": ts.video_meta,
                "channel_meta": ts.channel_meta,
                "comments": ts.comments,
            }
            # Omitted when empty so complete campaigns stay byte-identical
            # with files written before degraded snapshots existed.
            if ts.missing_hours:
                record["missing_hours"] = sorted(ts.missing_hours)
            yield record
