"""Comment endpoint stability audit (Appendix B.2, Table 5).

Compares the comment sets captured on the first and last collections:

* **NS (non-shared)** columns: Jaccard over *all* videos returned in each
  respective collection — low-ish, but only because the parent video sets
  differ (the search endpoint's churn propagates);
* **S (shared)** columns: restricted to videos common to both collections —
  near 1.0, showing the comment endpoints themselves are stable;
* top-level (TL) and nested (N) comments are audited separately; topics
  with no replies at all (Higgs, 2012 affordance) yield ``None`` for the
  nested cells, the paper's N/A.

Comments are filtered to those posted at most ``cutoff_days`` (3 weeks)
after the topic's focal date, so late comment accretion does not masquerade
as endpoint inconsistency.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from datetime import timedelta

from repro.core.consistency import jaccard
from repro.core.datasets import CampaignResult
from repro.util.timeutil import parse_rfc3339
from repro.world.topics import TopicSpec

__all__ = ["CommentAuditRow", "comment_audit"]

CUTOFF_DAYS = 21


@dataclass(frozen=True)
class CommentAuditRow:
    """One topic's Table 5 row (None = N/A)."""

    topic: str
    j_top_level_nonshared: float | None
    j_nested_nonshared: float | None
    j_top_level_shared: float | None
    j_nested_shared: float | None
    n_shared_videos: int


def _comment_ids_by_video(
    comments: Mapping[str, dict], videos: set[str], cutoff
) -> dict[str, dict[str, set[str]]]:
    """Per captured video, each lane's comment IDs posted by ``cutoff``.

    Every payload is parsed once, however many sets it feeds.
    """
    out: dict[str, dict[str, set[str]]] = {}
    for video_id in videos:
        if video_id not in comments:
            continue
        payload = comments[video_id]
        out[video_id] = {
            lane: {
                resource["id"]
                for resource in payload.get(lane, ())
                if parse_rfc3339(resource["snippet"]["publishedAt"]) <= cutoff
            }
            for lane in ("top_level", "replies")
        }
    return out


def _comment_ids(
    by_video: dict[str, dict[str, set[str]]], videos: set[str], lane: str
) -> set[str]:
    """One lane's comment IDs over ``videos``."""
    out: set[str] = set()
    for video_id in videos:
        lanes = by_video.get(video_id)
        if lanes is not None:
            out |= lanes[lane]
    return out


def _maybe_jaccard(a: set[str], b: set[str]) -> float | None:
    """Jaccard, or None when neither side has any comments (Table 5 N/A)."""
    if not a and not b:
        return None
    return jaccard(a, b)


def comment_audit(
    campaign: CampaignResult,
    spec: TopicSpec,
    first_index: int = 0,
    last_index: int = -1,
) -> CommentAuditRow:
    """Compute one topic's Table 5 row.

    Requires the campaign to have captured comments on the two compared
    snapshots (see ``CampaignConfig.comment_snapshot_indices``).
    """
    first = campaign.snapshots[first_index].topic(spec.key)
    last = campaign.snapshots[last_index].topic(spec.key)
    if not first.comments and not last.comments:
        raise ValueError(
            f"no comment captures for topic {spec.key!r}; enable comment "
            "collection on the compared snapshots"
        )
    cutoff = spec.focal_date + timedelta(days=CUTOFF_DAYS)

    first_videos = first.video_ids
    last_videos = last.video_ids
    shared = first_videos & last_videos

    # shared is a subset of both video sets, so these cover every lookup.
    first_ids = _comment_ids_by_video(first.comments, first_videos, cutoff)
    last_ids = _comment_ids_by_video(last.comments, last_videos, cutoff)

    tl_first_ns = _comment_ids(first_ids, first_videos, "top_level")
    tl_last_ns = _comment_ids(last_ids, last_videos, "top_level")
    n_first_ns = _comment_ids(first_ids, first_videos, "replies")
    n_last_ns = _comment_ids(last_ids, last_videos, "replies")

    tl_first_s = _comment_ids(first_ids, shared, "top_level")
    tl_last_s = _comment_ids(last_ids, shared, "top_level")
    n_first_s = _comment_ids(first_ids, shared, "replies")
    n_last_s = _comment_ids(last_ids, shared, "replies")

    return CommentAuditRow(
        topic=spec.key,
        j_top_level_nonshared=_maybe_jaccard(tl_first_ns, tl_last_ns),
        j_nested_nonshared=_maybe_jaccard(n_first_ns, n_last_ns),
        j_top_level_shared=_maybe_jaccard(tl_first_s, tl_last_s),
        j_nested_shared=_maybe_jaccard(n_first_s, n_last_s),
        n_shared_videos=len(shared),
    )
