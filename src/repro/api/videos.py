"""The ``Videos:list`` endpoint (ID-based; Appendix B.1).

Stable by design: requesting the same IDs on different days returns the
same videos.  Two realistic imperfections are simulated, both of which the
paper observes and classifies as noise rather than systematic behavior:

* deleted videos are silently omitted (no error, just a missing item);
* a small per-(video, day) chance of a metadata gap — the item is missing
  from the response despite the video existing.  The gap probability is
  keyed by (video, request day), so gaps are uncorrelated across
  collections: exactly the "likely errors rather than intentional API
  behavior" signature of Figure 4.
"""

from __future__ import annotations

from datetime import date

from repro.api.errors import BadRequestError
from repro.api.fields import filter_response
from repro.api.resources import etag_for, parse_items, video_text
from repro.util.rng import hashed_prefix, stable_uniform_suffixed
from repro.world.store import PlatformStore

__all__ = ["VideosEndpoint", "MAX_IDS_PER_CALL"]

MAX_IDS_PER_CALL = 50
_VALID_PARTS = {"snippet", "contentDetails", "statistics"}
#: Per-(video, day) probability of a transient metadata gap.
METADATA_GAP_PROBABILITY = 0.015
#: The gap draw is ``stable_uniform("videos-gap", video_id, day)``; with
#: the head hashed once, the rest of the key is ``f"{video_id}\x1f{day}"``.
_GAP_PREFIX = hashed_prefix("videos-gap")


class VideosEndpoint:
    """``youtube.videos().list(...)`` equivalent."""

    endpoint_name = "videos.list"

    def __init__(self, store: PlatformStore, service) -> None:
        self._store = store
        self._service = service

    def list(
        self,
        part: str = "snippet",
        id: str | list[str] = "",
        fields: str | None = None,
    ) -> dict:
        """Fetch up to 50 videos by ID; missing/gapped IDs are omitted."""
        ids, today, items = self._items(part, id)
        response = {
            "kind": "youtube#videoListResponse",
            "etag": etag_for("videoList", ",".join(ids), today),
            "pageInfo": {"totalResults": len(items), "resultsPerPage": len(items)},
            "items": parse_items(text for _, _, text in items),
        }
        return filter_response(response, fields)

    def capture(
        self, part: str = "snippet", id: str | list[str] = ""
    ) -> list[tuple[str, str, str]]:
        """The items :meth:`list` returns, as ``(video ID, channel ID, text)``.

        Simulator-only: each text is the item's canonical JSON
        (``json.dumps(item, sort_keys=True)``), so a collector keeps it as
        its capture without encoding anything.  Billed and gated exactly
        as :meth:`list`.
        """
        return self._items(part, id)[2]

    def _items(
        self, part: str, id: str | list[str]
    ) -> tuple[list[str], date, list[tuple[str, str, str]]]:
        """One gated call: (requested IDs, request date, rendered items)."""
        ids = _normalize_ids(id)
        parts = _parse_parts(part)
        as_of = self._service.begin_call(self.endpoint_name)
        today = as_of.date()
        day = today.isoformat()
        store = self._store

        items = []
        for video_id in ids:
            video = store.video(video_id)
            if video is None or not video.alive_at(as_of):
                continue
            gap = stable_uniform_suffixed(_GAP_PREFIX, f"{video_id}\x1f{day}")
            if gap < METADATA_GAP_PROBABILITY:
                continue
            items.append(
                (video_id, video.channel_id,
                 video_text(video, store, as_of, day, parts))
            )
        return ids, today, items


def _normalize_ids(id_param: str | list[str]) -> list[str]:
    if isinstance(id_param, str):
        ids = [part.strip() for part in id_param.split(",") if part.strip()]
    elif isinstance(id_param, (list, tuple)):
        ids = [str(part).strip() for part in id_param if str(part).strip()]
    else:
        raise BadRequestError(f"id must be a string or list, got {type(id_param).__name__}")
    if not ids:
        raise BadRequestError("videos.list requires at least one id")
    if len(ids) > MAX_IDS_PER_CALL:
        raise BadRequestError(
            f"videos.list accepts at most {MAX_IDS_PER_CALL} ids per call, got {len(ids)}"
        )
    return ids


def _parse_parts(part: str) -> set[str]:
    parts = {p.strip() for p in part.split(",") if p.strip()}
    unknown = parts - _VALID_PARTS
    if unknown:
        raise BadRequestError(f"unknown part(s): {sorted(unknown)}")
    if not parts:
        raise BadRequestError("part must not be empty")
    return parts
