"""The ``Channels:list`` endpoint (ID-based; stable).

Supplies channel statistics for the paper's regression features and the
``contentDetails.relatedPlaylists.uploads`` playlist ID that anchors the
recommended channel-pipeline collection strategy (Section 6.1).
"""

from __future__ import annotations

from datetime import date

from repro.api.errors import BadRequestError
from repro.api.resources import channel_text, etag_for, parse_items
from repro.world.store import PlatformStore

__all__ = ["ChannelsEndpoint", "MAX_IDS_PER_CALL"]

MAX_IDS_PER_CALL = 50
_VALID_PARTS = {"snippet", "statistics", "contentDetails"}


class ChannelsEndpoint:
    """``youtube.channels().list(...)`` equivalent."""

    endpoint_name = "channels.list"

    def __init__(self, store: PlatformStore, service) -> None:
        self._store = store
        self._service = service

    def list(self, part: str = "snippet", id: str | list[str] = "") -> dict:
        """Fetch up to 50 channels by ID; unknown IDs are omitted."""
        ids, today, items = self._items(part, id)
        return {
            "kind": "youtube#channelListResponse",
            "etag": etag_for("channelList", ",".join(ids), today),
            "pageInfo": {"totalResults": len(items), "resultsPerPage": len(items)},
            "items": parse_items(text for _, text in items),
        }

    def capture(
        self, part: str = "snippet", id: str | list[str] = ""
    ) -> list[tuple[str, str]]:
        """The items :meth:`list` returns, as ``(channel ID, text)`` pairs.

        Simulator-only: each text is the item's canonical JSON, kept as a
        capture without encoding.  Billed and gated exactly as :meth:`list`.
        """
        return self._items(part, id)[2]

    def _items(
        self, part: str, id: str | list[str]
    ) -> tuple[list[str], date, list[tuple[str, str]]]:
        """One gated call: (requested IDs, request date, rendered items)."""
        ids = _normalize_ids(id)
        parts = _parse_parts(part)
        as_of = self._service.begin_call(self.endpoint_name)
        today = as_of.date()
        day = today.isoformat()
        store = self._store

        items = []
        for channel_id in ids:
            channel = store.channel(channel_id)
            if channel is None:
                continue
            items.append((channel_id, channel_text(channel, store, day, parts)))
        return ids, today, items


def _normalize_ids(id_param: str | list[str]) -> list[str]:
    if isinstance(id_param, str):
        ids = [part.strip() for part in id_param.split(",") if part.strip()]
    elif isinstance(id_param, (list, tuple)):
        ids = [str(part).strip() for part in id_param if str(part).strip()]
    else:
        raise BadRequestError(f"id must be a string or list, got {type(id_param).__name__}")
    if not ids:
        raise BadRequestError("channels.list requires at least one id")
    if len(ids) > MAX_IDS_PER_CALL:
        raise BadRequestError(
            f"channels.list accepts at most {MAX_IDS_PER_CALL} ids per call, got {len(ids)}"
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
