"""The ``Comments:list`` endpoint (ID-based; Appendix B.2).

Fetches the *complete* reply set of a thread by its parent comment ID —
the companion to ``CommentThreads:list``, which inlines at most five
replies per thread.
"""

from __future__ import annotations

from datetime import datetime

from repro.api.errors import BadRequestError, NotFoundError
from repro.api.pagination import Page, paginate
from repro.api.resources import comment_text, etag_for, parse_items
from repro.util.rng import stable_hash
from repro.world.store import PlatformStore

__all__ = ["CommentsEndpoint", "MAX_RESULTS"]

MAX_RESULTS = 100


class CommentsEndpoint:
    """``youtube.comments().list(...)`` equivalent."""

    endpoint_name = "comments.list"

    def __init__(self, store: PlatformStore, service) -> None:
        self._store = store
        self._service = service

    def list(
        self,
        part: str = "snippet",
        parentId: str = "",
        maxResults: int = 20,
        pageToken: str | None = None,
    ) -> dict:
        """List all replies under a parent (top-level) comment."""
        page, total, as_of = self._page(part, parentId, maxResults, pageToken)
        day = as_of.date().isoformat()
        response: dict = {
            "kind": "youtube#commentListResponse",
            "etag": etag_for("commentList", parentId, as_of.date(), page.offset),
            "pageInfo": {
                "totalResults": total,
                "resultsPerPage": maxResults,
            },
            "items": parse_items(comment_text(c, day) for c in page.items),
        }
        if page.next_page_token:
            response["nextPageToken"] = page.next_page_token
        if page.prev_page_token:
            response["prevPageToken"] = page.prev_page_token
        return response

    def capture(
        self,
        part: str = "snippet",
        parentId: str = "",
        maxResults: int = 20,
        pageToken: str | None = None,
    ) -> dict:
        """One page of :meth:`list` as ``{"items", "nextPageToken"}``.

        Simulator-only: the items are the replies' canonical texts.
        Billed, gated and paged exactly as :meth:`list`.
        """
        page, _, as_of = self._page(part, parentId, maxResults, pageToken)
        day = as_of.date().isoformat()
        return {
            "items": [comment_text(c, day) for c in page.items],
            "nextPageToken": page.next_page_token,
        }

    def _page(
        self, part: str, parentId: str, maxResults: int, pageToken: str | None
    ) -> tuple[Page, int, datetime]:
        """One gated call: (page of replies, reply total, request time)."""
        parts = {p.strip() for p in part.split(",") if p.strip()}
        if parts - {"snippet"}:
            raise BadRequestError(f"unknown part(s): {sorted(parts - {'snippet'})}")
        if not parentId:
            raise BadRequestError("comments.list requires parentId")
        if not 1 <= maxResults <= MAX_RESULTS:
            raise BadRequestError(
                f"maxResults must be within [1, {MAX_RESULTS}], got {maxResults}"
            )

        as_of = self._service.begin_call(self.endpoint_name)
        thread = self._store.thread(parentId)
        if thread is None or not thread.top_level.alive_at(as_of):
            raise NotFoundError(f"comment not found: {parentId}")

        replies = self._store.replies_for_thread(parentId, as_of)
        fingerprint = str(stable_hash("comments-fingerprint", parentId))
        page = paginate(
            replies, fingerprint, maxResults, pageToken, page_bound=MAX_RESULTS
        )
        return page, len(replies), as_of
