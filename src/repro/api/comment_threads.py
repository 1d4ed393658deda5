"""The ``CommentThreads:list`` endpoint (ID-based; Appendix B.2).

Returns a video's comment threads: each item carries the top-level comment
plus at most five inline replies; complete reply sets come from
``Comments:list``.  Behavior is stable across request dates except for
genuinely deleted comments — which is what produces the near-1.0 Jaccard
values in Table 5's shared-video columns.
"""

from __future__ import annotations

from datetime import datetime
from typing import NamedTuple

from repro.api.errors import BadRequestError, NotFoundError
from repro.api.pagination import Page, paginate
from repro.api.resources import (
    MAX_INLINE_REPLIES,
    comment_text,
    comment_thread_text,
    etag_for,
    parse_items,
)
from repro.util.rng import stable_hash
from repro.world.entities import CommentThread
from repro.world.store import PlatformStore

__all__ = ["CommentThreadsEndpoint", "ThreadCapture", "MAX_RESULTS"]

MAX_RESULTS = 100
_VALID_PARTS = {"snippet", "replies"}


class ThreadCapture(NamedTuple):
    """One thread as :meth:`CommentThreadsEndpoint.capture` returns it.

    The comments' canonical texts plus what a collector needs to decide
    whether the inline replies are the whole reply set; the thread's own
    etag and snippet are not rendered.
    """

    thread_id: str
    total_reply_count: int
    top_level: str
    replies: list[str]


class CommentThreadsEndpoint:
    """``youtube.commentThreads().list(...)`` equivalent."""

    endpoint_name = "commentThreads.list"

    def __init__(self, store: PlatformStore, service) -> None:
        self._store = store
        self._service = service

    def list(
        self,
        part: str = "snippet",
        videoId: str = "",
        maxResults: int = 20,
        pageToken: str | None = None,
        order: str = "time",
    ) -> dict:
        """List the threads of one video, oldest first."""
        page, total, as_of, include_replies = self._page(
            part, videoId, maxResults, pageToken, order
        )
        day = as_of.date().isoformat()
        texts = []
        for thread in page.items:
            top_level, replies = _comment_texts(thread, day, include_replies)
            texts.append(comment_thread_text(thread, day, top_level, replies))
        response: dict = {
            "kind": "youtube#commentThreadListResponse",
            "etag": etag_for("threadList", videoId, as_of.date(), page.offset),
            "pageInfo": {
                "totalResults": total,
                "resultsPerPage": maxResults,
            },
            "items": parse_items(texts),
        }
        if page.next_page_token:
            response["nextPageToken"] = page.next_page_token
        if page.prev_page_token:
            response["prevPageToken"] = page.prev_page_token
        return response

    def capture(
        self,
        part: str = "snippet",
        videoId: str = "",
        maxResults: int = 20,
        pageToken: str | None = None,
        order: str = "time",
    ) -> dict:
        """One page of :meth:`list` as ``{"items", "nextPageToken"}``.

        Simulator-only: each item is a :class:`ThreadCapture` holding its
        comments' canonical texts.  Billed, gated and paged exactly as
        :meth:`list`.
        """
        page, _, as_of, include_replies = self._page(
            part, videoId, maxResults, pageToken, order
        )
        day = as_of.date().isoformat()
        items = [
            ThreadCapture(
                thread.thread_id, thread.total_reply_count,
                *_comment_texts(thread, day, include_replies),
            )
            for thread in page.items
        ]
        return {"items": items, "nextPageToken": page.next_page_token}

    def _page(
        self, part: str, videoId: str, maxResults: int,
        pageToken: str | None, order: str,
    ) -> tuple[Page, int, datetime, bool]:
        """One gated call: (page of threads, thread total, request time,
        whether replies are inlined)."""
        parts = {p.strip() for p in part.split(",") if p.strip()}
        unknown = parts - _VALID_PARTS
        if unknown:
            raise BadRequestError(f"unknown part(s): {sorted(unknown)}")
        if not videoId:
            raise BadRequestError("commentThreads.list requires videoId")
        if order not in ("time", "relevance"):
            raise BadRequestError(f"order must be time or relevance, got {order!r}")
        if not 1 <= maxResults <= MAX_RESULTS:
            raise BadRequestError(
                f"maxResults must be within [1, {MAX_RESULTS}], got {maxResults}"
            )

        as_of = self._service.begin_call(self.endpoint_name)
        video = self._store.video(videoId)
        if video is None or not video.alive_at(as_of):
            raise NotFoundError(f"video not found: {videoId}")

        threads = self._store.threads_for_video(videoId, as_of)
        if order == "relevance":
            threads = sorted(
                threads,
                key=lambda t: (t.top_level.like_count, t.thread_id),
                reverse=True,
            )

        fingerprint = str(stable_hash("threads-fingerprint", videoId, order))
        page = paginate(
            threads, fingerprint, maxResults, pageToken, page_bound=MAX_RESULTS
        )
        return page, len(threads), as_of, "replies" in parts


def _comment_texts(
    thread: CommentThread, day: str, include_replies: bool
) -> tuple[str, list[str]]:
    """The top-level comment's text and the inline replies' texts."""
    replies = (
        [comment_text(reply, day) for reply in thread.replies[:MAX_INLINE_REPLIES]]
        if include_replies else []
    )
    return comment_text(thread.top_level, day), replies
