"""Ergonomic client over the service: paging iterators, batching, resilience.

The raw endpoints mirror the HTTP API one page at a time; research code
wants "all results for this query".  :class:`YouTubeClient` provides that,
plus the resilience layer's call gate: a
:class:`~repro.resilience.policy.RetryPolicy` decides which errors are
retried (5xx and ``rateLimitExceeded``, never ``badRequest``; daily
``quotaExceeded`` is a scheduling event and surfaces immediately), an
optional :class:`~repro.resilience.breaker.CircuitBreaker` stops hammering
a dead endpoint, and paginated loops recover from ``invalidPageToken`` by
restarting from page one (the token series died server-side; page order is
deterministic in the request date, so a restart returns the same data).

Backoff never sleeps here: the simulator's time is virtual.  The legacy
``backoff`` callable (invoked with the attempt number) is kept for tests
and simulations; a live run passes ``backoff=policy.make_sleeper(time.sleep)``.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.api.errors import ApiError, InvalidPageTokenError
from repro.api.service import YouTubeService
from repro.obs.observer import NullObserver, Observer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import Action, RetryPolicy

__all__ = ["YouTubeClient"]


class YouTubeClient:
    """High-level access patterns over a :class:`YouTubeService`."""

    def __init__(
        self,
        service: YouTubeService,
        max_retries: int = 3,
        backoff: Callable[[int], None] | None = None,
        observer: Observer | None = None,
        retry_policy: RetryPolicy | None = None,
        circuit_breaker: CircuitBreaker | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._service = service
        # A given policy wins; otherwise max_retries configures the default
        # one (N retries = N+1 attempts), preserving the legacy surface.
        self._policy = retry_policy or RetryPolicy(max_attempts=max_retries + 1)
        # Default backoff is a no-op: time is virtual in this simulator.
        self._backoff = backoff or (lambda attempt: None)
        self._breaker = circuit_breaker
        # Inherit the service's observer so one attachment point covers
        # the whole stack; retries/errors are client-level events the
        # service cannot see (a retried call never reached begin_call).
        self._observer = (
            observer or getattr(service, "observer", None) or NullObserver()
        )
        if self._breaker is not None and isinstance(
            self._breaker.observer, NullObserver
        ):
            self._breaker.observer = self._observer

    @property
    def service(self) -> YouTubeService:
        """The underlying service (clock, quota, transport access)."""
        return self._service

    @property
    def observer(self) -> Observer:
        """The observer this client reports retries and errors to."""
        return self._observer

    @property
    def retry_policy(self) -> RetryPolicy:
        """The retry policy gating every endpoint call."""
        return self._policy

    @property
    def circuit_breaker(self) -> CircuitBreaker | None:
        """The per-endpoint circuit breaker, if one is attached."""
        return self._breaker

    def _call(self, fn: Callable[[], dict], endpoint: str = "unknown") -> dict:
        """Invoke an endpoint through the retry policy and circuit breaker."""
        attempt = 0
        while True:
            if self._breaker is not None:
                self._breaker.before_call(endpoint)
            try:
                result = fn()
            except ApiError as exc:
                action = self._policy.classify(exc)
                if action is Action.RETRY:
                    if self._breaker is not None:
                        self._breaker.record_failure(endpoint)
                    attempt += 1
                    if attempt < self._policy.max_attempts:
                        self._policy.spend_retry(endpoint, exc)
                        self._observer.emit(
                            "api.retry", endpoint, attempt, type(exc).__name__
                        )
                        self._backoff(attempt)
                        continue
                # Retries are exhausted, or the error is not retriable: FAIL
                # surfaces a client bug; SCHEDULE surfaces quota exhaustion
                # for the campaign layer to checkpoint on.  Neither of those
                # counts against the breaker: the backend is fine.
                self._observer.emit(
                    "api.error", endpoint, type(exc).__name__, str(exc)[:200]
                )
                raise
            else:
                if self._breaker is not None:
                    self._breaker.record_success(endpoint)
                return result

    def _paginate(self, endpoint: str, collect: Callable[[], list]) -> list:
        """Run a paginated collection, restarting on ``invalidPageToken``.

        ``collect`` must be restartable from scratch (it owns its
        accumulator).  Restarts are bounded by the policy's
        ``max_pagination_restarts`` and charged to the retry budget; past
        the bound the error surfaces cleanly.
        """
        restarts = 0
        while True:
            try:
                return collect()
            except InvalidPageTokenError as exc:
                restarts += 1
                if restarts > self._policy.max_pagination_restarts:
                    raise
                self._policy.spend_retry(endpoint, exc)
                self._observer.emit(
                    "pagination.restart", endpoint, restarts, type(exc).__name__
                )

    # -- search ---------------------------------------------------------------

    def search_page(self, **params) -> dict:
        """One raw search page (100 units)."""
        return self._call(
            lambda: self._service.search.list(**params), endpoint="search.list"
        )

    def search_all(self, limit: int = 500, **params) -> list[dict]:
        """All search result items for a query, across pages (up to 500).

        ``limit`` truncates the *result list*, not the paging: the page on
        which the limit is reached has already been fetched in full, so it
        is billed its full 100 units even when only part of it is returned.
        A ``limit`` of 120 therefore fetches 3 pages (300 units) and
        returns 120 items — quota is charged per page, never per item.
        Callers watching their quota should prefer tight queries (see the
        planner in :mod:`repro.strategies`) or page-aligned limits.
        """
        if limit <= 0:
            raise ValueError("limit must be positive")
        params.setdefault("maxResults", 50)

        def collect() -> list[dict]:
            items: list[dict] = []
            pages = 0
            page_token: str | None = None
            while True:
                page_params = dict(params)
                if page_token:
                    page_params["pageToken"] = page_token
                response = self.search_page(**page_params)
                pages += 1
                items.extend(response["items"])
                page_token = response.get("nextPageToken")
                if not page_token or len(items) >= limit:
                    items = items[:limit]
                    self._observer.emit("search.query", pages, len(items))
                    return items

        return self._paginate("search.list", collect)

    def search_sweep(self, **params):
        """A whole window sweep as one batched plan (see ``SearchEndpoint.sweep``).

        Deliberately *not* wrapped in the retry policy or circuit breaker:
        the batched path is only taken when the collector has verified the
        transport is fault-free and the breaker (if any) is closed, so no
        retriable error can occur — and a
        :class:`~repro.api.errors.SweepQuotaShortfall` must surface
        untouched for the per-call fallback to engage before anything is
        billed.
        """
        return self._service.search.sweep(**params)

    def search_video_ids(self, **params) -> list[str]:
        """Video IDs of all search results for a query."""
        return [item["id"]["videoId"] for item in self.search_all(**params)]

    # -- ID-based endpoints -----------------------------------------------------

    def videos_list(self, ids: list[str], part: str = "snippet,contentDetails,statistics") -> list[dict]:
        """Fetch video resources for arbitrarily many IDs (batched by 50)."""
        return self._batched(
            "videos.list", ids,
            lambda batch: self._service.videos.list(part=part, id=batch)["items"],
        )

    def videos_capture(self, ids: list[str]) -> list[tuple[str, str, str]]:
        """:meth:`videos_list`'s calls, as ``(video ID, channel ID, text)`` items.

        Simulator-only (a live service has no capture face): each text is
        the resource's canonical JSON, which a collector keeps as its
        capture.  Calls, retries and billing are :meth:`videos_list`'s.
        """
        return self._batched(
            "videos.list", ids,
            lambda batch: self._service.videos.capture(
                part="snippet,contentDetails,statistics", id=batch
            ),
        )

    def channels_list(self, ids: list[str], part: str = "snippet,statistics,contentDetails") -> list[dict]:
        """Fetch channel resources for arbitrarily many IDs (batched by 50)."""
        return self._batched(
            "channels.list", sorted(set(ids)),
            lambda batch: self._service.channels.list(part=part, id=batch)["items"],
        )

    def channels_capture(self, ids: list[str]) -> list[tuple[str, str]]:
        """:meth:`channels_list`'s calls, as ``(channel ID, text)`` items.

        Simulator-only, like :meth:`videos_capture`.
        """
        return self._batched(
            "channels.list", sorted(set(ids)),
            lambda batch: self._service.channels.capture(
                part="snippet,statistics,contentDetails", id=batch
            ),
        )

    def _batched(
        self, endpoint: str, ids: list[str], fetch: Callable[[list[str]], list]
    ) -> list:
        """``fetch`` over ``ids`` in batches of 50, each through :meth:`_call`."""
        items: list = []
        for batch in _batches(ids, 50):
            items.extend(self._call(lambda b=batch: fetch(b), endpoint=endpoint))
        return items

    def uploads_playlist_id(self, channel_id: str) -> str | None:
        """A channel's uploads playlist ID, or None if the channel is unknown."""
        response = self._call(
            lambda: self._service.channels.list(part="contentDetails", id=channel_id),
            endpoint="channels.list",
        )
        items = response["items"]
        if not items:
            return None
        return items[0]["contentDetails"]["relatedPlaylists"]["uploads"]

    def playlist_video_ids(self, playlist_id: str) -> list[str]:
        """Every video ID in a playlist, fully paginated."""
        items = self._all_pages(
            "playlistItems.list",
            lambda token: self._service.playlist_items.list(
                part="contentDetails", playlistId=playlist_id, maxResults=50,
                pageToken=token,
            ),
        )
        return [item["contentDetails"]["videoId"] for item in items]

    # -- comments ------------------------------------------------------------------

    def comment_threads_all(self, video_id: str, include_replies: bool = True) -> list[dict]:
        """All comment threads of a video, fully paginated."""
        part = "snippet,replies" if include_replies else "snippet"
        return self._all_pages(
            "commentThreads.list",
            lambda token: self._service.comment_threads.list(
                part=part, videoId=video_id, maxResults=50, pageToken=token
            ),
        )

    def comment_threads_capture(self, video_id: str) -> list:
        """:meth:`comment_threads_all`'s calls, as thread captures.

        Simulator-only: each item is a
        :class:`~repro.api.comment_threads.ThreadCapture` holding the
        top-level comment's and the inline replies' canonical texts.
        Calls, page restarts and billing are :meth:`comment_threads_all`'s.
        """
        return self._all_pages(
            "commentThreads.list",
            lambda token: self._service.comment_threads.capture(
                part="snippet,replies", videoId=video_id, maxResults=50,
                pageToken=token,
            ),
        )

    def comment_replies_all(self, parent_id: str) -> list[dict]:
        """All replies under a top-level comment, fully paginated."""
        return self._all_pages(
            "comments.list",
            lambda token: self._service.comments.list(
                part="snippet", parentId=parent_id, maxResults=50,
                pageToken=token,
            ),
        )

    def comment_replies_capture(self, parent_id: str) -> list[str]:
        """:meth:`comment_replies_all`'s calls, as the replies' canonical texts.

        Simulator-only, like :meth:`comment_threads_capture`.
        """
        return self._all_pages(
            "comments.list",
            lambda token: self._service.comments.capture(
                part="snippet", parentId=parent_id, maxResults=50,
                pageToken=token,
            ),
        )

    def _all_pages(
        self, endpoint: str, fetch: Callable[[str | None], dict]
    ) -> list:
        """Every item of a paginated call: ``fetch(page_token)`` per page,
        each through :meth:`_call`, restarted by :meth:`_paginate`."""

        def collect() -> list:
            items: list = []
            page_token: str | None = None
            while True:
                response = self._call(
                    lambda tok=page_token: fetch(tok), endpoint=endpoint
                )
                items.extend(response["items"])
                page_token = response.get("nextPageToken")
                if not page_token:
                    return items

        return self._paginate(endpoint, collect)


def _batches(items: list[str], size: int) -> Iterator[list[str]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]
