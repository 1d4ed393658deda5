"""Snapshot collection: the paper's data-gathering loop.

For every topic, one search query per hour of the 28-day window (binned
time-split querying, Section 2's "one per X time" strategy), in reverse
chronological order — followed immediately by Videos:list and
Channels:list calls for the returned IDs (Appendix B.1's flow), and
optionally by CommentThreads:list / Comments:list for the comment audit.

Resilience (see :mod:`repro.resilience` and ``docs/RESILIENCE.md``):

* with a :class:`~repro.resilience.checkpoint.PartialSnapshotStore`, every
  completed hour-bin query is persisted as soon as it is billed (a batched
  topic sweep's bins in one write), and a resumed collection replays
  completed bins instead of re-querying them;
* an ``invalidPageToken`` mid-way through an hour bin restarts that bin
  from page one (bounded by the client policy's
  ``max_pagination_restarts``) — the token series died server-side and the
  simulator's determinism makes the restart return the same data;
* with ``tolerate_failures=True``, an hour bin whose retries are exhausted
  (or whose endpoint circuit is open) is *marked missing* on the
  :class:`~repro.core.datasets.TopicSnapshot` instead of killing the whole
  snapshot; downstream analyses handle the gaps explicitly
  (:func:`repro.core.consistency.gap_aware_consistency_series`).
  Quota exhaustion is never tolerated: it is a scheduling event the
  campaign layer must see.
"""

from __future__ import annotations

import time
from datetime import timedelta

from repro.api.client import YouTubeClient
from repro.api.errors import (
    ApiError,
    ForbiddenError,
    InvalidPageTokenError,
    NotFoundError,
    QuotaExceededError,
)
from repro.core.batch import ENGINES, run_topic_sweep, sweep_eligibility
from repro.core.datasets import Snapshot, TopicSnapshot
from repro.obs.observer import NullObserver, Observer
from repro.resilience.breaker import CircuitOpenError
from repro.resilience.checkpoint import PartialSnapshotStore
from repro.util.jsonio import CapturedResources
from repro.util.timeutil import format_rfc3339, hour_range
from repro.world.topics import TopicSpec

__all__ = ["SnapshotCollector", "ENGINES"]


class SnapshotCollector:
    """Collects one full snapshot (all topics) at the current virtual time.

    The collector marks the observability layer's collection-level
    boundaries: ``snapshot.start``/``snapshot.end`` around the whole sweep
    and ``topic.start``/``topic.end`` around each topic, so quota spend in
    between is attributable to the topic that caused it.  The observer
    defaults to the client's, so attaching one at the service covers this
    layer too.

    Parameters
    ----------
    partial:
        Optional :class:`~repro.resilience.checkpoint.PartialSnapshotStore`
        for query-level checkpointing; completed hour bins are recorded as
        they finish (``record_hour``; ``record_hours`` for a batched
        sweep's bins at once) and replayed on resume.
    tolerate_failures:
        Degrade instead of dying: mark an hour bin missing when its query
        fails permanently (exhausted retries, open circuit) and keep
        collecting.  Quota exhaustion always propagates.
    engine:
        How a topic's hour-bin queries execute.  ``"batch"`` (the
        default) runs each eligible topic's whole sweep as one vectorized
        plan — one engine pass, one ledger transaction, snapshots
        assembled straight from the per-bin ID slices — and falls back
        per topic to the per-call loop whenever per-call semantics are
        observable (fault plan armed, breaker not closed, resumed bins,
        ``tolerate_failures``, or a quota shortfall); see
        :mod:`repro.core.batch` for the full matrix.
        ``"per-call"`` forces the reference path unconditionally.  Both
        engines produce byte-identical snapshots, checkpoints, ledgers,
        and request records.
    """

    def __init__(
        self,
        client: YouTubeClient,
        topics: tuple[TopicSpec, ...],
        collect_metadata: bool = True,
        observer: Observer | None = None,
        partial: PartialSnapshotStore | None = None,
        tolerate_failures: bool = False,
        engine: str = "batch",
    ) -> None:
        if not topics:
            raise ValueError("collector requires at least one topic")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
        self._client = client
        self._topics = topics
        self._collect_metadata = collect_metadata
        self._partial = partial
        self._tolerate_failures = tolerate_failures
        self._engine = engine
        self._observer = (
            observer or getattr(client, "observer", None) or NullObserver()
        )
        # Per-topic RFC3339 hour-window strings, computed once per spec
        # instead of twice per query per page (spec.key -> [(after, before)]).
        self._hour_bounds: dict[str, list[tuple[str, str]]] = {}

    def collect(self, index: int, with_comments: bool = False) -> Snapshot:
        """Run the full hourly query sweep and return the snapshot.

        With a partial store attached, a partial file for this same index
        seeds the sweep (its completed bins are not re-queried) and the
        file tracks every further completed bin; the caller clears the
        store once the snapshot is durably persisted at campaign level.
        """
        service = self._client.service
        collected_at = service.clock.now()
        completed = self._load_partial(index)
        if completed is None and self._partial is not None:
            self._partial.begin(index, collected_at)
        self._observer.emit("snapshot.start", index, at=collected_at)
        wall_start = time.perf_counter()
        units_before = service.quota.total_used
        calls_before = service.transport.total_calls

        topics: dict[str, TopicSnapshot] = {}
        for spec in self._topics:
            done = completed.completed_for(spec.key) if completed else {}
            topics[spec.key] = self._collect_topic(spec, with_comments, done)
        ended_at = service.clock.now()
        self._observer.emit(
            "snapshot.end",
            index,
            service.quota.total_used - units_before,
            service.transport.total_calls - calls_before,
            time.perf_counter() - wall_start,
            (ended_at - collected_at).total_seconds(),
            at=ended_at,
        )
        return Snapshot(index=index, collected_at=collected_at, topics=topics)

    # -- internals -----------------------------------------------------------

    def _load_partial(self, index: int):
        """Completed bins of a matching partial checkpoint, else ``None``."""
        if self._partial is None:
            return None
        existing = self._partial.load()
        if existing is None:
            return None
        if existing.index < index:
            # Stale partial from an earlier, already-persisted snapshot.
            self._partial.clear()
            return None
        if existing.index > index:
            raise ValueError(
                f"partial checkpoint {self._partial.path} is for snapshot "
                f"{existing.index} but snapshot {index} is being collected — "
                f"the campaign's spilled snapshots and its partial sidecar "
                f"disagree"
            )
        return existing

    def _collect_topic(
        self,
        spec: TopicSpec,
        with_comments: bool,
        completed: dict[int, tuple[list[str], int]],
    ) -> TopicSnapshot:
        service = self._client.service
        collected_at = service.clock.now()
        self._observer.emit("topic.start", spec.key, at=collected_at)
        units_before = service.quota.total_used
        hour_video_ids: dict[int, list[str]] = {}
        pool_sizes: dict[int, int] = {}
        missing_hours: list[int] = []
        # (hour, ids, pool, units) of the batched sweep's bins.
        swept_bins: list[tuple[int, list[str], int, int]] = []

        bounds = self._bounds_for(spec)
        search_cost = service.quota.cost_of("search.list")
        swept = None
        verdict = sweep_eligibility(
            self._client,
            engine=self._engine,
            tolerate_failures=self._tolerate_failures,
            resumed_bins=bool(completed),
        )
        if verdict.eligible:
            # One plan for the whole topic: engine pass, bulk records, one
            # ledger transaction.  None means the sweep would not fit in
            # today's remaining quota — nothing was billed, and the
            # per-call loop below reproduces partial billing exactly.
            swept = run_topic_sweep(self._client, spec.query, bounds)
            if swept is not None:
                calls = sum(hour.pages for hour in swept)
                self._observer.emit(
                    "collect.sweep",
                    spec.key,
                    len(bounds),
                    calls,
                    calls * search_cost,
                    sum(len(hour.ids) for hour in swept),
                )

        for hour_index in range(len(bounds)):
            if hour_index in completed:
                ids, pool = completed[hour_index]
            elif swept is not None:
                # Batch path: every page is already billed and recorded;
                # each bin still gets its own query summary, and its
                # checkpoint record carries only its own spend, so resumes,
                # journaled billing and metrics are indistinguishable from
                # the per-call loop.  The records go out in one group write
                # after the loop.
                hour = swept[hour_index]
                ids, pool = hour.ids, hour.total_results
                self._observer.emit("search.query", hour.pages, len(ids))
                swept_bins.append(
                    (hour_index, ids, pool, hour.pages * search_cost)
                )
            else:
                after, before = bounds[hour_index]
                spent_before = service.quota.total_used
                try:
                    ids, pool = self._query_hour(spec, after, before)
                except QuotaExceededError:
                    raise  # a scheduling event, never a degraded bin
                except (ApiError, CircuitOpenError) as exc:
                    if not self._tolerate_failures:
                        raise
                    missing_hours.append(hour_index)
                    detail = f"{spec.key} hour {hour_index}: {type(exc).__name__}"
                    self._observer.emit("degraded", "hour-bin", detail[:200])
                    continue
                if self._partial is not None:
                    self._partial.record_hour(
                        spec.key, hour_index, ids, pool,
                        service.quota.total_used - spent_before,
                    )
            pool_sizes[hour_index] = pool
            if ids:
                hour_video_ids[hour_index] = ids
        if swept_bins and self._partial is not None:
            self._partial.record_hours(spec.key, swept_bins)

        # The endpoints render each captured resource as its canonical
        # text, which the snapshot keeps as is: nothing is encoded here.
        video_meta = channel_meta = comments = CapturedResources()
        if self._collect_metadata or with_comments:
            video_ids = sorted(
                {vid for ids in hour_video_ids.values() for vid in ids}
            )
            if self._collect_metadata:
                video_meta, channel_meta = self._fetch_metadata(video_ids)
            if with_comments:
                comments = self._fetch_comments(video_ids)
        snapshot = TopicSnapshot(
            topic=spec.key,
            collected_at=collected_at,
            hour_video_ids=hour_video_ids,
            pool_sizes=pool_sizes,
            video_meta=video_meta,
            channel_meta=channel_meta,
            comments=comments,
            missing_hours=missing_hours,
        )
        self._observer.emit(
            "topic.end",
            spec.key,
            service.quota.total_used - units_before,
            snapshot.total_returned,
            at=service.clock.now(),
        )
        return snapshot

    def _bounds_for(self, spec: TopicSpec) -> list[tuple[str, str]]:
        """The topic's hour windows as RFC3339 string pairs, computed once."""
        bounds = self._hour_bounds.get(spec.key)
        if bounds is None:
            bounds = [
                (
                    format_rfc3339(hour_start),
                    format_rfc3339(hour_start + timedelta(hours=1)),
                )
                for hour_start in hour_range(spec.window_start, spec.window_end)
            ]
            self._hour_bounds[spec.key] = bounds
        return bounds

    def _query_hour(
        self, spec: TopicSpec, published_after: str, published_before: str
    ) -> tuple[list[str], int]:
        """One hourly query: all pages, as the paper's time-split design.

        An ``invalidPageToken`` mid-pagination restarts this bin from page
        one — the accumulator is local, so a restart cannot double-count.
        """
        restarts = 0
        while True:
            try:
                return self._query_hour_once(spec, published_after, published_before)
            except InvalidPageTokenError as exc:
                restarts += 1
                if restarts > self._client.retry_policy.max_pagination_restarts:
                    raise
                self._client.retry_policy.spend_retry("search.list", exc)
                self._observer.emit(
                    "pagination.restart", "search.list", restarts,
                    type(exc).__name__,
                )

    def _query_hour_once(
        self, spec: TopicSpec, published_after: str, published_before: str
    ) -> tuple[list[str], int]:
        ids: list[str] = []
        pool = 0
        pages = 0
        page_token: str | None = None
        while True:
            params = {
                "part": "snippet",
                "q": spec.query,
                "maxResults": 50,
                "order": "date",
                "safeSearch": "none",
                "publishedAfter": published_after,
                "publishedBefore": published_before,
                "type": "video",
            }
            if page_token:
                params["pageToken"] = page_token
            response = self._client.search_page(**params)
            pages += 1
            pool = int(response["pageInfo"]["totalResults"])
            ids.extend(item["id"]["videoId"] for item in response["items"])
            page_token = response.get("nextPageToken")
            if not page_token:
                self._observer.emit("search.query", pages, len(ids))
                return ids, pool

    def _fetch_metadata(
        self, video_ids: list[str]
    ) -> tuple[CapturedResources, CapturedResources]:
        """Videos:list then Channels:list for everything this topic returned."""
        video_texts: dict[str, str] = {}
        channel_ids: set[str] = set()
        for video_id, channel_id, text in self._client.videos_capture(video_ids):
            video_texts[video_id] = text
            channel_ids.add(channel_id)
        channel_texts = dict(self._client.channels_capture(sorted(channel_ids)))
        return (
            CapturedResources.from_texts(video_texts),
            CapturedResources.from_texts(channel_texts),
        )

    def _fetch_comments(self, video_ids: list[str]) -> CapturedResources:
        """Full comment capture for every returned video.

        Threads give the top-level comments plus up to five inline replies;
        threads reporting more replies than were inlined are completed via
        Comments:list, as Appendix B.2 describes.  Each video's payload is
        ``{"replies": [...], "top_level": [...]}``, spliced from the
        comments' texts.
        """
        comments: dict[str, str] = {}
        for video_id in video_ids:
            try:
                threads = self._client.comment_threads_capture(video_id)
            except (NotFoundError, ForbiddenError):
                continue  # deleted between search and comment fetch
            top_level: list[str] = []
            replies: list[str] = []
            for thread in threads:
                top_level.append(thread.top_level)
                if thread.total_reply_count > len(thread.replies):
                    replies.extend(
                        self._client.comment_replies_capture(thread.thread_id)
                    )
                else:
                    replies.extend(thread.replies)
            comments[video_id] = (
                f'{{"replies": [{", ".join(replies)}], '
                f'"top_level": [{", ".join(top_level)}]}}'
            )
        return CapturedResources.from_texts(comments)
