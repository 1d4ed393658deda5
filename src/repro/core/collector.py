"""Snapshot collection: the paper's data-gathering loop.

For every topic, one search query per hour of the 28-day window (binned
time-split querying, Section 2's "one per X time" strategy), in reverse
chronological order — followed immediately by Videos:list and
Channels:list calls for the returned IDs (Appendix B.1's flow), and
optionally by CommentThreads:list / Comments:list for the comment audit.

Resilience (see :mod:`repro.resilience` and ``docs/RESILIENCE.md``):

* with a :class:`~repro.resilience.checkpoint.PartialSnapshotStore`, every
  completed hour-bin query is persisted immediately, and a resumed
  collection replays completed bins instead of re-querying them;
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
        they finish and replayed on resume.
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
        self._observer.on_snapshot_start(index, collected_at)
        units_before = service.quota.total_used
        calls_before = service.transport.total_calls

        topics: dict[str, TopicSnapshot] = {}
        for spec in self._topics:
            done = completed.completed_for(spec.key) if completed else {}
            topics[spec.key] = self._collect_topic(spec, with_comments, done)
        self._observer.on_snapshot_end(
            index,
            service.clock.now(),
            units=service.quota.total_used - units_before,
            calls=service.transport.total_calls - calls_before,
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
                f"the campaign checkpoint and its partial sidecar disagree"
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
        self._observer.on_topic_start(spec.key, collected_at)
        units_before = service.quota.total_used
        hour_video_ids: dict[int, list[str]] = {}
        pool_sizes: dict[int, int] = {}
        missing_hours: list[int] = []

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
                self._observer.on_collect_sweep(
                    spec.key,
                    bins=len(bounds),
                    calls=calls,
                    units=calls * search_cost,
                    videos=sum(len(hour.ids) for hour in swept),
                )

        for hour_index in range(len(bounds)):
            if hour_index in completed:
                ids, pool = completed[hour_index]
            elif swept is not None:
                # Batch path: every page is already billed and recorded;
                # the per-bin bookkeeping (query summary, checkpoint
                # record with the bin's own spend) still runs bin by bin
                # so resumes, journaled billing and metrics are
                # indistinguishable from the per-call loop.
                hour = swept[hour_index]
                ids, pool = hour.ids, hour.total_results
                self._observer.on_search_query(hour.pages, len(ids))
                if self._partial is not None:
                    self._partial.record_hour(
                        spec.key, hour_index, ids, pool, hour.pages * search_cost
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
                    self._observer.on_degraded(
                        "hour-bin",
                        f"{spec.key} hour {hour_index}: {type(exc).__name__}",
                    )
                    continue
                if self._partial is not None:
                    self._partial.record_hour(
                        spec.key, hour_index, ids, pool,
                        service.quota.total_used - spent_before,
                    )
            pool_sizes[hour_index] = pool
            if ids:
                hour_video_ids[hour_index] = ids

        snapshot = TopicSnapshot(
            topic=spec.key,
            collected_at=collected_at,
            hour_video_ids=hour_video_ids,
            pool_sizes=pool_sizes,
            missing_hours=missing_hours,
        )
        if self._collect_metadata:
            self._attach_metadata(snapshot)
        if with_comments:
            self._attach_comments(snapshot)
        self._observer.on_topic_end(
            spec.key,
            service.clock.now(),
            units=service.quota.total_used - units_before,
            videos=snapshot.total_returned,
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
                self._observer.on_pagination_restart("search.list", restarts, exc)

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
                self._observer.on_search_query(pages, len(ids))
                return ids, pool

    def _attach_metadata(self, snapshot: TopicSnapshot) -> None:
        """Videos:list then Channels:list for everything this topic returned."""
        ids = sorted(snapshot.video_ids)
        if not ids:
            return
        for resource in self._client.videos_list(ids):
            snapshot.video_meta[resource["id"]] = resource
        channel_ids = sorted(
            {r["snippet"]["channelId"] for r in snapshot.video_meta.values()}
        )
        for resource in self._client.channels_list(channel_ids):
            snapshot.channel_meta[resource["id"]] = resource

    def _attach_comments(self, snapshot: TopicSnapshot) -> None:
        """Full comment capture for every returned video.

        Threads give the top-level comments plus up to five inline replies;
        threads reporting more replies than were inlined are completed via
        Comments:list, as Appendix B.2 describes.
        """
        for video_id in sorted(snapshot.video_ids):
            try:
                threads = self._client.comment_threads_all(video_id)
            except (NotFoundError, ForbiddenError):
                continue  # deleted between search and comment fetch
            top_level: list[dict] = []
            replies: list[dict] = []
            for thread in threads:
                top_level.append(thread["snippet"]["topLevelComment"])
                inline = thread.get("replies", {}).get("comments", [])
                total = int(thread["snippet"]["totalReplyCount"])
                if total > len(inline):
                    replies.extend(self._client.comment_replies_all(thread["id"]))
                else:
                    replies.extend(inline)
            snapshot.comments[video_id] = {
                "top_level": top_level,
                "replies": replies,
            }
