"""The search behavior engine: what Search:list actually does.

This composes the four mechanism models (density suppression, rolling-window
churn, metadata bias, pool size) into a single deterministic function

    (query text, candidates, time window, request date) -> (videos, totalResults)

that the API simulator's search endpoint calls.  Determinism contract: the
outcome depends only on the world seed, the query, and the *request date* —
never on what was queried before.  Identical historical queries issued on
the same day agree exactly; issued weeks apart they diverge through churn,
which is the paper's central finding.

Fast path (see ``docs/PERFORMANCE.md``): a campaign issues the same six
queries once per hour bin — 64,512 times at paper scale — so everything
that is a pure function of the immutable corpus or of the request *date*
is memoized per engine instance, and the per-query selection runs as one
vectorized numpy pass (fancy indexing over precomputed per-topic arrays,
a single batched ``ndtr`` call) instead of a Python loop per hour bin.

Cache invariants:

* every cache key includes the query label and/or the request date label,
  so distinct queries and distinct collection days never collide;
* all cached values are pure functions of (corpus, seed, params, key) —
  the corpus is immutable and ``BehaviorParams`` is frozen, so entries
  never invalidate;
* caches live on the engine *instance*: an ablation that constructs a new
  engine with different :class:`BehaviorParams` starts cold and can never
  observe another parameterization's memos.

The caches are guarded by a lock so one engine stays safe to share
across threads.  No in-repo caller does so concurrently today: the serve
gateway's warm service, the only engine several threads reach, is called
under the gateway's backend lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from bisect import bisect_left
from datetime import datetime
from functools import lru_cache
from math import exp, sqrt

import numpy as np
from scipy.special import ndtr

from repro.util.rng import stable_normal

from repro.sampling.bias import inclusion_bias
from repro.sampling.churn import ChurnProcess
from repro.sampling.density import InterestDensity
from repro.sampling.pool import TOTAL_RESULTS_CAP, PoolSizeModel
from repro.util.timeutil import hour_index
from repro.world.entities import Video
from repro.world.store import PlatformStore
from repro.world.topics import TopicSpec

__all__ = ["BehaviorParams", "SearchOutcome", "SweepOutcome", "SearchBehaviorEngine"]

_EMPTY_EPOCHS = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class BehaviorParams:
    """Tunable mechanism parameters (the ablation surface).

    Attributes
    ----------
    bias_share:
        Fraction of selection-score variance carried by the stable
        metadata bias (vs. the churning latent state).  0 disables the
        popularity/duration bias entirely.
    narrowness_exponent:
        How strongly narrower queries raise the return fraction
        (``q = saturation * narrowness**-exponent``).  0 disables the
        pool-size/consistency coupling (Section 5 / Table 4).
    saturation_cap:
        Upper bound on the return fraction; below 1.0 so no query is ever
        perfectly deterministic.
    budget_jitter:
        Lognormal sigma of per-(collection, hour) budget noise.
    collection_budget_sigma:
        Lognormal sigma of the per-collection-day global budget factor
        (sets the per-topic spread of returned counts in Table 1).
    """

    bias_share: float = 0.24
    narrowness_exponent: float = 0.35
    saturation_cap: float = 0.97
    budget_jitter: float = 0.02
    collection_budget_sigma: float = 0.03

    def __post_init__(self) -> None:
        if not 0.0 <= self.bias_share <= 1.0:
            raise ValueError("bias_share must be in [0, 1]")
        if self.narrowness_exponent < 0:
            raise ValueError("narrowness_exponent must be non-negative")
        if not 0.0 < self.saturation_cap <= 1.0:
            raise ValueError("saturation_cap must be in (0, 1]")


@dataclass
class SearchOutcome:
    """What a single search query returns before pagination."""

    videos: list[Video]
    total_results: int


@dataclass
class SweepOutcome:
    """Per-bin results of one vectorized hour-bin sweep.

    ``bin_videos[j]`` and ``bin_totals[j]`` are exactly what
    :meth:`SearchBehaviorEngine.execute` would have returned for
    ``bounds[j]`` — same videos, same order, same ``totalResults``.
    """

    bin_videos: list[list[Video]]
    bin_totals: list[int]


class _TopicRuntime:
    """Per-topic precomputed state: corpus order, bias, churn, density, pool."""

    def __init__(
        self,
        spec: TopicSpec,
        store: PlatformStore,
        seed: int,
        params: BehaviorParams,
    ) -> None:
        self.spec = spec
        self.videos = store.world.videos_for_topic(spec.key)
        self.index = {v.video_id: i for i, v in enumerate(self.videos)}
        self.bias = inclusion_bias(self.videos, store.world.channels)
        self.density = InterestDensity(spec, budget_jitter=params.budget_jitter)
        self.pool = PoolSizeModel(spec)
        self.churn = ChurnProcess(spec, len(self.videos), seed)
        corpus = getattr(store, "corpus", None)
        if corpus is not None and spec.key in corpus.topics:
            # Columnar fast path: the corpus already holds publish/delete
            # epochs; slice them in videos_for_topic order instead of
            # recomputing per materialized dataclass.  Values are identical
            # (whole-microsecond epochs divide exactly into POSIX seconds).
            self.pub_ts, self.del_ts, self.hour_of = corpus.engine_columns(spec.key)
        else:
            # Precomputed hour offset of each video within the topic window.
            self.hour_of = np.array(
                [
                    min(max(hour_index(spec.window_start, v.published_at), 0),
                        spec.window_hours - 1)
                    for v in self.videos
                ],
                dtype=np.int64,
            )
            # Publish/delete instants as POSIX seconds, so per-query liveness
            # is one vectorized comparison instead of a Python call per video.
            # Microsecond-datetime comparisons survive the float64 round trip
            # exactly (the gap between distinct datetimes is several ulps).
            self.pub_ts = np.array(
                [v.published_at.timestamp() for v in self.videos], dtype=np.float64
            )
            self.del_ts = np.array(
                [
                    v.deleted_at.timestamp() if v.deleted_at is not None else np.inf
                    for v in self.videos
                ],
                dtype=np.float64,
            )
        # The return fraction is defined against the *unsuppressed* part of
        # the corpus: suppressed hours never return anything, so hitting the
        # topic's return budget requires a correspondingly higher fraction
        # of the remaining videos.
        suppressed = self.density.suppressed_mask()
        unsuppressed_count = int(np.sum(~suppressed[self.hour_of]))
        self.base_saturation = min(
            params.saturation_cap,
            spec.return_budget / max(unsuppressed_count, 1),
        )


class SearchBehaviorEngine:
    """Executes the inferred search semantics against the platform store."""

    def __init__(
        self,
        store: PlatformStore,
        specs: tuple[TopicSpec, ...],
        seed: int,
        params: BehaviorParams | None = None,
    ) -> None:
        self._store = store
        self._params = params or BehaviorParams()
        self._seed = seed
        self._topics = {
            spec.key: _TopicRuntime(spec, store, seed, self._params) for spec in specs
        }
        # (query, channelId) -> topic -> (positions, publish times); the
        # corpus is immutable so this never invalidates.
        self._partition_cache: dict[
            tuple[str, str], dict[str, tuple[np.ndarray, list[datetime]]]
        ] = {}
        # (topic, request date) -> per-collection-day budget factor.
        self._day_factor_cache: dict[tuple[str, str], float] = {}
        # (topic, request date) -> mixed latent churn vector.  The churn
        # process itself is stateful (it advances day by day), so reads go
        # through the cache lock.
        self._latent_cache: dict[tuple[str, str], np.ndarray] = {}
        # (query, channelId, request instant) -> topic -> (narrowness,
        # selected videos, their publish times, their publish epochs).  The
        # whole-corpus selection is a pure function of (query, channel,
        # as_of); an hourly query is then two binary searches into the
        # selected list.  One entry per query per snapshot instant, so the
        # cache stays tiny.  The epochs ride along as a float64 array so
        # the batched sweep can searchsorted without re-deriving them.
        self._selection_cache: dict[
            tuple[str, str, datetime],
            dict[str, tuple[float, list[Video], list[datetime], np.ndarray]],
        ] = {}
        # One lock guards every cache: misses are rare (six queries, one
        # date per snapshot) and the hit path only takes the lock on the
        # stateful latent lookup.
        self._cache_lock = threading.Lock()

    @property
    def params(self) -> BehaviorParams:
        """The mechanism parameters in effect."""
        return self._params

    def topic_runtime(self, key: str) -> _TopicRuntime:
        """Expose a topic's runtime (used by tests and ablations)."""
        return self._topics[key]

    def execute(
        self,
        query_label: str,
        candidate_ids: set[str] | frozenset[str],
        published_after: datetime | None,
        published_before: datetime | None,
        as_of: datetime,
        order: str = "date",
        channel_id: str | None = None,
    ) -> SearchOutcome:
        """Run one search query.

        ``candidate_ids`` is the text-matched candidate set (time-unfiltered;
        the engine derives query narrowness from it, which is what makes
        ``totalResults`` — and consistency — insensitive to the time window).
        It must be a pure function of ``(query_label, channel_id)``: the
        topic partition is memoized under that key and the set is only read
        on a cache miss.
        """
        request_label = as_of.date().isoformat()
        selection = self._selection(
            query_label, channel_id, candidate_ids, as_of, request_label
        )
        window_label = _window_label(published_after, published_before)

        selected: list[Video] = []
        total_results = 0
        for topic_key, (narrowness, videos, times, _epochs) in selection.items():
            runtime = self._topics[topic_key]
            total_results += runtime.pool.total_results(
                request_label,
                window_label,
                narrowness=narrowness,
            )
            lo = 0
            hi = len(times)
            if published_after is not None:
                lo = bisect_left(times, published_after)
            if published_before is not None:
                hi = bisect_left(times, published_before)
            selected.extend(videos[lo:hi])

        total_results = min(total_results, TOTAL_RESULTS_CAP)
        _order_videos(selected, order, self._store, as_of)
        return SearchOutcome(videos=selected, total_results=total_results)

    def execute_sweep(
        self,
        query_label: str,
        candidate_ids: set[str] | frozenset[str],
        bounds: list[tuple[datetime | None, datetime | None]],
        as_of: datetime,
        order: str = "date",
        channel_id: str | None = None,
    ) -> SweepOutcome:
        """Run a whole sweep of window-truncated queries in one pass.

        Equivalent to calling :meth:`execute` once per ``(after, before)``
        pair in ``bounds`` — but all truncations happen in a single
        ``searchsorted`` over one merged publish-epoch array instead of
        ``2 * len(bounds) * topics`` Python bisects.  Exactness argument:

        * the per-bin video *set* is the union over topics of selected
          videos with ``after <= published_at < before``; merging the
          topic selections first and slicing the union once commutes with
          slicing per topic and unioning, because membership is
          elementwise on publish time;
        * ``bisect_left`` on microsecond datetimes equals ``searchsorted``
          (side ``"left"``) on their float64 POSIX epochs — distinct
          datetimes are several ulps apart after the round trip (the same
          invariant ``_TopicRuntime`` liveness relies on);
        * for ``order="date"`` the merged selection is pre-sorted
          ascending by ``(published_at, video_id)``; reversing a slice of
          an ascending unique-key order *is* the descending sort
          :func:`_order_videos` performs.  Other orders re-sort each bin's
          slice with the shared helper.

        ``totalResults`` keeps its per-bin semantics: the pool model draws
        per ``(topic, request date, window label)``, so those draws stay a
        Python loop — they are data, not overhead.

        The sweep is *pure*: beyond warming the shared selection caches it
        has no side effects, so callers may compute it before billing and
        fall back to per-call execution without observable divergence.
        """
        request_label = as_of.date().isoformat()
        selection = self._selection(
            query_label, channel_id, candidate_ids, as_of, request_label
        )

        # Window labels are bin properties, not topic properties: compute
        # them once and reuse across every topic's pool draws.
        labels = [_window_label(after, before) for after, before in bounds]
        bin_totals = [0] * len(bounds)
        for topic_key, (narrowness, _videos, _times, _epochs) in selection.items():
            draws = self._topics[topic_key].pool.total_results_many(
                request_label, labels, narrowness=narrowness
            )
            bin_totals = [total + draw for total, draw in zip(bin_totals, draws)]
        bin_totals = [min(total, TOTAL_RESULTS_CAP) for total in bin_totals]

        parts = list(selection.values())
        if len(parts) == 1:
            # Single-topic selection — the common campaign case.  Topic
            # corpus order is ``(published_at, video_id)`` ascending and
            # selection preserves position order, so the kept list already
            # *is* the merged sort, and its publish epochs were sliced out
            # of the precomputed per-topic vector during selection.
            _n0, merged, _t0, epochs = parts[0]
        else:
            merged = []
            for _narrowness, videos, _times, _epochs in parts:
                merged.extend(videos)
            merged.sort(key=lambda v: (v.published_at, v.video_id))
            epochs = np.array(
                [v.published_at.timestamp() for v in merged], dtype=np.float64
            )
        afters = np.array(
            [-np.inf if after is None else after.timestamp() for after, _ in bounds],
            dtype=np.float64,
        )
        befores = np.array(
            [np.inf if before is None else before.timestamp() for _, before in bounds],
            dtype=np.float64,
        )
        los = np.searchsorted(epochs, afters, side="left").tolist()
        his = np.searchsorted(epochs, befores, side="left").tolist()

        bin_videos: list[list[Video]] = []
        if order == "date":
            for lo, hi in zip(los, his):
                bin_videos.append(merged[lo:hi][::-1])
        else:
            for lo, hi in zip(los, his):
                window = merged[lo:hi]
                _order_videos(window, order, self._store, as_of)
                bin_videos.append(window)
        return SweepOutcome(bin_videos=bin_videos, bin_totals=bin_totals)

    # -- internals -----------------------------------------------------------

    def _selection(
        self,
        query_label: str,
        channel_id: str | None,
        candidate_ids: set[str] | frozenset[str],
        as_of: datetime,
        request_label: str,
    ) -> dict[str, tuple[float, list[Video], list[datetime]]]:
        """Whole-corpus selection for one (query, channel, request instant).

        Every hourly query of a snapshot shares the same query text and
        ``as_of``; only the publish window differs.  Selection (liveness,
        bias/churn scores, density thresholds) is independent of the window,
        so it is computed once over the full topic partition and cached; the
        per-hour work reduces to two binary searches over the selected
        videos' publish times.  Commuting the window slice with the
        selection filter is exact: both are elementwise over the same
        publish-time-sorted positions, so the surviving videos and their
        order are identical either way.
        """
        cache_key = (query_label, channel_id or "", as_of)
        cached = self._selection_cache.get(cache_key)
        if cached is not None:
            return cached
        partition = self._partition(query_label, channel_id, candidate_ids)
        selection: dict[str, tuple[float, list[Video], list[datetime], np.ndarray]] = {}
        for topic_key, (positions, _times) in partition.items():
            runtime = self._topics[topic_key]
            narrowness = max(len(positions) / max(runtime.spec.n_videos, 1), 1e-6)
            narrowness = min(narrowness, 1.0)
            kept, epochs = self._select_for_topic(
                runtime, positions, as_of, request_label, narrowness
            )
            selection[topic_key] = (
                narrowness,
                kept,
                [v.published_at for v in kept],
                epochs,
            )
        # Computed outside the lock (so the stateful latent lookup can take
        # it); racing threads produce identical values, first store wins.
        with self._cache_lock:
            return self._selection_cache.setdefault(cache_key, selection)

    def _partition(
        self,
        query_label: str,
        channel_id: str | None,
        candidate_ids: set[str] | frozenset[str],
    ) -> dict[str, tuple[np.ndarray, list[datetime]]]:
        """Split candidates by topic, with per-(query, channel) memoization.

        Campaigns issue the same query thousands of times (one per hour per
        collection), so the query-to-topic partition — a pure function of
        the immutable corpus — is cached.  Channel filtering happens here,
        on the miss path, so a cache hit costs one dict lookup.  Positions
        come out sorted by publish time (topic corpus order *is* publish
        order), held as an int64 array so window slices feed numpy fancy
        indexing directly; the publish times ride along so window filtering
        can binary-search instead of scanning.
        """
        cache_key = (query_label, channel_id or "")
        cached = self._partition_cache.get(cache_key)
        if cached is not None:
            return cached
        with self._cache_lock:
            cached = self._partition_cache.get(cache_key)
            if cached is not None:
                return cached
            partition: dict[str, tuple[np.ndarray, list[datetime]]] = {}
            for topic_key, runtime in self._topics.items():
                index = runtime.index
                if channel_id is None:
                    hits = [
                        pos for vid in candidate_ids
                        if (pos := index.get(vid)) is not None
                    ]
                else:
                    videos = runtime.videos
                    hits = [
                        pos for vid in candidate_ids
                        if (pos := index.get(vid)) is not None
                        and videos[pos].channel_id == channel_id
                    ]
                if hits:
                    hits.sort()
                    positions = np.array(hits, dtype=np.int64)
                    times = [runtime.videos[pos].published_at for pos in hits]
                    partition[topic_key] = (positions, times)
            self._partition_cache[cache_key] = partition
            return partition

    def _day_factor(self, runtime: _TopicRuntime, request_label: str) -> float:
        """Memoized per-(topic, collection-day) budget drift factor."""
        key = (runtime.spec.key, request_label)
        factor = self._day_factor_cache.get(key)
        if factor is None:
            factor = exp(
                self._params.collection_budget_sigma
                * stable_normal("collection-budget", runtime.spec.key, request_label)
            )
            with self._cache_lock:
                self._day_factor_cache[key] = factor
        return factor

    def _latent(self, runtime: _TopicRuntime, as_of: datetime, request_label: str) -> np.ndarray:
        """Memoized per-(topic, request-date) latent churn vector.

        :meth:`ChurnProcess.latent_at` is a pure function of the request
        *date* but advances internal state, so the lookup is serialized
        behind the cache lock.
        """
        key = (runtime.spec.key, request_label)
        latent = self._latent_cache.get(key)
        if latent is None:
            with self._cache_lock:
                latent = self._latent_cache.get(key)
                if latent is None:
                    latent = runtime.churn.latent_at(as_of)
                    self._latent_cache[key] = latent
        return latent

    def _select_for_topic(
        self,
        runtime: _TopicRuntime,
        partition_positions: np.ndarray,
        as_of: datetime,
        request_label: str,
        narrowness: float,
    ) -> tuple[list[Video], np.ndarray]:
        """Kept videos (position order) plus their publish-epoch vector.

        The epochs are a slice of the topic's precomputed ``pub_ts`` — by
        the runtime's float64 round-trip invariant, element ``i`` equals
        ``kept[i].published_at.timestamp()`` exactly.
        """
        if partition_positions.size == 0:
            return [], _EMPTY_EPOCHS
        params = self._params
        # A collection-level budget factor: the total number of videos the
        # endpoint is willing to return drifts a little between collection
        # days, which produces the per-topic spread of Table 1.
        day_factor = self._day_factor(runtime, request_label)
        saturation = min(
            params.saturation_cap,
            runtime.base_saturation
            * day_factor
            * narrowness ** (-params.narrowness_exponent),
        )

        # Eligibility: candidate and alive at the request instant (window
        # filtering happens afterwards, by bisecting the survivors).
        as_of_ts = as_of.timestamp()
        alive = (runtime.pub_ts[partition_positions] <= as_of_ts) & (
            runtime.del_ts[partition_positions] > as_of_ts
        )
        positions = partition_positions[alive]
        if positions.size == 0:
            return [], _EMPTY_EPOCHS

        # Per-video threshold crossing: a video is in its hour's "windowed
        # set" when the CDF of its selection score falls below the hour's
        # inclusion probability.  Strong metadata bias (high bias value) and
        # a low latent churn state both pull the score down, i.e. into the
        # set.  One fancy-indexed score vector and one batched ndtr call
        # replace the per-hour Python loop; suppressed hours carry a zero
        # saturation, which no CDF value can fall below.
        latent = self._latent(runtime, as_of, request_label)
        a = sqrt(params.bias_share)
        b = sqrt(1.0 - params.bias_share)
        scores = b * latent[positions] - a * runtime.bias[positions]
        q = runtime.density.saturation_row(saturation, request_label)[
            runtime.hour_of[positions]
        ]
        keep = ndtr(scores) < q
        kept_positions = positions[keep]
        videos = runtime.videos
        return (
            [videos[pos] for pos in kept_positions],
            np.asarray(runtime.pub_ts[kept_positions], dtype=np.float64),
        )


@lru_cache(maxsize=8192)
def _window_label(after: datetime | None, before: datetime | None) -> str:
    # Memoized: the hour-bin boundaries are fixed per topic window, so the
    # same (after, before) pairs recur on every snapshot of a campaign.
    a = after.isoformat() if after else "-"
    b = before.isoformat() if before else "-"
    return f"{a}/{b}"


def _order_videos(
    videos: list[Video], order: str, store: PlatformStore, as_of: datetime
) -> None:
    """Sort in place according to the requested API ordering.

    Metric-backed orders compute :meth:`PlatformStore.metrics_at` once per
    video up front — the sort key must not re-derive the growth curve on
    every comparison.
    """
    if order == "date":
        videos.sort(key=lambda v: (v.published_at, v.video_id), reverse=True)
    elif order == "title":
        videos.sort(key=lambda v: (v.title, v.video_id))
    elif order in ("viewCount", "rating", "relevance"):
        metrics = {v.video_id: store.metrics_at(v, as_of) for v in videos}
        if order == "viewCount":
            key = lambda v: (metrics[v.video_id][0], v.video_id)
        elif order == "rating":
            key = lambda v: (metrics[v.video_id][1], v.video_id)
        else:
            # Relevance mixes popularity and recency; the audit never relies
            # on it, but the endpoint supports it.
            key = lambda v: (
                metrics[v.video_id][0] * 0.7 + metrics[v.video_id][1] * 0.3,
                v.video_id,
            )
        videos.sort(key=key, reverse=True)
    else:
        raise ValueError(f"unsupported order: {order!r}")
