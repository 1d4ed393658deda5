"""Columnar world corpus: typed whole-topic arrays + lazy entity views.

This module is the heart of the vectorized world builder.  Generation is
split into two stages:

1. **Draw** — :func:`draw_video_columns` (and its siblings in
   :mod:`repro.world.channels` / :mod:`repro.world.comments`) consume the
   topic RNG stream in whole-array batches and land the results in typed
   column dataclasses: int64 publish epochs (microseconds since the Unix
   epoch), int64 metrics, small interned index columns for channel,
   subtopic, and text-filler assignment.  The video/channel draws consume
   *exactly* the RNG stream the historical scalar builder consumed (batch
   draws from a NumPy ``Generator`` are bit-identical to the equivalent
   scalar sequences), so a columnar world equals the historical builder's
   world entity for entity — the recorded world digests in
   ``tests/test_world_columnar.py`` and the golden campaign lock this.

2. **Materialize** — :class:`ColumnarCorpus` turns rows into the existing
   :class:`~repro.world.entities.Video` / ``Channel`` / ``CommentThread``
   dataclasses *lazily and cached*: the first access to an entity mints its
   ID and builds the dataclass; repeated access returns the identical
   object.  :class:`ColumnarWorld` wraps the corpus in the ``World``
   interface (lazy mappings), so every existing call site keeps working
   unchanged while a 100x world builds in seconds.

The one deliberately non-scalar-compatible piece is the historical
per-video deletion loop, which interleaved a variable number of draws per
video.  :func:`_draw_deletion_columns` reproduces that exact stream with a
save/parse/restore trick: snapshot the generator state, draw a generous
uniform buffer, locate each video's draws with a vectorized fixed-point
parse, then rewind and consume exactly the number of doubles the scalar
loop would have, so every draw *after* deletions also stays identical.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterator

import numpy as np

from repro.util.rng import stable_hash
from repro.util.timeutil import from_epoch_us, to_epoch_us
from repro.world import ids
from repro.world.channels import (
    ChannelColumns,
    channel_from_row,
    channel_ordinal_base,
)
from repro.world.comments import (
    ThreadColumns,
    materialize_video_threads,
    thread_ordinal_base,
)
from repro.world.entities import CommentThread, Video, World
from repro.world.popularity import draw_video_metrics
from repro.world.temporal import sample_upload_epochs
from repro.world.topics import TopicSpec

__all__ = [
    "TITLE_FILLER",
    "DESCRIPTION_FILLER",
    "DELETION_FRACTION",
    "DELETE_DURING_CAMPAIGN",
    "compose_text",
    "VideoColumns",
    "TopicColumns",
    "draw_video_columns",
    "video_ordinal_base",
    "video_from_row",
    "deletion_datetimes",
    "ColumnarCorpus",
    "ColumnarWorld",
]

TITLE_FILLER = (
    "breaking", "live", "full coverage", "explained", "reaction", "analysis",
    "highlights", "interview", "report", "update", "documentary", "timeline",
    "what happened", "behind the scenes", "press conference", "recap",
)
DESCRIPTION_FILLER = (
    "subscribe for more", "follow our coverage", "filmed on location",
    "sources in the description", "watch until the end", "live from the scene",
    "more details in our next video", "leave your thoughts below",
)

#: Fraction of videos that get deleted at some point after upload.
DELETION_FRACTION = 0.045
#: Of the deleted ones, the fraction whose deletion lands inside a typical
#: campaign window (so collectors actually observe disappearance).
DELETE_DURING_CAMPAIGN = 0.25

_US_PER_HOUR = 3_600_000_000

#: int64 sentinel for "never deleted" in epoch-microsecond delete columns;
#: any real ``as_of`` compares strictly below it.
NEVER_US = np.iinfo(np.int64).max

#: Sentinel ordinal used when tokenizing a (subtopic, filler, filler) text
#: combination: its token rendering can never occur in real topic text, so
#: it can be discarded to leave exactly the ordinal-independent tokens.
_SENTINEL_ORDINAL = 10**15


def compose_text(
    spec: TopicSpec,
    subtopic_name: str | None,
    title_filler: str,
    description_filler: str,
    ordinal: int,
) -> tuple[str, str, tuple[str, ...]]:
    """Compose title/description/tags so query matching works as intended.

    Every video's text contains the topic query terms (so the topic query
    matches the whole corpus); subtopic videos additionally contain their
    subtopic query terms (so narrower queries match only their slice).
    """
    sub_query = ""
    if subtopic_name is not None:
        for s in spec.subtopics:
            if s.name == subtopic_name:
                sub_query = s.query
                break
    title_parts = [spec.query.title()]
    if sub_query:
        title_parts.append(sub_query)
    title_parts.append(title_filler)
    title_parts.append(f"#{ordinal}")
    title = " - ".join(title_parts)
    description = (
        f"{spec.label} coverage: {spec.query}. "
        + (f"Focus: {sub_query}. " if sub_query else "")
        + description_filler
        + "."
    )
    tags = tuple(
        dict.fromkeys(  # preserve order, drop duplicates
            spec.query.split() + (sub_query.split() if sub_query else []) + [spec.key]
        )
    )
    return title, description, tags


@dataclass
class VideoColumns:
    """Typed per-topic video columns (one row per video, publish-sorted)."""

    publish_us: np.ndarray  # int64 epoch microseconds, sorted ascending
    channel_idx: np.ndarray  # int64 index into the topic's channel rows
    sub_idx: np.ndarray  # int64; == len(spec.subtopics) means "general"
    views: np.ndarray  # int64
    likes: np.ndarray  # int64
    comments: np.ndarray  # int64
    duration_s: np.ndarray  # int64
    definition: np.ndarray  # str array of "hd"/"sd"
    filler_idx: np.ndarray  # int64 index into TITLE_FILLER
    desc_idx: np.ndarray  # int64 index into DESCRIPTION_FILLER
    del_delay_days: np.ndarray  # float64; NaN = never deleted

    @property
    def n(self) -> int:
        return int(self.publish_us.shape[0])


@dataclass
class TopicColumns:
    """One topic's full column set."""

    spec: TopicSpec
    channels: ChannelColumns
    videos: VideoColumns
    threads: ThreadColumns | None  # None when built without comments


def video_ordinal_base(spec: TopicSpec) -> int:
    """Topic-scoped ordinal base so video IDs never collide across topics."""
    return stable_hash("video-ordinal", spec.key) % 10**9


def draw_video_columns(
    spec: TopicSpec, channel_subscribers: np.ndarray, rng: np.random.Generator
) -> VideoColumns:
    """Draw one topic's video columns.

    Consumes the identical RNG stream as the historical scalar builder:
    upload times, metrics, channel assignment, subtopic assignment, the
    deletion hazard (via the stream-exact parser), then title/description
    filler indices.
    """
    n = spec.n_videos
    publish_us = sample_upload_epochs(spec, n, rng)
    metrics = draw_video_metrics(n, rng, era_year=spec.focal_date.year)

    # Popular channels upload more: weight by a mild power of subscribers.
    weights = channel_subscribers.astype(float)
    weights = weights**0.3
    weights /= weights.sum()
    channel_idx = rng.choice(channel_subscribers.shape[0], size=n, p=weights)

    if spec.subtopics:
        shares = np.array([s.share for s in spec.subtopics], dtype=float)
        general = max(0.0, 1.0 - shares.sum())
        probs = np.concatenate([shares, [general]])
        probs /= probs.sum()
        sub_idx = rng.choice(len(spec.subtopics) + 1, size=n, p=probs)
    else:
        sub_idx = np.zeros(n, dtype=np.int64)

    del_delay_days = _draw_deletion_columns(n, rng)

    filler_idx = rng.integers(0, len(TITLE_FILLER), size=n)
    desc_idx = rng.integers(0, len(DESCRIPTION_FILLER), size=n)

    return VideoColumns(
        publish_us=publish_us,
        channel_idx=np.asarray(channel_idx, dtype=np.int64),
        sub_idx=np.asarray(sub_idx, dtype=np.int64),
        views=metrics.views,
        likes=metrics.likes,
        comments=metrics.comments,
        duration_s=metrics.duration_seconds,
        definition=metrics.definition,
        filler_idx=filler_idx,
        desc_idx=desc_idx,
        del_delay_days=del_delay_days,
    )


def _draw_deletion_columns(n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized replay of the scalar deletion loop, stream-exact.

    The historical loop drew, per video: one hazard uniform ``u1``; if
    ``u1 < DELETION_FRACTION``, one regime uniform ``u2`` and one delay
    uniform ``u3`` (as ``rng.uniform``, which is ``low + (high-low) *
    random()``).  The number of doubles consumed therefore depends on the
    values drawn, which defeats naive batching.  We snapshot the generator
    state, draw a generous buffer, and recover each video's buffer offset
    with a fixed-point iteration on the prefix sum of the deletion flags
    (each flagged video shifts every later video by two extra draws).  The
    iteration's fixed point satisfies exactly the sequential recurrence
    ``offset[i+1] = offset[i] + 1 + 2*flag(offset[i])``, i.e. it *is* the
    scalar parse; a scalar fallback guards the (never observed) case of
    non-convergence.  Finally the generator is rewound and exactly
    ``n + 2k`` doubles are consumed so that every subsequent draw sees the
    same state the scalar loop would have left behind.
    """
    if n == 0:
        return np.empty(0, dtype=np.float64)
    state = rng.bit_generator.state
    # Expected extra draws: 2 * DELETION_FRACTION * n; pad generously.
    buf = rng.random(n + 2 * (int(n * DELETION_FRACTION * 2) + 64))

    def ensure(buf: np.ndarray, needed: int) -> np.ndarray:
        while buf.shape[0] < needed:
            buf = np.concatenate([buf, rng.random(max(needed - buf.shape[0], 256))])
        return buf

    base = np.arange(n, dtype=np.int64)
    idx = base
    converged = False
    for _ in range(64):
        buf = ensure(buf, int(idx[-1]) + 3)
        flagged = buf[idx] < DELETION_FRACTION
        shift = np.zeros(n, dtype=np.int64)
        np.cumsum(2 * flagged[:-1], out=shift[1:])
        new_idx = base + shift
        if np.array_equal(new_idx, idx):
            converged = True
            break
        idx = new_idx
    if not converged:  # pragma: no cover - fixed point reached in practice
        idx = np.empty(n, dtype=np.int64)
        p = 0
        for i in range(n):
            buf = ensure(buf, p + 3)
            idx[i] = p
            p += 3 if buf[p] < DELETION_FRACTION else 1
        flagged = buf[idx] < DELETION_FRACTION

    positions = np.flatnonzero(flagged)
    k = int(positions.shape[0])
    u2 = buf[idx[positions] + 1]
    u3 = buf[idx[positions] + 2]

    # Rewind and consume exactly what the scalar loop consumed.
    rng.bit_generator.state = state
    rng.random(n + 2 * k)

    during = u2 < DELETE_DURING_CAMPAIGN
    delay = np.where(
        during,
        5 * 365.0 + (11 * 365.0 - 5 * 365.0) * u3,
        30.0 + (3.5 * 365.0 - 30.0) * u3,
    )
    out = np.full(n, np.nan, dtype=np.float64)
    out[positions] = delay
    return out


def deletion_datetimes(cols: VideoColumns) -> list[datetime | None]:
    """Exact deletion datetimes (``uploaded + timedelta(days=delay)``).

    Only the ~4.5% deleted rows pay the datetime arithmetic; everything
    else stays ``None``.
    """
    out: list[datetime | None] = [None] * cols.n
    for i in np.flatnonzero(~np.isnan(cols.del_delay_days)):
        out[int(i)] = from_epoch_us(int(cols.publish_us[i])) + timedelta(
            days=float(cols.del_delay_days[i])
        )
    return out


def video_from_row(
    spec: TopicSpec,
    cols: VideoColumns,
    row: int,
    video_id: str,
    channel_id: str,
    published_at: datetime,
    deleted_at: datetime | None,
) -> Video:
    """Materialize one video row into a :class:`Video` dataclass."""
    sub_i = int(cols.sub_idx[row])
    sub = spec.subtopics[sub_i].name if sub_i < len(spec.subtopics) else None
    title, description, tags = compose_text(
        spec, sub, TITLE_FILLER[cols.filler_idx[row]], DESCRIPTION_FILLER[cols.desc_idx[row]], row
    )
    return Video(
        video_id=video_id,
        channel_id=channel_id,
        title=title,
        description=description,
        tags=tags,
        published_at=published_at,
        duration_seconds=int(cols.duration_s[row]),
        definition=str(cols.definition[row]),
        category_id=spec.category_id,
        topic=spec.key,
        view_count=int(cols.views[row]),
        like_count=int(cols.likes[row]),
        comment_count=int(cols.comments[row]),
        deleted_at=deleted_at,
    )


class ColumnarCorpus:
    """The columnar world: typed arrays plus cached lazy materialization.

    All caches are guarded by one re-entrant lock so concurrent readers
    (the orchestrator's worker threads run campaigns over one shared
    world, hence one corpus) always observe a single materialized object
    per entity — callers rely on object identity for repeated lookups.
    """

    def __init__(self, seed: int, topics: dict[str, TopicColumns]) -> None:
        self.seed = seed
        self.topics = topics
        self._lock = threading.RLock()
        # Per-topic caches, keyed by topic key.
        self._video_ids: dict[str, list[str]] = {}
        self._channel_ids: dict[str, list[str]] = {}
        self._videos: dict[str, list[Video | None]] = {}
        self._channels: dict[str, list] = {}
        self._deleted_at: dict[str, list[datetime | None]] = {}
        self._deleted_us: dict[str, np.ndarray] = {}
        self._threads: dict[str, dict[int, list]] = {}
        # Every thread threads_for_row has materialized, by thread ID.
        self._thread_by_id: dict[str, CommentThread] = {}
        self._thread_vrow: dict[str, np.ndarray] = {}
        self._sorted_rows: dict[str, np.ndarray] = {}
        self._videos_for_topic: dict[str, list[Video]] = {}
        self._token_rows: dict[str, dict[str, np.ndarray]] = {}
        self._engine_cols: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Whole-corpus caches.
        self._video_locator: dict[str, tuple[str, int]] | None = None
        self._channel_locator: dict[str, tuple[str, int]] | None = None
        self._thread_locator: dict[str, tuple[str, int]] | None = None
        self._vocab_size: int | None = None

    # -- counts ---------------------------------------------------------------

    @property
    def with_comments(self) -> bool:
        return any(tc.threads is not None for tc in self.topics.values())

    @property
    def n_videos(self) -> int:
        return sum(tc.videos.n for tc in self.topics.values())

    @property
    def n_channels(self) -> int:
        return sum(tc.channels.n for tc in self.topics.values())

    @property
    def n_threads(self) -> int:
        return sum(
            tc.threads.n_threads for tc in self.topics.values() if tc.threads is not None
        )

    @property
    def n_replies(self) -> int:
        return sum(
            tc.threads.total_replies
            for tc in self.topics.values()
            if tc.threads is not None
        )

    # -- ID tables ------------------------------------------------------------

    def video_ids(self, key: str) -> list[str]:
        """All video IDs of a topic, in row (publish) order; minted once."""
        got = self._video_ids.get(key)
        if got is None:
            with self._lock:
                got = self._video_ids.get(key)
                if got is None:
                    tc = self.topics[key]
                    got = ids.video_ids(
                        self.seed, video_ordinal_base(tc.spec), tc.videos.n
                    )
                    self._video_ids[key] = got
        return got

    def channel_ids(self, key: str) -> list[str]:
        """All channel IDs of a topic, in row order; minted once."""
        got = self._channel_ids.get(key)
        if got is None:
            with self._lock:
                got = self._channel_ids.get(key)
                if got is None:
                    tc = self.topics[key]
                    got = ids.channel_ids(
                        self.seed, channel_ordinal_base(tc.spec), tc.channels.n
                    )
                    self._channel_ids[key] = got
        return got

    # -- deletion columns -----------------------------------------------------

    def deleted_at_list(self, key: str) -> list[datetime | None]:
        got = self._deleted_at.get(key)
        if got is None:
            with self._lock:
                got = self._deleted_at.get(key)
                if got is None:
                    got = deletion_datetimes(self.topics[key].videos)
                    self._deleted_at[key] = got
        return got

    def deleted_us(self, key: str) -> np.ndarray:
        """int64 deletion epochs per row; :data:`NEVER_US` for survivors."""
        got = self._deleted_us.get(key)
        if got is None:
            with self._lock:
                got = self._deleted_us.get(key)
                if got is None:
                    dl = self.deleted_at_list(key)
                    got = np.full(len(dl), NEVER_US, dtype=np.int64)
                    for i, d in enumerate(dl):
                        if d is not None:
                            got[i] = to_epoch_us(d)
                    self._deleted_us[key] = got
        return got

    # -- entity materialization ----------------------------------------------

    def video(self, key: str, row: int) -> Video:
        """Materialize (or fetch the cached) video at a topic row."""
        cache = self._videos.get(key)
        if cache is not None:
            got = cache[row]
            if got is not None:
                return got
        with self._lock:
            cache = self._videos.setdefault(key, [None] * self.topics[key].videos.n)
            got = cache[row]
            if got is None:
                tc = self.topics[key]
                got = video_from_row(
                    tc.spec,
                    tc.videos,
                    row,
                    self.video_ids(key)[row],
                    self.channel_ids(key)[int(tc.videos.channel_idx[row])],
                    from_epoch_us(int(tc.videos.publish_us[row])),
                    self.deleted_at_list(key)[row],
                )
                cache[row] = got
        return got

    def videos_all(self, key: str) -> list[Video]:
        """Materialize every video of a topic (row order), filling the cache."""
        with self._lock:
            tc = self.topics[key]
            cache = self._videos.setdefault(key, [None] * tc.videos.n)
            if any(v is None for v in cache):
                vids = self.video_ids(key)
                cids = self.channel_ids(key)
                deleted = self.deleted_at_list(key)
                cols = tc.videos
                spec = tc.spec
                channel_idx = cols.channel_idx
                publish_us = cols.publish_us
                for row in range(cols.n):
                    if cache[row] is None:
                        cache[row] = video_from_row(
                            spec,
                            cols,
                            row,
                            vids[row],
                            cids[int(channel_idx[row])],
                            from_epoch_us(int(publish_us[row])),
                            deleted[row],
                        )
            return list(cache)

    def channel(self, key: str, row: int):
        """Materialize (or fetch the cached) channel at a topic row."""
        cache = self._channels.get(key)
        if cache is not None:
            got = cache[row]
            if got is not None:
                return got
        with self._lock:
            cache = self._channels.setdefault(key, [None] * self.topics[key].channels.n)
            got = cache[row]
            if got is None:
                tc = self.topics[key]
                got = channel_from_row(
                    tc.spec, tc.channels, row, self.channel_ids(key)[row]
                )
                cache[row] = got
        return got

    def channels_all(self, key: str) -> list:
        """Materialize every channel of a topic (row order)."""
        with self._lock:
            tc = self.topics[key]
            cache = self._channels.setdefault(key, [None] * tc.channels.n)
            cids = self.channel_ids(key)
            for row in range(tc.channels.n):
                if cache[row] is None:
                    cache[row] = channel_from_row(tc.spec, tc.channels, row, cids[row])
            return list(cache)

    def threads_for_row(self, key: str, row: int) -> list:
        """Materialize (or fetch the cached) thread list of a video row."""
        cache = self._threads.get(key)
        if cache is not None:
            got = cache.get(row)
            if got is not None:
                return got
        with self._lock:
            cache = self._threads.setdefault(key, {})
            got = cache.get(row)
            if got is None:
                tc = self.topics[key]
                if tc.threads is None:
                    got = []
                else:
                    got = materialize_video_threads(
                        tc.spec,
                        self.seed,
                        tc.threads,
                        row,
                        self.video_ids(key)[row],
                        from_epoch_us(int(tc.videos.publish_us[row])),
                        thread_ordinal_base(tc.spec),
                    )
                cache[row] = got
                for thread in got:
                    self._thread_by_id[thread.thread_id] = thread
        return got

    # -- topic-level views ----------------------------------------------------

    def topic_sorted_rows(self, key: str) -> np.ndarray:
        """Row permutation sorting a topic by ``(published_at, video_id)``.

        Publish ties (same second) are broken by video ID, matching
        ``World.videos_for_topic`` exactly.
        """
        got = self._sorted_rows.get(key)
        if got is None:
            with self._lock:
                got = self._sorted_rows.get(key)
                if got is None:
                    tc = self.topics[key]
                    id_arr = np.array(self.video_ids(key))
                    got = np.lexsort((id_arr, tc.videos.publish_us))
                    self._sorted_rows[key] = got
        return got

    def videos_for_topic(self, key: str) -> list[Video]:
        """All of a topic's videos, ``(published_at, video_id)``-sorted."""
        got = self._videos_for_topic.get(key)
        if got is None:
            with self._lock:
                got = self._videos_for_topic.get(key)
                if got is None:
                    all_rows = self.videos_all(key)
                    got = [all_rows[int(r)] for r in self.topic_sorted_rows(key)]
                    self._videos_for_topic[key] = got
        return got

    def engine_columns(self, key: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pub_ts, del_ts, hour_of) arrays in ``videos_for_topic`` order.

        ``pub_ts``/``del_ts`` are float64 POSIX seconds (``inf`` for never
        deleted) and ``hour_of`` is the clamped window hour index — the
        exact values the sampling engine computed per video from the
        materialized dataclasses.
        """
        got = self._engine_cols.get(key)
        if got is None:
            with self._lock:
                got = self._engine_cols.get(key)
                if got is None:
                    tc = self.topics[key]
                    order = self.topic_sorted_rows(key)
                    pub_us = tc.videos.publish_us[order]
                    del_us = self.deleted_us(key)[order]
                    pub_ts = pub_us / 1e6
                    del_ts = np.where(del_us == NEVER_US, np.inf, del_us / 1e6)
                    start_us = to_epoch_us(tc.spec.window_start)
                    hour_of = np.clip(
                        (pub_us - start_us) // _US_PER_HOUR,
                        0,
                        tc.spec.window_hours - 1,
                    ).astype(np.int64)
                    got = (pub_ts, del_ts, hour_of)
                    self._engine_cols[key] = got
        return got

    # -- token index ----------------------------------------------------------

    def token_rows(self, key: str) -> dict[str, np.ndarray]:
        """Structural token -> row-array map for one topic.

        Tokens are derived per distinct (subtopic, title-filler,
        description-filler) combination — at most a few hundred per topic —
        by composing the combo's text once with a sentinel ordinal and
        tokenizing it.  Per-video ordinal tokens (``"0"``, ``"1"``, ...)
        are *not* listed here; lookups resolve them arithmetically.
        """
        got = self._token_rows.get(key)
        if got is None:
            with self._lock:
                got = self._token_rows.get(key)
                if got is None:
                    got = self._build_token_rows(key)
                    self._token_rows[key] = got
        return got

    def _build_token_rows(self, key: str) -> dict[str, np.ndarray]:
        from repro.world.store import tokenize

        tc = self.topics[key]
        cols = tc.videos
        spec = tc.spec
        n_fill = len(TITLE_FILLER)
        n_desc = len(DESCRIPTION_FILLER)
        gid = (cols.sub_idx * n_fill + cols.filler_idx) * n_desc + cols.desc_idx
        uniq, inv = np.unique(gid, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        counts = np.bincount(inv, minlength=uniq.shape[0])
        bounds = np.zeros(uniq.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        sentinel_token = str(_SENTINEL_ORDINAL)
        grouped: dict[str, list[np.ndarray]] = {}
        for ui in range(uniq.shape[0]):
            rows = order[bounds[ui] : bounds[ui + 1]]
            sub_i, rem = divmod(int(uniq[ui]), n_fill * n_desc)
            fil_i, des_i = divmod(rem, n_desc)
            sub = spec.subtopics[sub_i].name if sub_i < len(spec.subtopics) else None
            title, description, tags = compose_text(
                spec, sub, TITLE_FILLER[fil_i], DESCRIPTION_FILLER[des_i], _SENTINEL_ORDINAL
            )
            text = " ".join((title, description, " ".join(tags))).lower()
            tokens = set(tokenize(text))
            tokens.discard(sentinel_token)
            for token in tokens:
                grouped.setdefault(token, []).append(rows)
        return {
            token: parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
            for token, parts in grouped.items()
        }

    def vocabulary_size(self) -> int:
        """Number of distinct tokens across the whole corpus.

        Equals what a full tokenize scan of every video's searchable text
        finds: structural tokens from the combo texts, plus one ordinal
        token per row up to the largest topic (ordinal tokens that also
        appear structurally — e.g. a year inside a query — are not double
        counted).
        """
        if self._vocab_size is None:
            with self._lock:
                if self._vocab_size is None:
                    vocab: set[str] = set()
                    max_n = 0
                    for key, tc in self.topics.items():
                        vocab.update(self.token_rows(key))
                        max_n = max(max_n, tc.videos.n)
                    extra = sum(
                        1
                        for t in vocab
                        if not (t.isdigit() and str(int(t)) == t and int(t) < max_n)
                    )
                    self._vocab_size = max_n + extra
        return self._vocab_size

    # -- whole-corpus locators ------------------------------------------------

    def video_locator(self) -> dict[str, tuple[str, int]]:
        """video_id -> (topic key, row); built on first by-ID access."""
        if self._video_locator is None:
            with self._lock:
                if self._video_locator is None:
                    loc: dict[str, tuple[str, int]] = {}
                    for key in self.topics:
                        for row, vid in enumerate(self.video_ids(key)):
                            loc[vid] = (key, row)
                    self._video_locator = loc
        return self._video_locator

    def channel_locator(self) -> dict[str, tuple[str, int]]:
        """channel_id -> (topic key, row)."""
        if self._channel_locator is None:
            with self._lock:
                if self._channel_locator is None:
                    loc: dict[str, tuple[str, int]] = {}
                    for key in self.topics:
                        for row, cid in enumerate(self.channel_ids(key)):
                            loc[cid] = (key, row)
                    self._channel_locator = loc
        return self._channel_locator

    def thread(self, thread_id: str) -> CommentThread | None:
        """The comment thread with this ID, or None.

        A thread whose video's threads are already materialized is found
        without minting any ID; only a miss builds :meth:`thread_locator`.
        """
        got = self._thread_by_id.get(thread_id)
        if got is None:
            loc = self.thread_locator().get(thread_id)
            if loc is not None:
                self.threads_for_row(*loc)
                got = self._thread_by_id.get(thread_id)
        return got

    def thread_locator(self) -> dict[str, tuple[str, int]]:
        """thread_id -> (topic key, video row); mints all thread IDs."""
        if self._thread_locator is None:
            with self._lock:
                if self._thread_locator is None:
                    loc: dict[str, tuple[str, int]] = {}
                    for key, tc in self.topics.items():
                        if tc.threads is None:
                            continue
                        vrow = self._thread_vrows(key)
                        tids = ids.comment_ids(
                            self.seed, thread_ordinal_base(tc.spec), tc.threads.n_threads
                        )
                        for t, tid in enumerate(tids):
                            loc[tid] = (key, int(vrow[t]))
                    self._thread_locator = loc
        return self._thread_locator

    def _thread_vrows(self, key: str) -> np.ndarray:
        got = self._thread_vrow.get(key)
        if got is None:
            tc = self.topics[key]
            got = np.repeat(
                np.arange(tc.threads.counts.shape[0], dtype=np.int64), tc.threads.counts
            )
            self._thread_vrow[key] = got
        return got

    # -- static metadata by ID (CampaignIndex fast feed) ----------------------

    def video_static(self, video_id: str) -> tuple[int, str] | None:
        """(duration_seconds, definition) for a video ID, or None."""
        loc = self.video_locator().get(video_id)
        if loc is None:
            return None
        key, row = loc
        cols = self.topics[key].videos
        return int(cols.duration_s[row]), str(cols.definition[row])

    def channel_static(self, channel_id: str) -> tuple[datetime, int, int, int] | None:
        """(created_at, view_count, subscriber_count, video_count) or None."""
        loc = self.channel_locator().get(channel_id)
        if loc is None:
            return None
        key, row = loc
        chan = self.channel(key, row)
        return chan.created_at, chan.view_count, chan.subscriber_count, chan.video_count


class _LazyMapping(Mapping):
    """Shared plumbing for the lazy ``World`` mappings."""

    __slots__ = ("_corpus",)

    def __init__(self, corpus: ColumnarCorpus) -> None:
        self._corpus = corpus

    def get(self, key, default=None):
        # Concrete override of Mapping.get: the ABC mixin adds two extra
        # Python frames per lookup, and ``store.video``/``store.channel``
        # funnel every endpoint's entity fetch through here.
        try:
            return self[key]
        except KeyError:
            return default

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq


class _LazyVideos(_LazyMapping):
    """``world.videos``: id -> lazily materialized Video."""

    def __getitem__(self, video_id: str) -> Video:
        key, row = self._corpus.video_locator()[video_id]
        return self._corpus.video(key, row)

    def __contains__(self, video_id: object) -> bool:
        return video_id in self._corpus.video_locator()

    def __iter__(self) -> Iterator[str]:
        for key in self._corpus.topics:
            yield from self._corpus.video_ids(key)

    def __len__(self) -> int:
        return self._corpus.n_videos

    def values(self) -> list[Video]:
        out: list[Video] = []
        for key in self._corpus.topics:
            out.extend(self._corpus.videos_all(key))
        return out

    def items(self) -> list[tuple[str, Video]]:
        out: list[tuple[str, Video]] = []
        for key in self._corpus.topics:
            out.extend(zip(self._corpus.video_ids(key), self._corpus.videos_all(key)))
        return out


class _LazyChannels(_LazyMapping):
    """``world.channels``: id -> lazily materialized Channel."""

    def __getitem__(self, channel_id: str):
        key, row = self._corpus.channel_locator()[channel_id]
        return self._corpus.channel(key, row)

    def __contains__(self, channel_id: object) -> bool:
        return channel_id in self._corpus.channel_locator()

    def __iter__(self) -> Iterator[str]:
        for key in self._corpus.topics:
            yield from self._corpus.channel_ids(key)

    def __len__(self) -> int:
        return self._corpus.n_channels

    def values(self) -> list:
        out: list = []
        for key in self._corpus.topics:
            out.extend(self._corpus.channels_all(key))
        return out

    def items(self) -> list:
        out: list = []
        for key in self._corpus.topics:
            out.extend(zip(self._corpus.channel_ids(key), self._corpus.channels_all(key)))
        return out


class _LazyThreads(_LazyMapping):
    """``world.threads_by_video``: video id -> lazily materialized threads.

    Mirrors the eager builder: when the world was built with comments,
    every video ID is a key (possibly with an empty thread list); without
    comments the mapping is empty.
    """

    def _has_comments(self) -> bool:
        return self._corpus.with_comments

    def __getitem__(self, video_id: str) -> list:
        if not self._has_comments():
            raise KeyError(video_id)
        key, row = self._corpus.video_locator()[video_id]
        return self._corpus.threads_for_row(key, row)

    def __contains__(self, video_id: object) -> bool:
        return self._has_comments() and video_id in self._corpus.video_locator()

    def __iter__(self) -> Iterator[str]:
        if not self._has_comments():
            return
        for key in self._corpus.topics:
            yield from self._corpus.video_ids(key)

    def __len__(self) -> int:
        return self._corpus.n_videos if self._has_comments() else 0


class ColumnarWorld(World):
    """A :class:`World` whose entity mappings materialize lazily.

    Drop-in compatible with the eager ``World``: same mapping surfaces,
    same iteration orders, equal entities — but building one costs array
    draws only, and entities are built (then cached) on first touch.  The
    backing :class:`ColumnarCorpus` is exposed as ``.corpus`` for columnar
    consumers (:class:`~repro.world.store.PlatformStore`, the sampling
    engine, ``CampaignIndex``).
    """

    def __init__(self, corpus: ColumnarCorpus) -> None:
        super().__init__(
            seed=corpus.seed,
            channels=_LazyChannels(corpus),
            videos=_LazyVideos(corpus),
            threads_by_video=_LazyThreads(corpus),
            topic_names=tuple(corpus.topics),
        )
        self.corpus = corpus

    def videos_for_topic(self, topic: str) -> list[Video]:
        """All videos generated for a topic, sorted by upload time."""
        if topic in self.corpus.topics:
            return list(self.corpus.videos_for_topic(topic))
        return []

    def summary(self) -> dict[str, int]:
        """Entity counts from the columns — no materialization needed."""
        return {
            "channels": self.corpus.n_channels,
            "videos": self.corpus.n_videos,
            "threads": self.corpus.n_threads,
            "replies": self.corpus.n_replies,
            "topics": len(self.topic_names),
        }
