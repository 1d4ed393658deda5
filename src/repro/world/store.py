"""Indexed, time-aware access to the generated world.

The store is the only surface the API simulator reads from.  It provides:

* token-indexed candidate lookup for keyword search (with phrase and
  exclusion support handled by :mod:`repro.api.matching` on top);
* existence filtering *as of* a request date (uploads in the future and
  deleted videos are invisible);
* metric growth: the entity metrics are asymptotic totals, scaled down by a
  saturating growth curve for reads early in a video's life;
* channel uploads as playlists (for ``PlaylistItems:list``);
* comment threads with deletion filtering.

Every index is derived from the world's
:class:`~repro.world.columnar.ColumnarCorpus` typed arrays: window queries
run ``np.searchsorted`` over one globally publish-sorted epoch array with
alive-at masks, uploads come from per-channel position arrays, and the
token index is synthesized from the per-combination token tables with
per-token lazy posting materialization.  Nothing per-entity happens at
construction time.  ``tests/test_world_columnar.py`` checks each index
against a brute-force scan of the materialized world.
"""

from __future__ import annotations

import re
import threading
from datetime import datetime

import numpy as np

from repro.util.timeutil import to_epoch_us
from repro.world.columnar import ColumnarWorld
from repro.world.entities import Channel, Comment, CommentThread, Video

__all__ = ["PlatformStore", "tokenize"]

_TOKEN_RE = re.compile(r"[a-z0-9']+")

#: Michaelis-Menten half-life (days) of the metric growth curve.
_GROWTH_HALF_LIFE_DAYS = 21.0


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens of a text fragment."""
    return _TOKEN_RE.findall(text.lower())


def growth_factor(age_days: float) -> float:
    """Fraction of asymptotic engagement accrued after ``age_days`` days.

    A saturating curve with a 21-day half-life: videos a year old sit at
    ~95% of their final metrics, so historical audits see near-stable
    values, while fresh videos visibly grow between snapshots.
    """
    if age_days <= 0:
        return 0.0
    return age_days / (age_days + _GROWTH_HALF_LIFE_DAYS)


class PlatformStore:
    """Read-side indexes over a :class:`~repro.world.columnar.ColumnarWorld`."""

    def __init__(self, world: ColumnarWorld) -> None:
        self._world = world
        self._videos = world.videos
        self._channels = world.channels
        self._threads_by_video = world.threads_by_video
        self.corpus = world.corpus
        self._lock = threading.RLock()
        # Everything below materializes lazily on first use.
        self._search_text: dict[str, str] = {}
        self._token_sets: dict[str, frozenset[str]] = {}
        self._posting_cache: dict[str, frozenset[str]] = {}
        self._all_ids_cache: frozenset[str] | None = None
        # Global time index: one publish-sorted epoch array over all topics.
        self._tm_pub: np.ndarray | None = None
        self._tm_del: np.ndarray | None = None
        self._tm_topic: np.ndarray | None = None
        self._tm_row: np.ndarray | None = None
        self._topic_keys: tuple[str, ...] = tuple(self.corpus.topics)
        # Per-channel upload positions into the time index.
        self._upload_positions: np.ndarray | None = None
        self._upload_bounds: np.ndarray | None = None
        self._channel_gidx_base: dict[str, int] = {}
        # Canonical JSON texts of each entity's static resource parts
        # (entity ID -> texts), filled by repro.api.resources on first
        # render.  Texts are immutable and a racing double render writes
        # the same value, so they need no lock.
        self.video_texts: dict[str, tuple[str, ...]] = {}
        self.channel_texts: dict[str, tuple[str, ...]] = {}

    # -- basic lookups ------------------------------------------------------

    @property
    def world(self) -> ColumnarWorld:
        """The underlying world (ground truth for strategy evaluation)."""
        return self._world

    def video(self, video_id: str) -> Video | None:
        """Video by ID, or None if it never existed."""
        return self._videos.get(video_id)

    def channel(self, channel_id: str) -> Channel | None:
        """Channel by ID, or None."""
        return self._channels.get(channel_id)

    def channel_for_playlist(self, playlist_id: str) -> Channel | None:
        """Resolve an uploads playlist ID back to its channel."""
        # Uploads playlists share the channel ID suffix (UU... -> UC...),
        # so the resolution is arithmetic — no mapping to build.
        if not (isinstance(playlist_id, str) and playlist_id.startswith("UU")):
            return None
        return self._channels.get("UC" + playlist_id[2:])

    def thread(self, thread_id: str) -> CommentThread | None:
        """Comment thread by ID, or None."""
        return self.corpus.thread(thread_id)

    # -- search-side queries -------------------------------------------------

    def candidates_for_tokens(self, tokens: list[str]) -> set[str]:
        """Video IDs whose token set contains every token (AND semantics).

        An empty token list returns a *shared frozen set* of the whole
        corpus — callers must treat it as read-only (the matching layer
        only materializes a mutable set when it actually filters).
        """
        if not tokens:
            return self._all_ids()
        sets = []
        for token in tokens:
            postings = self._posting(token)
            if not postings:
                return set()
            sets.append(postings)
        sets.sort(key=len)
        result = set(sets[0])
        for postings in sets[1:]:
            result &= postings
            if not result:
                break
        return result

    def _all_ids(self) -> frozenset[str]:
        got = self._all_ids_cache
        if got is None:
            with self._lock:
                got = self._all_ids_cache
                if got is None:
                    all_ids: list[str] = []
                    for key in self._topic_keys:
                        all_ids.extend(self.corpus.video_ids(key))
                    got = frozenset(all_ids)
                    self._all_ids_cache = got
        return got

    def _posting(self, token: str):
        """The posting set of one token (materialized lazily, per token)."""
        got = self._posting_cache.get(token)
        if got is None:
            with self._lock:
                got = self._posting_cache.get(token)
                if got is None:
                    members: set[str] = set()
                    for key in self._topic_keys:
                        rows = self.corpus.token_rows(key).get(token)
                        if rows is not None:
                            vids = self.corpus.video_ids(key)
                            members.update(vids[int(r)] for r in rows)
                    if token.isdigit() and str(int(token)) == token:
                        # Per-video ordinal tokens resolve arithmetically.
                        row = int(token)
                        for key, tc in self.corpus.topics.items():
                            if row < tc.videos.n:
                                members.add(self.corpus.video_ids(key)[row])
                    got = frozenset(members)
                    self._posting_cache[token] = got
        return got

    def search_text(self, video_id: str) -> str:
        """The lowercased searchable text of a video (title+description+tags)."""
        got = self._search_text.get(video_id)
        if got is None:
            got = self._materialize_text(video_id)[0]
        return got

    def token_set(self, video_id: str) -> frozenset[str]:
        """The token set of a video's searchable text."""
        got = self._token_sets.get(video_id)
        if got is None:
            got = self._materialize_text(video_id)[1]
        return got

    def _materialize_text(self, video_id: str) -> tuple[str, frozenset[str]]:
        video = self._videos[video_id]  # KeyError for unknown ids, as before
        text = " ".join((video.title, video.description, " ".join(video.tags)))
        lowered = text.lower()
        tokens = frozenset(tokenize(lowered))
        with self._lock:
            self._search_text[video_id] = lowered
            self._token_sets[video_id] = tokens
        return lowered, tokens

    # -- window queries -------------------------------------------------------

    def videos_in_window(
        self,
        published_after: datetime | None,
        published_before: datetime | None,
        as_of: datetime,
    ) -> list[Video]:
        """Videos uploaded in ``[after, before)`` and alive at ``as_of``.

        The interval is half-open, exactly as the parameter names promise:
        a video published at the ``published_before`` instant is excluded
        (this matches the sampling engine's window arithmetic).  Videos
        come in ``(published_at, video_id)`` order.
        """
        self._ensure_time_index()
        lo = 0
        hi = self._tm_pub.shape[0]
        if published_after is not None:
            lo = int(np.searchsorted(self._tm_pub, to_epoch_us(published_after), "left"))
        if published_before is not None:
            hi = int(np.searchsorted(self._tm_pub, to_epoch_us(published_before), "left"))
        if hi <= lo:
            return []
        as_us = to_epoch_us(as_of)
        window_pub = self._tm_pub[lo:hi]
        window_del = self._tm_del[lo:hi]
        alive = (window_pub <= as_us) & (window_del > as_us)
        return [self._video_at(int(p)) for p in lo + np.flatnonzero(alive)]

    def _video_at(self, position: int) -> Video:
        key = self._topic_keys[int(self._tm_topic[position])]
        return self.corpus.video(key, int(self._tm_row[position]))

    def _ensure_time_index(self) -> None:
        if self._tm_pub is not None:
            return
        with self._lock:
            if self._tm_pub is not None:
                return
            corpus = self.corpus
            pubs = []
            dels = []
            topic_is = []
            rows = []
            id_chunks = []
            for ti, key in enumerate(self._topic_keys):
                cols = corpus.topics[key].videos
                pubs.append(cols.publish_us)
                dels.append(corpus.deleted_us(key))
                topic_is.append(np.full(cols.n, ti, dtype=np.int32))
                rows.append(np.arange(cols.n, dtype=np.int64))
                id_chunks.append(np.array(corpus.video_ids(key)))
            all_pub = np.concatenate(pubs) if pubs else np.empty(0, np.int64)
            all_ids = (
                np.concatenate(id_chunks) if id_chunks else np.empty(0, dtype="U11")
            )
            # Publish-sorted with a video-ID tie break: the global
            # ``(published_at, video_id)`` order.
            order = np.lexsort((all_ids, all_pub))
            self._tm_del = np.concatenate(dels)[order] if dels else np.empty(0, np.int64)
            self._tm_topic = (
                np.concatenate(topic_is)[order] if topic_is else np.empty(0, np.int32)
            )
            self._tm_row = (
                np.concatenate(rows)[order] if rows else np.empty(0, np.int64)
            )
            self._tm_pub = all_pub[order]

    # -- channel uploads ------------------------------------------------------

    def uploads(self, channel_id: str, as_of: datetime) -> list[Video]:
        """A channel's uploads playlist: alive videos, newest first.

        Answered from per-channel publish-sorted epoch arrays with a
        vectorized alive-at mask — no per-call Python filtering over the
        full upload list.
        """
        as_us = to_epoch_us(as_of)
        loc = self.corpus.channel_locator().get(channel_id)
        if loc is None:
            return []
        self._ensure_uploads_index()
        gidx = self._channel_gidx_base[loc[0]] + loc[1]
        lo = int(self._upload_bounds[gidx])
        hi = int(self._upload_bounds[gidx + 1])
        if hi <= lo:
            return []
        positions = self._upload_positions[lo:hi]
        alive = (self._tm_pub[positions] <= as_us) & (self._tm_del[positions] > as_us)
        # Stored oldest-first; playlists list newest first.
        return [self._video_at(int(p)) for p in positions[alive][::-1]]

    def _ensure_uploads_index(self) -> None:
        if self._upload_positions is not None:
            return
        self._ensure_time_index()
        with self._lock:
            if self._upload_positions is not None:
                return
            corpus = self.corpus
            base = 0
            gidx_base: dict[str, int] = {}
            for key in self._topic_keys:
                gidx_base[key] = base
                base += corpus.topics[key].channels.n
            total_channels = base
            if total_channels and self._tm_pub.shape[0]:
                # Channel of each time-index position, then group by channel
                # while preserving publish order within each group.
                gidx = np.empty(self._tm_pub.shape[0], dtype=np.int64)
                for ti, key in enumerate(self._topic_keys):
                    mask = self._tm_topic == ti
                    gidx[mask] = (
                        gidx_base[key]
                        + corpus.topics[key].videos.channel_idx[self._tm_row[mask]]
                    )
                positions = np.argsort(gidx, kind="stable")
                counts = np.bincount(gidx, minlength=total_channels)
            else:  # pragma: no cover - empty world
                positions = np.empty(0, np.int64)
                counts = np.zeros(total_channels, np.int64)
            bounds = np.zeros(total_channels + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            self._channel_gidx_base = gidx_base
            self._upload_bounds = bounds
            self._upload_positions = positions

    # -- comments --------------------------------------------------------------

    def threads_for_video(self, video_id: str, as_of: datetime) -> list[CommentThread]:
        """Threads on a video visible at ``as_of``.

        A thread disappears with its top-level comment (as on the real
        platform); surviving threads have their replies filtered to those
        alive at ``as_of``.
        """
        visible: list[CommentThread] = []
        for thread in self._threads_by_video.get(video_id, []):
            if not thread.top_level.alive_at(as_of):
                continue
            replies = [r for r in thread.replies if r.alive_at(as_of)]
            visible.append(
                CommentThread(
                    thread_id=thread.thread_id,
                    video_id=thread.video_id,
                    top_level=thread.top_level,
                    replies=replies,
                )
            )
        return visible

    def replies_for_thread(self, thread_id: str, as_of: datetime) -> list[Comment]:
        """Alive replies of a thread at ``as_of`` (Comments:list semantics)."""
        thread = self.thread(thread_id)
        if thread is None:
            return []
        return [r for r in thread.replies if r.alive_at(as_of)]

    # -- time-dependent metrics -------------------------------------------------

    def metrics_at(self, video: Video, when: datetime) -> tuple[int, int, int]:
        """(views, likes, comments) of a video as of ``when``."""
        age_days = (when - video.published_at).total_seconds() / 86400.0
        g = growth_factor(age_days)
        return (
            int(round(video.view_count * g)),
            int(round(video.like_count * g)),
            int(round(video.comment_count * g)),
        )

    def summary(self) -> dict[str, int]:
        """Index sizes, for logging."""
        return {
            "videos": self.corpus.n_videos,
            "channels": self.corpus.n_channels,
            "tokens": self.corpus.vocabulary_size(),
            "threads": self.corpus.n_threads,
        }
