"""Comment thread generation.

Comment volume tracks each video's ``comment_count`` metric (capped so the
simulation stays laptop-scale), timestamps concentrate shortly after upload
(the paper's comment audit cuts at focal date + 3 weeks to let comments
consolidate), and a small deletion hazard creates the sub-1.0 Jaccard
values of Table 5's shared-video columns.  Topics with ``replies_enabled``
False (Higgs, 2012) generate no nested replies, reproducing the table's
N/A cells.

The draw step is *phase-batched*: instead of interleaving per-thread scalar
draws, :func:`draw_thread_columns` draws each quantity (thread counts, gap
seconds, author/phrase/like indices, deletion hazards, reply fans) as one
whole-topic array in a fixed canonical phase order.  The columnar corpus
materializes one video's threads from these columns on demand
(:func:`materialize_video_threads`).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from repro.util.rng import stable_hash
from repro.world import ids
from repro.world.entities import Comment, CommentThread
from repro.world.topics import TopicSpec

__all__ = [
    "ThreadColumns",
    "draw_thread_columns",
    "materialize_video_threads",
    "thread_ordinal_base",
]

_MAX_THREADS_PER_VIDEO = 36
_MAX_REPLIES_PER_THREAD = 8
_DELETION_HAZARD = 0.012  # fraction of comments eventually deleted

_PHRASES = (
    "this is huge", "great coverage", "thanks for sharing", "unbelievable",
    "watching from home", "first", "cannot believe this happened",
    "well explained", "the audio is off", "what a moment", "history in the making",
    "who else is here", "respect", "this aged well", "source please",
)
_AUTHORS = (
    "alex", "sam", "jordan", "casey", "riley", "morgan", "taylor", "devon",
    "quinn", "avery", "kai", "rowan", "lee", "noor", "mira",
)


@dataclass
class ThreadColumns:
    """Typed per-topic comment columns.

    ``counts`` has one row per video; the ``top_*`` arrays have one row per
    thread (video-major order, the same order thread ordinals are assigned
    in); the ``rep_*`` arrays have one row per reply (thread-major order).
    ``t_start``/``r_start`` are prefix-sum offsets: video ``v`` owns threads
    ``t_start[v]:t_start[v+1]`` and thread ``t`` owns replies
    ``r_start[t]:r_start[t+1]``.  Deletion delays are ``NaN`` for comments
    that are never deleted.
    """

    counts: np.ndarray  # int64, per video
    t_start: np.ndarray  # int64, per video + 1
    top_gap_s: np.ndarray  # float64, per thread (includes the +60 s floor)
    top_author: np.ndarray  # int64, per thread
    top_phrase: np.ndarray  # int64, per thread
    top_like: np.ndarray  # int64, per thread
    top_del_days: np.ndarray  # float64, per thread, NaN = never deleted
    n_replies: np.ndarray  # int64, per thread
    r_start: np.ndarray  # int64, per thread + 1
    rep_gap_s: np.ndarray  # float64, per reply (includes the +30 s floor)
    rep_author: np.ndarray  # int64, per reply
    rep_phrase: np.ndarray  # int64, per reply
    rep_like: np.ndarray  # int64, per reply
    rep_del_days: np.ndarray  # float64, per reply, NaN = never deleted

    @property
    def n_threads(self) -> int:
        return int(self.top_gap_s.shape[0])

    @property
    def total_replies(self) -> int:
        return int(self.rep_gap_s.shape[0])


def draw_thread_columns(
    spec: TopicSpec, comment_counts: np.ndarray, rng: np.random.Generator
) -> ThreadColumns:
    """Draw one topic's comment columns in canonical phase order.

    Phases: thread counts per video -> top-level gap seconds -> author ->
    phrase -> like counts -> deletion hazard (delays drawn for flagged
    threads, in flag order) -> reply fan-out -> the same phases for replies.
    """
    base = np.minimum(comment_counts, 400) / 400.0
    lam = spec.comment_rate * (0.25 + 1.75 * base)
    counts = np.minimum(rng.poisson(lam), _MAX_THREADS_PER_VIDEO).astype(np.int64)
    t_start = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=t_start[1:])
    total = int(t_start[-1])

    top_gap_s = rng.exponential(2.0 * 86400.0, size=total) + 60.0
    top_author = rng.integers(0, len(_AUTHORS), size=total)
    top_phrase = rng.integers(0, len(_PHRASES), size=total)
    top_like = rng.integers(0, 50, size=total)
    top_del_days = _deletion_delays(total, rng)

    if spec.replies_enabled:
        n_replies = np.minimum(
            rng.geometric(0.55, size=total) - 1, _MAX_REPLIES_PER_THREAD
        ).astype(np.int64)
    else:
        n_replies = np.zeros(total, dtype=np.int64)
    r_start = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(n_replies, out=r_start[1:])
    n_rep = int(r_start[-1])

    if n_rep:
        rep_gap_s = rng.exponential(0.5 * 86400.0, size=n_rep) + 30.0
        rep_author = rng.integers(0, len(_AUTHORS), size=n_rep)
        rep_phrase = rng.integers(0, len(_PHRASES), size=n_rep)
        rep_like = rng.integers(0, 12, size=n_rep)
        rep_del_days = _deletion_delays(n_rep, rng)
    else:
        rep_gap_s = np.empty(0, dtype=np.float64)
        rep_author = np.empty(0, dtype=np.int64)
        rep_phrase = np.empty(0, dtype=np.int64)
        rep_like = np.empty(0, dtype=np.int64)
        rep_del_days = np.empty(0, dtype=np.float64)

    return ThreadColumns(
        counts=counts,
        t_start=t_start,
        top_gap_s=top_gap_s,
        top_author=top_author,
        top_phrase=top_phrase,
        top_like=top_like,
        top_del_days=top_del_days,
        n_replies=n_replies,
        r_start=r_start,
        rep_gap_s=rep_gap_s,
        rep_author=rep_author,
        rep_phrase=rep_phrase,
        rep_like=rep_like,
        rep_del_days=rep_del_days,
    )


def _deletion_delays(n: int, rng: np.random.Generator) -> np.ndarray:
    """Deletion delay days per comment: NaN survives, flagged rows get a delay.

    Hazard uniforms are one batch; delay uniforms are one batch over the
    flagged rows in flag order.
    """
    out = np.full(n, np.nan, dtype=np.float64)
    if n:
        flagged = rng.random(n) < _DELETION_HAZARD
        k = int(np.count_nonzero(flagged))
        if k:
            out[flagged] = rng.uniform(60.0, 4000.0, size=k)
    return out


def thread_ordinal_base(spec: TopicSpec) -> int:
    """Topic-scoped ordinal base so thread IDs never collide across topics."""
    return stable_hash("thread-ordinal", spec.key) % 10**9


def materialize_video_threads(
    spec: TopicSpec,
    seed: int,
    cols: ThreadColumns,
    video_row: int,
    video_id: str,
    published_at: datetime,
    ordinal_base: int,
) -> list[CommentThread]:
    """Materialize one video's threads from the columns.

    Thread ordinals are global within the topic (``ordinal_base`` plus the
    thread's video-major position), so a video's thread IDs do not depend
    on which other videos were materialized first.  Threads are returned
    sorted by ``(top-level publish time, thread id)``, the API's stable
    order.
    """
    lo = int(cols.t_start[video_row])
    hi = int(cols.t_start[video_row + 1])
    threads: list[CommentThread] = []
    for t in range(lo, hi):
        thread_id = ids.comment_id(seed, ordinal_base + t)
        top_time = published_at + timedelta(seconds=float(cols.top_gap_s[t]))
        top = Comment(
            comment_id=thread_id,
            video_id=video_id,
            parent_id=None,
            author_display_name=_AUTHORS[cols.top_author[t]],
            text=_PHRASES[cols.top_phrase[t]],
            published_at=top_time,
            like_count=int(cols.top_like[t]),
            deleted_at=_deleted_at(top_time, float(cols.top_del_days[t])),
        )
        replies: list[Comment] = []
        reply_time = top_time
        for r in range(int(cols.r_start[t]), int(cols.r_start[t + 1])):
            j = r - int(cols.r_start[t])
            reply_time = reply_time + timedelta(seconds=float(cols.rep_gap_s[r]))
            replies.append(
                Comment(
                    comment_id=ids.reply_id(thread_id, j),
                    video_id=video_id,
                    parent_id=thread_id,
                    author_display_name=_AUTHORS[cols.rep_author[r]],
                    text=_PHRASES[cols.rep_phrase[r]],
                    published_at=reply_time,
                    like_count=int(cols.rep_like[r]),
                    deleted_at=_deleted_at(reply_time, float(cols.rep_del_days[r])),
                )
            )
        threads.append(
            CommentThread(
                thread_id=thread_id, video_id=video_id, top_level=top, replies=replies
            )
        )
    threads.sort(key=lambda t: (t.top_level.published_at, t.thread_id))
    return threads


def _deleted_at(published_at: datetime, delay_days: float) -> datetime | None:
    if delay_days != delay_days:  # NaN: never deleted
        return None
    return published_at + timedelta(days=delay_days)

