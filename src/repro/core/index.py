"""Columnar campaign index: the one implementation of the batch analyses.

Every batch analysis — consistency (Figure 1), attrition (Figure 3),
pools (Table 4), the return-likelihood tables (3/6/7), the report and
export bundles — consumes a :class:`~repro.core.datasets.CampaignResult`.
Re-deriving Python ``set``s, per-video ``"PAPA…"`` strings and merged
metadata dicts from raw JSON on every call would dominate analysis wall
time at the paper's census scale (six topics x 16 collections x ~672
hour bins), and ``repro analyze --all`` plus an export asks the same
questions half a dozen times.

:class:`CampaignIndex` decodes a campaign **once** into columnar form:

* an interned video-ID table per topic (``str <-> int32`` rows, sorted —
  so every per-video output follows the sorted video IDs);
* a packed boolean presence matrix ``present[n_videos, n_collections]``;
* a parallel ``hour_of[n_videos, n_collections]`` int32 matrix (the hour
  bin each video was returned in; ``-1`` when absent) that, together with
  the per-collection ``missing_hours`` tuples, lets gap-aware comparisons
  mask degraded hour bins without re-touching the raw per-hour dicts;
* columnar regression metadata (duration, definition, view/like/comment
  counts, channel age/views/subs/uploads) decoded once from the merged
  first-seen-wins captures: the merge keeps resource texts, and only the
  surviving ones are parsed;
* the flat list of ``totalResults`` pool draws per topic.

The analyses then run as vectorized kernels: pairwise and first-vs-t
Jaccard, lost/gained set differences, and the full pairwise Jaccard
matrix are boolean matrix ops; second-order Markov transition counts are
a base-2 window encoding folded with ``np.bincount`` and fed to
:func:`repro.stats.markov.chain_from_counts`; regression records are
assembled from the columnar arrays instead of per-video dict probing.
The public functions in :mod:`repro.core.consistency`,
:mod:`repro.core.attrition`, :mod:`repro.core.pools` and
:mod:`repro.core.returnmodel` delegate here.

**Pinned answers.**  ``tests/golden/analysis_outputs.json`` records
every reader's answer — error messages and the ``skip_degraded`` /
``missing_hours`` semantics included — on hand-built degraded and
multi-bin campaigns, seeded random campaigns at every prefix, and a
simulated campaign.  They were recorded from the set-based
implementations this index replaced, which it matched exactly.

Sharing: :func:`campaign_index` caches the index on the campaign object,
keyed by a structural fingerprint (snapshot identities and per-topic
shapes), so the report, export, replication, and CLI layers all reuse
one build.  The fingerprint detects snapshots being added, replaced, or
reshaped; it deliberately does not hash every ID (that would cost as
much as the build), so in-place mutation of an existing hour's ID list
is the caller's responsibility — analyses treat campaigns as immutable.

Incremental growth: :meth:`CampaignIndex.append_snapshot` extends the
presence/hour-bin matrices and the interned tables by one collection in
O(delta) — new video IDs are merged into the sorted row order with
``np.insert`` at bisect positions, existing rows keep their relative
order, and only the new column is decoded.  :func:`campaign_index`
recognises when a cached fingerprint is a strict prefix of the new one
(snapshots appended, nothing replaced) and extends the cached index in
place instead of rebuilding; :meth:`CampaignIndex.incremental` starts an
empty index for feeds that never retain raw snapshots at all (the
``repro.core.spill`` store, ``CampaignStream``).  The incremental path
is pinned structurally equal to a one-shot :meth:`build` after every
prefix by ``tests/test_index_incremental.py``.

Memory: per topic the index holds one bool and one int32 matrix of shape
``(n_videos, n_collections)`` plus the interning dict — about 5 MB per
100k videos at 16 collections — and the decoded metadata columns.  It
never copies the raw per-hour dicts or comment captures.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.datasets import CampaignResult
from repro.obs.observer import Observer
from repro.stats.markov import chain_from_counts
from repro.util.jsonio import CapturedResources
from repro.util.timeutil import parse_iso8601_duration, parse_rfc3339

__all__ = ["CampaignIndex", "TopicIndex", "campaign_index"]

#: ASCII codes for the presence alphabet (`attrition.PRESENT`/`ABSENT`).
_ORD_P, _ORD_A = ord("P"), ord("A")


def _fingerprint(campaign: CampaignResult) -> tuple:
    """Structural fingerprint of a campaign (cheap: no content hashing).

    Captures topic keys, snapshot identities, and per-topic shapes
    (hour-bin count, missing hours, metadata sizes) — everything that
    changes when snapshots are appended, replaced, or reshaped between
    analyses.  Deliberately O(topics x collections) with no per-video
    work: it runs on *every* index access, so it must stay microseconds
    even at census scale.  Mutating an existing hour's ID list in place
    is invisible to it (see the module docstring).
    """
    parts: list = [tuple(campaign.topic_keys), len(campaign.snapshots)]
    for snap in campaign.snapshots:
        for key, ts in snap.topics.items():
            parts.append((
                snap.index, key, id(ts), len(ts.hour_video_ids),
                tuple(ts.missing_hours),
                len(ts.video_meta), len(ts.channel_meta), len(ts.pool_sizes),
            ))
    return tuple(parts)


@dataclass
class _RegressionColumns:
    """One topic's decoded regression dataset, in interned-row order."""

    video_ids: list[str]
    frequency: np.ndarray  # int64
    duration: np.ndarray  # int64 seconds
    definition: list[str]  # "hd" | "sd"
    views: np.ndarray
    likes: np.ndarray
    comments: np.ndarray
    channel_age_days: np.ndarray  # float64
    channel_views: np.ndarray
    channel_subs: np.ndarray
    channel_videos: np.ndarray


@dataclass
class TopicIndex:
    """One topic's columnar view (see the module docstring)."""

    topic: str
    #: interned row order: ``sorted(campaign.ever_returned(topic))``.
    video_ids: tuple[str, ...]
    row_of: dict[str, int]
    #: presence matrix, shape (n_videos, n_collections).
    present: np.ndarray
    #: hour bin of each (video, collection) return; -1 when absent.  When
    #: a video is returned in several bins of one collection (never in
    #: the simulator, possible in hand-built data) the first-seen bin
    #: lands here and the rest in :attr:`extra_hours`.
    hour_of: np.ndarray
    #: collection -> {row -> additional hour bins} overflow (rare).
    extra_hours: dict[int, dict[int, tuple[int, ...]]]
    #: per-collection missing hour bins (degraded snapshots).
    missing_hours: tuple[tuple[int, ...], ...]
    #: every totalResults draw, in snapshot-then-hour order.
    pool_draws: list[int]
    #: lazily decoded regression columns (None until first use).
    regression: _RegressionColumns | None = field(default=None, repr=False)

    @property
    def n_videos(self) -> int:
        """Size of the topic's ever-returned universe."""
        return len(self.video_ids)

    @property
    def set_sizes(self) -> np.ndarray:
        """Distinct videos returned per collection (presence column sums)."""
        return self.present.sum(axis=0)

    def degraded_indices(self) -> list[int]:
        """Collections with missing hour bins, in order."""
        return [t for t, miss in enumerate(self.missing_hours) if miss]

    def observed(self, t: int, excluded: set[int]) -> np.ndarray:
        """Presence at collection ``t`` restricted to observed hour bins.

        A video stays present iff at least one of its return bins at
        ``t`` is outside ``excluded``.
        """
        column = self.present[:, t]
        if not excluded:
            return column
        masked = np.isin(self.hour_of[:, t], np.fromiter(excluded, dtype=np.int32))
        column = column & ~masked
        for row, hours in self.extra_hours.get(t, {}).items():
            if any(h not in excluded for h in hours):
                column[row] = True
        return column

    def _fill_column(
        self, t: int, flat_ids: list[str], flat_hours: list[int]
    ) -> None:
        """Intern one collection's :func:`_flatten`-ed returns into column ``t``.

        One interning pass per collection, not per hour bin: a single
        ``fromiter``.  A video's first bin in hour-bin insertion order
        lands in ``hour_of``, its later bins in the same collection in
        ``extra_hours``.  Every ID must already have a row.
        """
        if not flat_ids:
            return
        rows = np.fromiter(
            map(self.row_of.__getitem__, flat_ids), dtype=np.intp,
            count=len(flat_ids),
        )
        uniq, first_pos = np.unique(rows, return_index=True)
        self.present[uniq, t] = True
        hours_arr = np.asarray(flat_hours, dtype=np.int32)
        self.hour_of[uniq, t] = hours_arr[first_pos]
        if uniq.size != rows.size:  # same video in a second bin (rare)
            dup = np.ones(rows.size, dtype=bool)
            dup[first_pos] = False
            per_t = self.extra_hours.setdefault(t, {})
            for pos in np.nonzero(dup)[0]:
                row, hour = int(rows[pos]), int(flat_hours[pos])
                if self.hour_of[row, t] != hour:
                    per_t[row] = per_t.get(row, ()) + (hour,)


def _flatten(ts) -> tuple[list[str], list[int]]:
    """A topic-snapshot's returned IDs and their hour bins, in hour-bin
    insertion order."""
    flat_ids: list[str] = []
    flat_hours: list[int] = []
    for hour, ids in ts.hour_video_ids.items():
        if ids:
            flat_ids.extend(ids)
            flat_hours.extend([hour] * len(ids))
    return flat_ids, flat_hours


def _jaccard_counts(intersection: int, union: int) -> float:
    """``consistency.jaccard`` on set cardinalities (empty/empty -> 1.0)."""
    return 1.0 if union == 0 else float(intersection) / float(union)


class CampaignIndex:
    """Columnar view of one campaign plus memoized vectorized analyses.

    Build through :func:`campaign_index` (shared and cached),
    :meth:`build` (explicit) or :meth:`incremental`.  The reader methods
    back the analyses in :mod:`repro.core.consistency`,
    :mod:`repro.core.attrition`, :mod:`repro.core.pools`, and
    :mod:`repro.core.returnmodel`.
    """

    def __init__(
        self,
        campaign: CampaignResult | None,
        topics: dict[str, TopicIndex],
        fingerprint: tuple,
        build_wall_s: float,
        topic_keys: tuple[str, ...] | None = None,
        corpus=None,
    ) -> None:
        # All reader state lives on the index itself so an incremental
        # index (campaign=None) can serve every analysis after the raw
        # snapshots have been spilled and dropped.
        self._campaign = campaign
        self._topics = topics
        self._topic_keys = (
            tuple(topic_keys)
            if topic_keys is not None
            else tuple(campaign.topic_keys)
        )
        self._n = (
            campaign.n_collections if campaign is not None else 0
        )
        self._corpus = (
            corpus if campaign is None else getattr(campaign, "corpus", None)
        )
        self._first_collected_at = (
            campaign.snapshots[0].collected_at
            if campaign is not None and campaign.snapshots
            else None
        )
        self.fingerprint = fingerprint
        self.build_wall_s = build_wall_s
        #: cumulative wall time spent in :meth:`append_snapshot`.
        self.append_wall_s = 0.0
        # Metadata texts merged first-seen-wins (topic -> ID -> resource
        # text), folded lazily per topic up to collection
        # ``_meta_upto[topic]`` (campaign-backed indexes scan retained
        # snapshots on demand; incremental ones fold eagerly in
        # append_snapshot because the snapshot will not be retained).
        self._merged_video: dict[str, dict[str, str]] = {}
        self._merged_channel: dict[str, dict[str, str]] = {}
        self._meta_upto: dict[str, int] = {}
        # Memoized analysis products (the report/export/replication
        # layers ask the same questions repeatedly).
        self._consistency: dict[str, list] = {}
        self._gap_consistency: dict[str, list] = {}
        self._attrition: dict[tuple, object] = {}
        self._sequences: dict[tuple, list[str]] = {}
        self._pool_stats: dict[str, object] = {}
        self._records: list | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        campaign: CampaignResult,
        fingerprint: tuple | None = None,
        observer: Observer | None = None,
    ) -> "CampaignIndex":
        """Decode a campaign into columnar form (one pass over the data)."""
        t0 = time.perf_counter()
        n = campaign.n_collections
        topics: dict[str, TopicIndex] = {}
        for key in campaign.topic_keys:
            snaps = [snap.topics[key] for snap in campaign.snapshots]
            universe: set[str] = set()
            for ts in snaps:
                for ids in ts.hour_video_ids.values():
                    universe.update(ids)
            video_ids = tuple(sorted(universe))
            ti = TopicIndex(
                topic=key,
                video_ids=video_ids,
                row_of={vid: row for row, vid in enumerate(video_ids)},
                present=np.zeros((len(video_ids), n), dtype=bool),
                hour_of=np.full((len(video_ids), n), -1, dtype=np.int32),
                extra_hours={},
                missing_hours=tuple(tuple(ts.missing_hours) for ts in snaps),
                pool_draws=[
                    pool for ts in snaps for pool in ts.pool_sizes.values()
                ],
            )
            for t, ts in enumerate(snaps):
                ti._fill_column(t, *_flatten(ts))
            topics[key] = ti
        wall_s = time.perf_counter() - t0
        index = cls(campaign, topics, fingerprint or _fingerprint(campaign), wall_s)
        if observer is not None:
            observer.emit(
                "index.build",
                len(topics),
                sum(ti.n_videos for ti in topics.values()),
                n,
                wall_s,
            )
        return index

    @classmethod
    def incremental(
        cls,
        topic_keys: tuple[str, ...] | list[str],
        corpus=None,
        observer: Observer | None = None,
    ) -> "CampaignIndex":
        """An empty index that grows one :meth:`append_snapshot` at a time.

        For feeds that never retain raw snapshots (``repro.core.spill``,
        ``CampaignStream``): the index holds only the columnar matrices
        and merged metadata, never the campaign.  Shapes start at
        ``(0, 0)`` — exactly what :meth:`build` produces for an empty
        campaign.
        """
        keys = tuple(topic_keys)
        topics = {
            key: TopicIndex(
                topic=key,
                video_ids=(),
                row_of={},
                present=np.zeros((0, 0), dtype=bool),
                hour_of=np.full((0, 0), -1, dtype=np.int32),
                extra_hours={},
                missing_hours=(),
                pool_draws=[],
            )
            for key in keys
        }
        return cls(
            None, topics, (keys, 0), 0.0, topic_keys=keys, corpus=corpus
        )

    def append_snapshot(self, snap, observer: Observer | None = None) -> None:
        """Extend the index by one collection, O(delta).

        Only the new snapshot is decoded: new video IDs are merged into
        the sorted interned order (``np.insert`` row growth at bisect
        positions, ``extra_hours`` rows remapped), one column is added to
        ``present``/``hour_of``, and the memoized analysis products are
        invalidated.  The result is structurally equal to a one-shot
        :meth:`build` over the same snapshots — the property sweep in
        ``tests/test_index_incremental.py`` pins that after every prefix.
        """
        t = self._n
        if snap.index != t:
            raise ValueError(
                "incremental index needs snapshots in collection order: "
                f"expected index {t}, got {snap.index}"
            )
        absent = [key for key in self._topic_keys if key not in snap.topics]
        if absent:
            raise ValueError(
                f"snapshot {snap.index} is missing topic(s) "
                f"{', '.join(sorted(absent))}; the index would silently "
                "diverge from a full rebuild"
            )
        t0 = time.perf_counter()
        new_videos = 0
        for key in self._topic_keys:
            new_videos += self._append_topic(
                self._topics[key], snap.topics[key], t
            )
        self._n = t + 1
        if self._first_collected_at is None:
            self._first_collected_at = snap.collected_at
        if self._campaign is None:
            # No retained snapshots to scan later: fold metadata now.
            for key in self._topic_keys:
                self._fold_meta(key, snap.topics[key])
                self._meta_upto[key] = self._n
        self._invalidate()
        wall_s = time.perf_counter() - t0
        self.append_wall_s += wall_s
        if observer is not None:
            observer.emit("index.append", self._n, new_videos, wall_s)

    def _append_topic(self, ti: TopicIndex, ts, t: int) -> int:
        """Grow one topic by one collection; returns the new-video count."""
        flat_ids, flat_hours = _flatten(ts)
        new_ids = sorted(
            {vid for vid in flat_ids if vid not in ti.row_of}
        )
        if new_ids:
            # bisect positions are nondecreasing (new_ids is sorted), so
            # after np.insert the k-th new ID lands at position[k] + k —
            # exactly its slot in the merged sorted order.
            positions = [bisect_left(ti.video_ids, vid) for vid in new_ids]
            ti.present = np.insert(ti.present, positions, False, axis=0)
            ti.hour_of = np.insert(ti.hour_of, positions, -1, axis=0)
            merged = list(ti.video_ids)
            for offset, (pos, vid) in enumerate(zip(positions, new_ids)):
                merged.insert(pos + offset, vid)
            ti.video_ids = tuple(merged)
            ti.row_of = {vid: row for row, vid in enumerate(ti.video_ids)}
            if ti.extra_hours:
                # Rows at or past an insertion point shifted down by the
                # number of insertions before them; dict order (and with
                # it overflow-hour order) is preserved by the rebuild.
                ti.extra_hours = {
                    tt: {
                        row + bisect_right(positions, row): hours
                        for row, hours in per_t.items()
                    }
                    for tt, per_t in ti.extra_hours.items()
                }
        n_rows = len(ti.video_ids)
        ti.present = np.hstack(
            [ti.present, np.zeros((n_rows, 1), dtype=bool)]
        )
        ti.hour_of = np.hstack(
            [ti.hour_of, np.full((n_rows, 1), -1, dtype=np.int32)]
        )
        ti.missing_hours = ti.missing_hours + (tuple(ts.missing_hours),)
        ti.pool_draws.extend(ts.pool_sizes.values())
        ti._fill_column(t, flat_ids, flat_hours)
        return len(new_ids)

    def _invalidate(self) -> None:
        """Drop memoized analysis products after a structural change."""
        self._consistency.clear()
        self._gap_consistency.clear()
        self._attrition.clear()
        self._sequences.clear()
        self._pool_stats.clear()
        self._records = None
        for ti in self._topics.values():
            ti.regression = None

    def extend_to(
        self,
        campaign: CampaignResult,
        fingerprint: tuple,
        observer: Observer | None = None,
    ) -> bool:
        """Append the campaign's new snapshots if it grew by pure suffix.

        Returns True (and updates :attr:`fingerprint`) when this index's
        fingerprint is a strict prefix of ``fingerprint`` — same topic
        keys, every previously indexed snapshot untouched, one or more
        appended.  Any other change (snapshot replaced or reshaped)
        returns False and the caller rebuilds.
        """
        old = self.fingerprint
        if (
            self._campaign is not campaign
            or len(old) < 2
            or old[0] != fingerprint[0]
            or not isinstance(old[1], int)
            or old[1] >= fingerprint[1]
            or fingerprint[2:len(old)] != old[2:]
        ):
            return False
        # The remaining parts must all belong to appended snapshots.
        if any(part[0] < old[1] for part in fingerprint[len(old):]):
            return False
        for snap in campaign.snapshots[old[1]:]:
            self.append_snapshot(snap, observer=observer)
        self.fingerprint = fingerprint
        return True

    @property
    def n_collections(self) -> int:
        """Number of snapshots indexed."""
        return self._n

    @property
    def topic_keys(self) -> tuple[str, ...]:
        """The campaign's topic keys, in analysis order."""
        return self._topic_keys

    def topic(self, key: str) -> TopicIndex:
        """One topic's columnar view (``KeyError`` on unknown topics)."""
        try:
            return self._topics[key]
        except KeyError:
            raise KeyError(key) from None

    # -- RQ1: consistency (Figure 1) -------------------------------------------

    def consistency(self, topic: str) -> list:
        """Vectorized :func:`repro.core.consistency.consistency_series`."""
        cached = self._consistency.get(topic)
        if cached is None:
            cached = self._consistency_points(topic, gap_aware=False)
            self._consistency[topic] = cached
        return list(cached)

    def gap_aware_consistency(self, topic: str) -> list:
        """Vectorized :func:`~repro.core.consistency.gap_aware_consistency_series`."""
        cached = self._gap_consistency.get(topic)
        if cached is None:
            cached = self._consistency_points(topic, gap_aware=True)
            self._gap_consistency[topic] = cached
        return list(cached)

    def _consistency_points(self, topic: str, gap_aware: bool) -> list:
        from repro.core.consistency import ConsistencyPoint

        ti = self.topic(topic)
        if self.n_collections < 2:
            raise ValueError("consistency analysis needs at least two collections")
        present = ti.present
        sizes = ti.set_sizes
        degraded = any(ti.missing_hours) if gap_aware else False
        points: list[ConsistencyPoint] = []
        if not degraded:
            # Complete campaign (or plain series): pure matrix ops.
            current, previous = present[:, 1:], present[:, :-1]
            inter_prev = np.count_nonzero(current & previous, axis=0)
            inter_first = np.count_nonzero(current & present[:, :1], axis=0)
            for t in range(1, self.n_collections):
                i_prev = int(inter_prev[t - 1])
                i_first = int(inter_first[t - 1])
                size_t, size_p = int(sizes[t]), int(sizes[t - 1])
                points.append(ConsistencyPoint(
                    index=t,
                    j_previous=_jaccard_counts(i_prev, size_t + size_p - i_prev),
                    j_first=_jaccard_counts(
                        i_first, size_t + int(sizes[0]) - i_first
                    ),
                    lost_from_previous=size_p - i_prev,
                    gained_since_previous=size_t - i_prev,
                    set_size=size_t,
                ))
            return points
        # Degraded campaign: restrict each pairwise comparison to the
        # hour bins observed on both sides (the lost/gained counts too).
        for t in range(1, self.n_collections):
            excluded_prev = set(ti.missing_hours[t]) | set(ti.missing_hours[t - 1])
            cur = ti.observed(t, excluded_prev)
            prev = ti.observed(t - 1, excluded_prev)
            i_prev = int(np.count_nonzero(cur & prev))
            n_cur, n_prev = int(cur.sum()), int(prev.sum())
            points.append(ConsistencyPoint(
                index=t,
                j_previous=_jaccard_counts(i_prev, n_cur + n_prev - i_prev),
                j_first=self.gap_jaccard(topic, t, 0),
                lost_from_previous=n_prev - i_prev,
                gained_since_previous=n_cur - i_prev,
                set_size=int(sizes[t]),
            ))
        return points

    def gap_jaccard(self, topic: str, a: int, b: int) -> float:
        """Jaccard of two collections of one topic over the hour bins
        *both* observed.

        Missing hour bins on either side are excluded from both, so a
        degraded collection's gaps do not count as churn; for two
        complete collections this is the plain Jaccard of their sets.
        Two empty restricted sets count as identical (1.0).
        """
        ti = self.topic(topic)
        excluded = set(ti.missing_hours[a]) | set(ti.missing_hours[b])
        va, vb = ti.observed(a, excluded), ti.observed(b, excluded)
        inter = int(np.count_nonzero(va & vb))
        return _jaccard_counts(inter, int(va.sum()) + int(vb.sum()) - inter)

    def jaccard_matrix(self, topic: str) -> list[list[float]]:
        """Full pairwise Jaccard matrix over a topic's collections:
        symmetric, diagonal 1.0."""
        ti = self.topic(topic)
        counts = ti.present.astype(np.int64)
        inter = counts.T @ counts
        sizes = np.diagonal(inter)
        union = sizes[:, None] + sizes[None, :] - inter
        matrix = np.ones_like(inter, dtype=float)
        np.divide(inter, union, out=matrix, where=union > 0)
        np.fill_diagonal(matrix, 1.0)
        return matrix.tolist()

    # -- RQ2: attrition (Figure 3) ---------------------------------------------

    def _topic_submatrix(self, topic: str, skip_degraded: bool) -> np.ndarray:
        """Presence rows over retained collections, universe-filtered.

        With ``skip_degraded`` the degraded collections are dropped and
        the universe re-restricted to videos returned in the remaining
        ones.
        """
        ti = self.topic(topic)
        sub = ti.present
        if skip_degraded:
            retained = [
                t for t, miss in enumerate(ti.missing_hours) if not miss
            ]
            sub = sub[:, retained]
            sub = sub[sub.any(axis=1)]
        return sub

    def presence_sequences(
        self, topics: list[str] | None = None, skip_degraded: bool = False
    ) -> list[str]:
        """Vectorized :func:`repro.core.attrition.presence_sequences`."""
        keys = tuple(topics) if topics is not None else self.topic_keys
        cache_key = (keys, skip_degraded)
        cached = self._sequences.get(cache_key)
        if cached is None:
            cached = []
            for key in keys:
                sub = self._topic_submatrix(key, skip_degraded)
                symbols = np.where(sub, _ORD_P, _ORD_A).astype(np.uint8)
                cached.extend(
                    bytes(row).decode("ascii") for row in symbols
                )
            self._sequences[cache_key] = cached
        return list(cached)

    def attrition(
        self, topics: list[str] | None = None, skip_degraded: bool = False
    ):
        """Vectorized :func:`repro.core.attrition.attrition_analysis`.

        Second-order transition counts via base-2 window encoding: each
        sliding window ``(s0, s1, s2)`` of a presence row becomes the
        code ``4*s0 + 2*s1 + s2`` and one ``np.bincount`` per topic
        accumulates all eight (history, next) cells at once.
        """
        from repro.core.attrition import ABSENT, PRESENT, AttritionResult

        keys = tuple(topics) if topics is not None else self.topic_keys
        cache_key = (keys, skip_degraded)
        cached = self._attrition.get(cache_key)
        if cached is not None:
            return cached
        counts_vector = np.zeros(8, dtype=np.int64)
        states: set[str] = set()
        n_sequences = 0
        for key in keys:
            sub = self._topic_submatrix(key, skip_degraded)
            if sub.shape[0] == 0 or sub.shape[1] == 0:
                continue
            n_sequences += sub.shape[0]
            states.add(PRESENT)  # every universe row has >= 1 presence
            if not sub.all():
                states.add(ABSENT)
            if sub.shape[1] >= 3:
                s = sub.astype(np.uint8)
                codes = (s[:, :-2] << 2) | (s[:, 1:-1] << 1) | s[:, 2:]
                counts_vector += np.bincount(codes.ravel(), minlength=8)
        if n_sequences == 0:
            raise ValueError("no videos were ever returned; nothing to analyze")
        symbol = {1: PRESENT, 0: ABSENT}
        counts: dict[tuple[str, ...], dict[str, int]] = {}
        for code in range(8):
            count = int(counts_vector[code])
            if count == 0:
                continue
            history = (symbol[(code >> 2) & 1], symbol[(code >> 1) & 1])
            counts.setdefault(history, {})[symbol[code & 1]] = count
        result = AttritionResult(
            chain=chain_from_counts(counts, states, order=2),
            n_sequences=n_sequences,
        )
        self._attrition[cache_key] = result
        return result

    # -- Section 5: pools and the return model ---------------------------------

    def pool_stats(self, topic: str):
        """Cached :func:`repro.core.pools.pool_stats` over the stored draws."""
        from repro.core.pools import PoolStats
        from repro.stats.descriptive import describe

        cached = self._pool_stats.get(topic)
        if cached is None:
            draws = self.topic(topic).pool_draws
            if not draws:
                raise ValueError(f"no pool draws recorded for topic {topic!r}")
            desc = describe(draws)
            cached = PoolStats(
                topic=topic,
                minimum=int(desc.minimum),
                maximum=int(desc.maximum),
                mean=desc.mean,
                mode=int(desc.mode),
                n_draws=desc.n,
            )
            self._pool_stats[topic] = cached
        return cached

    def _fold_meta(self, topic: str, ts) -> None:
        """Fold one topic-snapshot's resource texts in, first seen wins."""
        if ts.video_meta or ts.channel_meta:
            merged_video = self._merged_video.setdefault(topic, {})
            merged_channel = self._merged_channel.setdefault(topic, {})
            for vid, text in ts.video_meta.text_items():
                merged_video.setdefault(vid, text)
            for cid, text in ts.channel_meta.text_items():
                merged_channel.setdefault(cid, text)

    def _merged_meta(
        self, topic: str
    ) -> tuple[CapturedResources, CapturedResources]:
        """First-seen-wins metadata for one topic, folded up to ``_n``.

        Campaign-backed indexes scan the retained snapshots lazily from
        wherever the last fold stopped; incremental indexes were folded
        eagerly in :meth:`append_snapshot`, so the stored texts are
        already current.  Nothing is parsed here: a resource is parsed
        when it is read.
        """
        start = self._meta_upto.get(topic, 0)
        if self._campaign is not None and start < self._n:
            for snap in self._campaign.snapshots[start:self._n]:
                self._fold_meta(topic, snap.topics[topic])
            self._meta_upto[topic] = self._n
        videos = self._merged_video.setdefault(topic, {})
        channels = self._merged_channel.setdefault(topic, {})
        return (
            CapturedResources.from_texts(videos),
            CapturedResources.from_texts(channels),
        )

    def _regression_columns(self, topic: str) -> _RegressionColumns:
        """Decode one topic's regression dataset (memoized on the topic).

        Merges metadata first-seen-wins across snapshots, drops videos
        without video or channel metadata (the paper's treatment), and
        parses each surviving resource once and durations / channel ages
        once per unique value.
        """
        ti = self.topic(topic)
        if ti.regression is not None:
            return ti.regression
        merged_video, merged_channel = self._merged_meta(topic)
        collected_at = self._first_collected_at
        frequencies = ti.present.sum(axis=1)
        # Live columnar corpus (in-process campaigns only): static video /
        # channel facts come straight from the typed arrays instead of
        # being re-parsed out of the captured resources.  The resource
        # capture is lossless for these fields, so both sources agree.
        corpus = self._corpus
        chan_of: dict[str, tuple[float, int, int, int]] = {}
        video_ids: list[str] = []
        frequency: list[int] = []
        duration: list[int] = []
        definition: list[str] = []
        views: list[int] = []
        likes: list[int] = []
        comments: list[int] = []
        channel_age: list[float] = []
        channel_views: list[int] = []
        channel_subs: list[int] = []
        channel_videos: list[int] = []
        for row, video_id in enumerate(ti.video_ids):
            meta = merged_video.get(video_id)
            if meta is None:
                continue
            channel_id = meta["snippet"]["channelId"]
            if channel_id not in merged_channel:
                continue
            stats = meta.get("statistics", {})
            details = meta.get("contentDetails", {})
            cstat = chan_of.get(channel_id)
            if cstat is None:
                static = (
                    corpus.channel_static(channel_id)
                    if corpus is not None
                    else None
                )
                if static is not None:
                    created, c_views, c_subs, c_videos = static
                else:
                    channel = merged_channel[channel_id]
                    created = parse_rfc3339(channel["snippet"]["publishedAt"])
                    c_views = int(channel["statistics"]["viewCount"])
                    c_subs = int(channel["statistics"]["subscriberCount"])
                    c_videos = int(channel["statistics"]["videoCount"])
                cstat = (
                    float((collected_at - created).days),
                    c_views, c_subs, c_videos,
                )
                chan_of[channel_id] = cstat
            vstat = (
                corpus.video_static(video_id) if corpus is not None else None
            )
            if vstat is None:
                vstat = (
                    parse_iso8601_duration(details.get("duration", "PT1S")),
                    details.get("definition", "hd"),
                )
            video_ids.append(video_id)
            frequency.append(int(frequencies[row]))
            duration.append(vstat[0])
            definition.append(vstat[1])
            views.append(int(stats.get("viewCount", 0)))
            likes.append(int(stats.get("likeCount", 0)))
            comments.append(int(stats.get("commentCount", 0)))
            channel_age.append(cstat[0])
            channel_views.append(cstat[1])
            channel_subs.append(cstat[2])
            channel_videos.append(cstat[3])
        ti.regression = _RegressionColumns(
            video_ids=video_ids,
            frequency=np.array(frequency, dtype=np.int64),
            duration=np.array(duration, dtype=np.int64),
            definition=definition,
            views=np.array(views, dtype=np.int64),
            likes=np.array(likes, dtype=np.int64),
            comments=np.array(comments, dtype=np.int64),
            channel_age_days=np.array(channel_age, dtype=np.float64),
            channel_views=np.array(channel_views, dtype=np.int64),
            channel_subs=np.array(channel_subs, dtype=np.int64),
            channel_videos=np.array(channel_videos, dtype=np.int64),
        )
        return ti.regression

    def regression_records(self) -> list:
        """Vectorized :func:`repro.core.returnmodel.build_regression_records`."""
        from repro.core.returnmodel import RegressionRecord

        if self._records is not None:
            return list(self._records)
        records: list[RegressionRecord] = []
        for topic in self.topic_keys:
            cols = self._regression_columns(topic)
            for i, video_id in enumerate(cols.video_ids):
                records.append(RegressionRecord(
                    video_id=video_id,
                    topic=topic,
                    frequency=int(cols.frequency[i]),
                    duration_seconds=int(cols.duration[i]),
                    definition=cols.definition[i],
                    views=int(cols.views[i]),
                    likes=int(cols.likes[i]),
                    comments=int(cols.comments[i]),
                    channel_age_days=float(cols.channel_age_days[i]),
                    channel_views=int(cols.channel_views[i]),
                    channel_subs=int(cols.channel_subs[i]),
                    channel_videos=int(cols.channel_videos[i]),
                ))
        if not records:
            raise ValueError("no regression records (no metadata captured?)")
        self._records = records
        return list(records)


def campaign_index(
    campaign: CampaignResult, observer: Observer | None = None
) -> CampaignIndex:
    """The campaign's shared index — built on first use, then cached.

    The cache lives on the campaign object, so the report, export,
    replication, and CLI layers all amortize one build.  When the
    structural fingerprint shows the campaign grew by pure suffix
    (snapshots appended, nothing replaced or reshaped) the cached index
    is extended in place with :meth:`CampaignIndex.append_snapshot` —
    O(delta) per new collection.  Any other fingerprint change rebuilds
    from scratch.
    """
    fingerprint = _fingerprint(campaign)
    cached: CampaignIndex | None = campaign.__dict__.get("_index")
    if cached is not None:
        if cached.fingerprint == fingerprint:
            return cached
        if cached.extend_to(campaign, fingerprint, observer=observer):
            return cached
    index = CampaignIndex.build(campaign, fingerprint, observer=observer)
    campaign.__dict__["_index"] = index
    return index
