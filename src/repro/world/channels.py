"""Channel population generation.

The RNG draws are batched (one metrics draw plus three name/country index
batches per topic).  The *draw* step (:func:`draw_channel_columns`) is
separate from per-row dataclass assembly (:func:`channel_from_row`), which
the columnar corpus runs lazily, one channel at a time.  Channel creation
dates all precede the topic window start (a channel must exist before it
can upload), and metrics follow the correlated model in
:mod:`repro.world.popularity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from repro.util.rng import stable_hash
from repro.world import ids
from repro.world.entities import Channel
from repro.world.popularity import draw_channel_metrics
from repro.world.topics import TopicSpec

__all__ = [
    "ChannelColumns",
    "draw_channel_columns",
    "channel_from_row",
    "channel_ordinal_base",
]

_COUNTRIES = ("US", "GB", "CA", "AU", "DE", "FR", "BR", "IN", "JP", "MX")

_NAME_HEADS = (
    "Daily", "Global", "Prime", "Urban", "Civic", "Atlas", "Vertex", "Echo",
    "Nova", "Pulse", "Spark", "Delta", "Orbit", "Signal", "Summit", "Harbor",
)
_NAME_TAILS = (
    "News", "Media", "Report", "Studio", "Channel", "Network", "Docs",
    "Live", "Review", "Lab", "Desk", "Digest", "Stream", "Voice",
)


@dataclass
class ChannelColumns:
    """Typed per-topic channel columns (one row per channel)."""

    subscribers: np.ndarray  # int64
    views: np.ndarray  # int64
    video_count: np.ndarray  # int64
    age_days: np.ndarray  # int64 (age at the focal date)
    head_idx: np.ndarray  # int64 index into _NAME_HEADS
    tail_idx: np.ndarray  # int64 index into _NAME_TAILS
    country_idx: np.ndarray  # int64 index into _COUNTRIES

    @property
    def n(self) -> int:
        return int(self.subscribers.shape[0])


def draw_channel_columns(spec: TopicSpec, rng: np.random.Generator) -> ChannelColumns:
    """Draw one topic's channel columns (the whole RNG stream for channels)."""
    n = spec.n_channels
    metrics = draw_channel_metrics(n, rng)
    head_idx = rng.integers(0, len(_NAME_HEADS), size=n)
    tail_idx = rng.integers(0, len(_NAME_TAILS), size=n)
    country_idx = rng.integers(0, len(_COUNTRIES), size=n)
    return ChannelColumns(
        subscribers=metrics.subscribers,
        views=metrics.views,
        video_count=metrics.video_count,
        age_days=metrics.age_days,
        head_idx=head_idx,
        tail_idx=tail_idx,
        country_idx=country_idx,
    )


def channel_ordinal_base(spec: TopicSpec) -> int:
    """Topic-scoped ordinal base so IDs never collide across topics."""
    return stable_hash("channel-ordinal", spec.key) % 10**9


def channel_from_row(spec: TopicSpec, cols: ChannelColumns, i: int, cid: str) -> Channel:
    """Materialize one channel row into a :class:`Channel` dataclass."""
    age_days = int(cols.age_days[i])
    created = spec.focal_date - timedelta(days=age_days)
    # Guarantee the channel predates the window even for the youngest.
    if created >= spec.window_start:
        created = spec.window_start - timedelta(days=1 + i % 30)
    return Channel(
        channel_id=cid,
        title=f"{_NAME_HEADS[cols.head_idx[i]]} {_NAME_TAILS[cols.tail_idx[i]]} {i}",
        created_at=created,
        country=_COUNTRIES[cols.country_idx[i]],
        subscriber_count=int(cols.subscribers[i]),
        view_count=int(cols.views[i]),
        video_count=int(cols.video_count[i]),
        uploads_playlist_id=ids.uploads_playlist_id(cid),
        topic=spec.key,
    )

