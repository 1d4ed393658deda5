"""Corpus assembly: build the full synthetic world from topic specs.

For each topic we generate a channel population, draw upload times from the
topic's temporal profile, attach correlated popularity metrics, assign
subtopics (for the topic-splitting strategy), compose searchable text that
matches the topic's query, and sprinkle a small deletion hazard (the paper
verifies deletions cannot explain the search endpoint's drift; our audit
code must face the same confound).

The draws are vectorized per topic (:mod:`repro.world.columnar`) and the
result is a :class:`~repro.world.columnar.ColumnarWorld` that materializes
entity dataclasses lazily from the typed arrays.
``tests/test_world_columnar.py`` pins the materialized worlds by recorded
digests.
"""

from __future__ import annotations

import dataclasses
import time

from repro.util.rng import SeedBank
from repro.world.channels import draw_channel_columns
from repro.world.columnar import (
    ColumnarCorpus,
    ColumnarWorld,
    TopicColumns,
    draw_video_columns,
)
from repro.world.comments import draw_thread_columns
from repro.world.topics import TopicSpec

__all__ = ["build_world", "scale_topic", "scale_topics"]


def scale_topic(spec: TopicSpec, scale: float) -> TopicSpec:
    """Scale a topic spec: down for fast tests, up for big-world benches.

    ``scale`` must be positive.  Shrinking clamps to floors that keep the
    behavioral model meaningful (``n_videos >= 30``, ``n_channels >= 10``,
    ``return_budget >= 15``) while never letting the return budget exceed
    the corpus (``return_budget <= n_videos``); growing multiplies the
    population counts without clamping.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    if scale == 1.0:
        return spec
    n_videos = max(30, int(round(spec.n_videos * scale)))
    return dataclasses.replace(
        spec,
        n_videos=n_videos,
        n_channels=max(10, int(round(spec.n_channels * scale))),
        return_budget=max(15, min(n_videos, int(round(spec.return_budget * scale)))),
    )


def scale_topics(specs: tuple[TopicSpec, ...], scale: float) -> tuple[TopicSpec, ...]:
    """Scale every spec in a tuple."""
    return tuple(scale_topic(s, scale) for s in specs)


def build_world(
    specs: tuple[TopicSpec, ...],
    seed: int,
    with_comments: bool = True,
    *,
    observer=None,
) -> ColumnarWorld:
    """Generate the complete platform for the given topics.

    The build is deterministic in ``seed``: identical seeds produce
    identical worlds down to every ID, timestamp, and metric.  Each
    topic's columns are drawn as whole-topic arrays and wrapped in a
    :class:`~repro.world.columnar.ColumnarWorld`, which materializes
    entity dataclasses lazily — building a 100x world costs array draws
    only.

    When ``observer`` is given, a ``world.build`` event with entity counts,
    vocabulary size, and wall time is emitted on completion.
    """
    if len({s.key for s in specs}) != len(specs):
        raise ValueError("duplicate topic keys")
    start = time.perf_counter()
    bank = SeedBank(seed)
    topics: dict[str, TopicColumns] = {}
    for spec in specs:
        topic_rng = bank.generator(f"world/{spec.key}")
        channel_cols = draw_channel_columns(spec, topic_rng)
        video_cols = draw_video_columns(spec, channel_cols.subscribers, topic_rng)
        thread_cols = None
        if with_comments:
            comment_rng = bank.generator(f"world/{spec.key}/comments")
            thread_cols = draw_thread_columns(spec, video_cols.comments, comment_rng)
        topics[spec.key] = TopicColumns(
            spec=spec, channels=channel_cols, videos=video_cols, threads=thread_cols
        )
    world = ColumnarWorld(ColumnarCorpus(seed, topics))
    if observer is not None:
        summary = world.summary()
        observer.emit(
            "world.build",
            summary["videos"],
            summary["channels"],
            summary["threads"],
            world.corpus.vocabulary_size(),
            time.perf_counter() - start,
        )
    return world
