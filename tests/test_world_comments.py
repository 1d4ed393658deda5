"""Tests for comment thread generation."""

from __future__ import annotations

import pytest

from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics
from repro.world import build_world


@pytest.fixture(scope="module")
def world():
    return build_world(scale_topics(paper_topics(), 0.12), seed=55)


class TestGenerateThreads:
    def test_threads_reference_their_video(self, world):
        for video_id, threads in world.threads_by_video.items():
            for thread in threads:
                assert thread.video_id == video_id
                assert thread.top_level.video_id == video_id
                for reply in thread.replies:
                    assert reply.parent_id == thread.thread_id

    def test_thread_ids_globally_unique(self, world):
        seen = set()
        for threads in world.threads_by_video.values():
            for thread in threads:
                assert thread.thread_id not in seen
                seen.add(thread.thread_id)

    def test_replies_after_parent(self, world):
        for threads in world.threads_by_video.values():
            for thread in threads:
                for reply in thread.replies:
                    assert reply.published_at > thread.top_level.published_at

    def test_comments_after_video_publish(self, world):
        for video_id, threads in world.threads_by_video.items():
            published = world.videos[video_id].published_at
            for thread in threads:
                assert thread.top_level.published_at > published

    def test_higgs_has_no_replies(self, world):
        higgs_ids = {v.video_id for v in world.videos_for_topic("higgs")}
        for video_id in higgs_ids:
            for thread in world.threads_by_video.get(video_id, ()):
                assert thread.replies == []

    def test_other_topics_have_replies(self, world):
        blm_ids = {v.video_id for v in world.videos_for_topic("blm")}
        total_replies = sum(
            len(t.replies)
            for vid in blm_ids
            for t in world.threads_by_video.get(vid, ())
        )
        assert total_replies > 0

    def test_small_deletion_hazard(self, world):
        all_comments = [
            c
            for threads in world.threads_by_video.values()
            for t in threads
            for c in [t.top_level, *t.replies]
        ]
        deleted = sum(1 for c in all_comments if c.deleted_at is not None)
        assert 0 < deleted < 0.06 * len(all_comments)

    def test_thread_order_stable(self, world):
        for threads in world.threads_by_video.values():
            keys = [(t.top_level.published_at, t.thread_id) for t in threads]
            assert keys == sorted(keys)
