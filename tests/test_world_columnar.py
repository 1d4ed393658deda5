"""Columnar world builder: recorded world digests, lazy-cache identity,
stream-exact deletion parsing, the store and the sampling engine's arrays
against brute-force references, the census of a world above paper scale,
and the ``world.build`` observability event.

``tests/golden/world_digests.json`` pins, for each (seed, scale,
with_comments) built here, the sha256 of the canonical JSON of every
video, channel and comment thread the world materializes, of each
topic's ``videos_for_topic`` order, and the world's census.  The digests
were recorded from both the columnar builder and the eager scalar
builder that preceded it, and the two agreed on every one.

Regeneration (only when the simulator's data model legitimately
changes)::

    PYTHONPATH=src python -m tests.test_world_columnar
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.api import build_service
from repro.api.errors import NotFoundError
from repro.obs import CampaignObserver
from repro.sampling.engine import BehaviorParams, _TopicRuntime
from repro.util.rng import SeedBank
from repro.util.timeutil import hour_index
from repro.world.columnar import (
    DELETE_DURING_CAMPAIGN,
    DELETION_FRACTION,
    ColumnarWorld,
    _draw_deletion_columns,
)
from repro.world.corpus import build_world, scale_topic, scale_topics
from repro.world.entities import CommentThread, World
from repro.world.store import PlatformStore, tokenize
from repro.world.topics import PAPER_TOPICS, paper_topics

SEED = 20250209
SCALE = 0.05

GOLDEN = Path(__file__).parent / "golden" / "world_digests.json"

#: name -> (seed, scale, with_comments) of every recorded world.
WORLDS = {
    "20250209-0.05": (SEED, SCALE, True),
    "7-0.02": (7, 0.02, True),
    "99-0.03": (99, 0.03, True),
    "3-0.02-no-comments": (3, 0.02, False),
}


def _json_default(value):
    if isinstance(value, datetime):
        return value.isoformat()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _sha256(items) -> str:
    """sha256 over the canonical JSON of each item, one per line."""
    digest = hashlib.sha256()
    for item in items:
        text = json.dumps(item, sort_keys=True, default=_json_default)
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


def world_digest(world: World) -> dict:
    """Every materialized entity of a world, digested (see the module
    docstring); videos and channels in iteration order."""
    return {
        "videos": _sha256(
            [vid, dataclasses.asdict(video)] for vid, video in world.videos.items()
        ),
        "channels": _sha256(
            [cid, dataclasses.asdict(channel)]
            for cid, channel in world.channels.items()
        ),
        "threads": _sha256(
            [vid, [dataclasses.asdict(thread) for thread in threads]]
            for vid, threads in sorted(world.threads_by_video.items())
        ),
        "topic_order": _sha256(
            [key, [v.video_id for v in world.videos_for_topic(key)]]
            for key in world.topic_names
        ),
        "summary": world.summary(),
    }


def _build(name: str) -> World:
    seed, scale, with_comments = WORLDS[name]
    return build_world(
        scale_topics(paper_topics(), scale), seed=seed, with_comments=with_comments
    )


def _recorded(name: str) -> dict:
    return json.loads(GOLDEN.read_text())[name]


def _text(video) -> str:
    """A video's searchable text, lowercased (title, description, tags)."""
    return " ".join((video.title, video.description, " ".join(video.tags))).lower()


@pytest.fixture(scope="module")
def specs():
    return scale_topics(paper_topics(), SCALE)


@pytest.fixture(scope="module")
def columnar_world(specs):
    return build_world(specs, seed=SEED)


@pytest.fixture(scope="module")
def columnar_store(columnar_world):
    return PlatformStore(columnar_world)


@pytest.fixture(scope="module")
def token_sets(columnar_world):
    """Brute-force token set of every video."""
    return {
        vid: frozenset(tokenize(_text(video)))
        for vid, video in columnar_world.videos.items()
    }


class TestWorldEquivalence:
    def test_worlds_identical(self, columnar_world):
        assert isinstance(columnar_world, ColumnarWorld)
        assert world_digest(columnar_world) == _recorded("20250209-0.05")

    def test_videos_for_topic_order(self, columnar_world, specs):
        # The base class's definition: a full scan sorted by (publish
        # time, video id).
        for spec in specs:
            assert columnar_world.videos_for_topic(spec.key) == (
                World.videos_for_topic(columnar_world, spec.key)
            )
        assert columnar_world.videos_for_topic("no-such-topic") == []

    @pytest.mark.parametrize("seed,scale", [(7, 0.02), (99, 0.03)])
    def test_other_seeds_and_scales(self, seed, scale):
        name = f"{seed}-{scale}"
        assert WORLDS[name] == (seed, scale, True)
        assert world_digest(_build(name)) == _recorded(name)

    def test_without_comments(self):
        world = _build("3-0.02-no-comments")
        assert dict(world.threads_by_video) == {}
        assert world_digest(world) == _recorded("3-0.02-no-comments")


class TestLazyCacheIdentity:
    def test_video_materialized_once(self, columnar_world):
        vid = next(iter(columnar_world.videos))
        assert columnar_world.videos[vid] is columnar_world.videos[vid]

    def test_channel_materialized_once(self, columnar_world):
        cid = next(iter(columnar_world.channels))
        assert columnar_world.channels[cid] is columnar_world.channels[cid]

    def test_threads_materialized_once(self, columnar_world):
        vid = next(iter(columnar_world.videos))
        assert columnar_world.threads_by_video[vid] is (
            columnar_world.threads_by_video[vid]
        )

    def test_playlist_resolution_returns_cached_object(self, columnar_store):
        cid = next(iter(columnar_store.world.channels))
        channel = columnar_store.channel(cid)
        assert columnar_store.channel_for_playlist(
            channel.uploads_playlist_id
        ) is channel
        assert columnar_store.channel_for_playlist("PLnot-a-playlist") is None

    def test_missing_lookups_raise(self, columnar_world):
        with pytest.raises(KeyError):
            columnar_world.videos["missing-vid"]
        with pytest.raises(KeyError):
            columnar_world.channels["UCmissing"]


class TestThreadLookup:
    """``comments.list`` finds listed threads without minting every thread ID."""

    def _service(self, specs):
        world = build_world(specs, seed=SEED)
        return world.corpus, build_service(world, seed=SEED, specs=specs)

    def _listed_thread_id(self, corpus, service) -> str:
        for key in corpus.topics:
            for vid in corpus.video_ids(key):
                items = service.comment_threads.list(
                    part="snippet", videoId=vid, maxResults=5
                )["items"]
                if items:
                    return items[0]["id"]
        pytest.fail("no video with a listed comment thread")

    def test_listed_thread_skips_locator(self, specs, monkeypatch):
        corpus, service = self._service(specs)
        tid = self._listed_thread_id(corpus, service)

        def mint_all():
            pytest.fail("built the whole-corpus thread locator")

        monkeypatch.setattr(corpus, "thread_locator", mint_all)
        response = service.comments.list(part="snippet", parentId=tid)
        assert response["kind"] == "youtube#commentListResponse"
        assert corpus.thread(tid).thread_id == tid

    def test_unknown_id_not_found(self, specs):
        corpus, service = self._service(specs)
        self._listed_thread_id(corpus, service)
        with pytest.raises(NotFoundError):
            service.comments.list(part="snippet", parentId="Ug" + "A" * 24)

    def test_unlisted_thread_resolves(self, specs):
        corpus, service = self._service(specs)
        tid = self._listed_thread_id(corpus, service)
        expected = service.comments.list(part="snippet", parentId=tid)
        # A second world of the same seed has listed nothing.
        fresh_corpus, fresh_service = self._service(specs)
        assert fresh_service.comments.list(part="snippet", parentId=tid) == expected
        assert fresh_corpus.thread(tid) == corpus.thread(tid)


class TestDeletionParser:
    @staticmethod
    def _scalar_reference(n: int, rng: np.random.Generator) -> np.ndarray:
        """The historical per-video deletion loop, verbatim semantics."""
        out = np.full(n, np.nan, dtype=np.float64)
        for i in range(n):
            if rng.random() < DELETION_FRACTION:
                if rng.random() < DELETE_DURING_CAMPAIGN:
                    out[i] = rng.uniform(5 * 365, 11 * 365)
                else:
                    out[i] = rng.uniform(30, 3.5 * 365)
        return out

    @pytest.mark.parametrize("seed", [0, 1, 7, 20250209])
    @pytest.mark.parametrize("n", [0, 1, 30, 1850])
    def test_matches_scalar_loop_and_stream_position(self, seed, n):
        fast_rng = SeedBank(seed).generator("del")
        slow_rng = SeedBank(seed).generator("del")
        fast = _draw_deletion_columns(n, fast_rng)
        slow = self._scalar_reference(n, slow_rng)
        assert np.array_equal(fast, slow, equal_nan=True)
        # The generator must end at the exact scalar stream position so
        # every later draw in the topic stream is unaffected.
        assert np.array_equal(fast_rng.random(16), slow_rng.random(16))


class TestStoreEquivalence:
    """The store's indexes against brute-force scans of the world."""

    def test_summary(self, columnar_store, columnar_world, token_sets):
        assert columnar_store.summary() == {
            "videos": len(columnar_world.videos),
            "channels": len(columnar_world.channels),
            "tokens": len(frozenset().union(*token_sets.values())),
            "threads": sum(
                len(threads)
                for threads in columnar_world.threads_by_video.values()
            ),
        }

    def test_token_postings(self, columnar_store, columnar_world, token_sets, specs):
        def reference(tokens):
            return {
                vid for vid, toks in token_sets.items()
                if all(token in toks for token in tokens)
            }

        probes = ["higgs", "boson", "brexit", "official", "highlights",
                  "breaking", "5", "17", "nope-token", ""]
        for token in probes:
            assert columnar_store.candidates_for_tokens([token]) == (
                reference([token])
            ), token
        assert reference(["5"]) and reference(["17"])
        for spec in specs:
            tokens = spec.query.split()
            assert columnar_store.candidates_for_tokens(tokens) == (
                reference(tokens)
            )
        assert columnar_store.candidates_for_tokens([]) == (
            set(columnar_world.videos)
        )

    def test_search_text_and_token_set(self, columnar_store, columnar_world):
        for vid in list(columnar_world.videos)[::37]:
            video = columnar_world.videos[vid]
            assert columnar_store.search_text(vid) == _text(video)
            assert columnar_store.token_set(vid) == frozenset(
                tokenize(_text(video))
            )
        with pytest.raises(KeyError):
            columnar_store.search_text("missing-vid")

    def test_windows(self, columnar_store, columnar_world, specs):
        by_time = sorted(
            columnar_world.videos.values(),
            key=lambda v: (v.published_at, v.video_id),
        )

        def reference(after, before, as_of):
            return [
                v for v in by_time
                if (after is None or v.published_at >= after)
                and (before is None or v.published_at < before)
                and v.alive_at(as_of)
            ]

        for spec in specs[:3]:
            mid = spec.focal_date
            as_of = spec.window_end + timedelta(days=40)
            for after, before in [
                (spec.window_start, spec.window_end),
                (None, mid),
                (mid, None),
                (None, None),
                (mid, mid),
            ]:
                assert columnar_store.videos_in_window(after, before, as_of) == (
                    reference(after, before, as_of)
                )

    def test_window_boundary_is_half_open(self, columnar_store, specs):
        # A video published exactly at ``published_before`` is excluded;
        # one published exactly at ``published_after`` is included.
        video = columnar_store.world.videos_for_topic(specs[0].key)[5]
        t = video.published_at
        as_of = specs[0].window_end + timedelta(days=40)
        upper = columnar_store.videos_in_window(specs[0].window_start, t, as_of)
        assert video.video_id not in {v.video_id for v in upper}
        lower = columnar_store.videos_in_window(t, None, as_of)
        assert video.video_id in {v.video_id for v in lower}

    @staticmethod
    def _uploads_by_channel(world) -> dict[str, list]:
        """Every channel's uploads, oldest first."""
        by_channel: dict[str, list] = {}
        for v in world.videos.values():
            by_channel.setdefault(v.channel_id, []).append(v)
        for uploads in by_channel.values():
            uploads.sort(key=lambda v: (v.published_at, v.video_id))
        return by_channel

    def test_uploads_all_channels(self, columnar_store, columnar_world, specs):
        as_of = max(s.window_end for s in specs) + timedelta(days=100)
        early = min(s.window_start for s in specs) + timedelta(days=3)
        by_channel = self._uploads_by_channel(columnar_world)
        for cid in columnar_world.channels:
            for when in (as_of, early):
                reference = [
                    v for v in reversed(by_channel.get(cid, []))
                    if v.alive_at(when)
                ]
                assert columnar_store.uploads(cid, when) == reference, cid
        assert columnar_store.uploads("UCmissing", as_of) == []

    def test_uploads_matches_refilter_reference(
        self, columnar_store, columnar_world, specs
    ):
        # The pre-optimization implementation: filter the whole upload
        # list per call, newest first.
        as_of = specs[0].focal_date + timedelta(days=400)
        by_channel = self._uploads_by_channel(columnar_world)
        for cid, uploads in list(by_channel.items())[::17]:
            reference = [
                v for v in reversed(uploads)
                if v.published_at <= as_of and v.alive_at(as_of)
            ]
            assert columnar_store.uploads(cid, as_of) == reference

    def test_threads_and_replies(self, columnar_store, columnar_world, specs):
        as_of = max(s.window_end for s in specs) + timedelta(days=100)
        threaded = [
            vid for vid, threads in columnar_world.threads_by_video.items()
            if threads
        ]
        for vid in threaded[::25]:
            threads = columnar_world.threads_by_video[vid]
            visible = [
                CommentThread(
                    thread_id=t.thread_id,
                    video_id=t.video_id,
                    top_level=t.top_level,
                    replies=[r for r in t.replies if r.alive_at(as_of)],
                )
                for t in threads
                if t.top_level.alive_at(as_of)
            ]
            assert columnar_store.threads_for_video(vid, as_of) == visible
            for thread in threads[:2]:
                assert columnar_store.thread(thread.thread_id) == thread
                assert columnar_store.replies_for_thread(
                    thread.thread_id, as_of
                ) == [r for r in thread.replies if r.alive_at(as_of)]
        assert columnar_store.thread("Ugmissing") is None


class TestEngineRuntimeParity:
    def test_topic_runtime_arrays(self, columnar_store, specs):
        """The corpus's engine columns equal the per-video arithmetic."""
        params = BehaviorParams()
        for spec in specs:
            runtime = _TopicRuntime(spec, columnar_store, SEED, params)
            videos = columnar_store.world.videos_for_topic(spec.key)
            assert [v.video_id for v in runtime.videos] == (
                [v.video_id for v in videos]
            )
            hour_of = [
                min(max(hour_index(spec.window_start, v.published_at), 0),
                    spec.window_hours - 1)
                for v in videos
            ]
            pub_ts = [v.published_at.timestamp() for v in videos]
            del_ts = [
                np.inf if v.deleted_at is None else v.deleted_at.timestamp()
                for v in videos
            ]
            assert np.array_equal(runtime.hour_of, hour_of)
            assert np.array_equal(runtime.pub_ts, pub_ts)
            assert np.array_equal(runtime.del_ts, del_ts)


class TestScaleClamps:
    def test_floors_on_tiny_scales(self):
        for spec in PAPER_TOPICS:
            tiny = scale_topic(spec, 0.001)
            assert tiny.n_videos == 30
            assert tiny.n_channels == 10
            assert tiny.return_budget == 15
            assert tiny.return_budget <= tiny.n_videos

    def test_budget_never_exceeds_corpus(self):
        for spec in PAPER_TOPICS:
            for scale in (0.004, 0.008, 0.016, 0.05, 0.3):
                scaled = scale_topic(spec, scale)
                assert scaled.return_budget <= scaled.n_videos
                assert scaled.n_videos >= 30
                assert scaled.n_channels >= 10
                assert scaled.return_budget >= 15

    def test_upscale_has_no_clamps(self):
        spec = PAPER_TOPICS[0]
        big = scale_topic(spec, 25.0)
        assert big.n_videos == round(spec.n_videos * 25)
        assert big.return_budget == round(spec.return_budget * 25)


class TestWorldBuildEvent:
    @pytest.mark.parametrize("with_comments", [True, False])
    def test_event_emitted_with_census(self, with_comments):
        specs = scale_topics(paper_topics(), 0.02)
        observer = CampaignObserver()
        world = build_world(
            specs, seed=11, with_comments=with_comments, observer=observer
        )
        events = [e for e in observer.tracer.iter_dicts()
                  if e["type"] == "world.build"]
        assert len(events) == 1
        event = events[0]
        assert event["videos"] == world.summary()["videos"]
        assert event["channels"] == world.summary()["channels"]
        assert event["threads"] == world.summary()["threads"]
        assert (event["threads"] > 0) == with_comments
        assert event["tokens"] == PlatformStore(world).summary()["tokens"]
        assert event["wall_s"] > 0.0
        assert "World builds" in observer.report()


class TestAbovePaperScale:
    def test_double_scale_world_census(self):
        """Scales above 1 grow the world past the paper's corpus; the 2x
        build and the store's forced census are pinned."""
        world = build_world(scale_topics(paper_topics(), 2.0), seed=SEED)
        assert PlatformStore(world).summary() == {
            "videos": 15_030, "channels": 4_680, "tokens": 3_792,
            "threads": 60_606,
        }


class TestRegressionCorpusFeed:
    def test_records_identical_with_and_without_corpus(self, specs):
        import dataclasses

        from repro.api import QuotaPolicy, YouTubeClient, build_service
        from repro.core import paper_campaign_config, run_campaign
        from repro.core.index import CampaignIndex

        world = build_world(specs, seed=SEED)
        service = build_service(
            world, seed=SEED, specs=specs,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        config = dataclasses.replace(
            paper_campaign_config(topics=specs),
            n_scheduled=2, skipped_indices=frozenset(),
            comment_snapshot_indices=(),
        )
        campaign = run_campaign(config, YouTubeClient(service))
        assert campaign.corpus is world.corpus
        fast = CampaignIndex.build(campaign)
        slow = CampaignIndex.build(dataclasses.replace(campaign, corpus=None))
        assert fast.regression_records() == slow.regression_records()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: world_digest(_build(name)) for name in WORLDS}, indent=2
    ) + "\n")
