"""Columnar world builder: equivalence with the eager oracle, lazy-cache
identity, stream-exact deletion parsing, store/engine parity, and the
``world.build`` observability event.

The columnar and eager paths share every draw function, so their RNG
streams agree by construction; these tests lock the *assembly* layers —
lazy mappings, the dual-path :class:`~repro.world.store.PlatformStore`,
and the sampling engine's runtime arrays — to the scalar oracle.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.api import build_service
from repro.api.errors import NotFoundError
from repro.obs import CampaignObserver
from repro.sampling.engine import BehaviorParams, _TopicRuntime
from repro.util.rng import SeedBank
from repro.world.columnar import (
    DELETE_DURING_CAMPAIGN,
    DELETION_FRACTION,
    ColumnarWorld,
    _draw_deletion_columns,
)
from repro.world.corpus import build_world, scale_topic, scale_topics
from repro.world.store import PlatformStore
from repro.world.topics import PAPER_TOPICS, paper_topics

SEED = 20250209
SCALE = 0.05


@pytest.fixture(scope="module")
def specs():
    return scale_topics(paper_topics(), SCALE)


@pytest.fixture(scope="module")
def columnar_world(specs):
    return build_world(specs, seed=SEED)


@pytest.fixture(scope="module")
def eager_world(specs):
    return build_world(specs, seed=SEED, use_columnar=False)


@pytest.fixture(scope="module")
def columnar_store(columnar_world):
    return PlatformStore(columnar_world)


@pytest.fixture(scope="module")
def eager_store(eager_world):
    return PlatformStore(eager_world)


class TestWorldEquivalence:
    def test_worlds_identical(self, columnar_world, eager_world):
        assert isinstance(columnar_world, ColumnarWorld)
        assert list(columnar_world.videos) == list(eager_world.videos)
        assert list(columnar_world.channels) == list(eager_world.channels)
        assert dict(columnar_world.videos) == dict(eager_world.videos)
        assert dict(columnar_world.channels) == dict(eager_world.channels)
        assert dict(columnar_world.threads_by_video) == dict(
            eager_world.threads_by_video
        )
        assert columnar_world.summary() == eager_world.summary()

    def test_videos_for_topic_order(self, columnar_world, eager_world, specs):
        for spec in specs:
            assert columnar_world.videos_for_topic(spec.key) == (
                eager_world.videos_for_topic(spec.key)
            )
        assert columnar_world.videos_for_topic("no-such-topic") == []

    @pytest.mark.parametrize("seed,scale", [(7, 0.02), (99, 0.03)])
    def test_other_seeds_and_scales(self, seed, scale):
        specs = scale_topics(paper_topics(), scale)
        fast = build_world(specs, seed=seed)
        slow = build_world(specs, seed=seed, use_columnar=False)
        assert dict(fast.videos) == dict(slow.videos)
        assert dict(fast.channels) == dict(slow.channels)
        assert dict(fast.threads_by_video) == dict(slow.threads_by_video)

    def test_without_comments(self):
        specs = scale_topics(paper_topics(), 0.02)
        fast = build_world(specs, seed=3, with_comments=False)
        slow = build_world(specs, seed=3, with_comments=False,
                           use_columnar=False)
        assert dict(fast.videos) == dict(slow.videos)
        assert dict(fast.threads_by_video) == {} == dict(slow.threads_by_video)


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
    def test_summary(self, columnar_store, eager_store):
        assert columnar_store.summary() == eager_store.summary()

    def test_token_postings(self, columnar_store, eager_store, specs):
        probes = ["higgs", "boson", "brexit", "official", "highlights",
                  "breaking", "5", "17", "nope-token", ""]
        for token in probes:
            assert columnar_store.candidates_for_tokens([token]) == (
                eager_store.candidates_for_tokens([token])
            ), token
        for spec in specs:
            tokens = spec.query.split()
            assert columnar_store.candidates_for_tokens(tokens) == (
                eager_store.candidates_for_tokens(tokens)
            )
        assert columnar_store.candidates_for_tokens([]) == (
            eager_store.candidates_for_tokens([])
        )

    def test_search_text_and_token_set(self, columnar_store, eager_store):
        for vid in list(eager_store.world.videos)[::37]:
            assert columnar_store.search_text(vid) == eager_store.search_text(vid)
            assert columnar_store.token_set(vid) == eager_store.token_set(vid)
        with pytest.raises(KeyError):
            columnar_store.search_text("missing-vid")

    def test_windows(self, columnar_store, eager_store, specs):
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
                fast = columnar_store.videos_in_window(after, before, as_of)
                slow = eager_store.videos_in_window(after, before, as_of)
                assert fast == slow

    def test_window_boundary_is_half_open(
        self, columnar_store, eager_store, specs
    ):
        # A video published exactly at ``published_before`` is excluded;
        # one published exactly at ``published_after`` is included.
        video = eager_store.world.videos_for_topic(specs[0].key)[5]
        t = video.published_at
        as_of = specs[0].window_end + timedelta(days=40)
        for store in (columnar_store, eager_store):
            upper = store.videos_in_window(specs[0].window_start, t, as_of)
            assert video.video_id not in {v.video_id for v in upper}
            lower = store.videos_in_window(t, None, as_of)
            assert video.video_id in {v.video_id for v in lower}

    def test_uploads_all_channels(self, columnar_store, eager_store, specs):
        as_of = max(s.window_end for s in specs) + timedelta(days=100)
        early = min(s.window_start for s in specs) + timedelta(days=3)
        for cid in eager_store.world.channels:
            for when in (as_of, early):
                fast = columnar_store.uploads(cid, when)
                slow = eager_store.uploads(cid, when)
                assert fast == slow, cid
        assert columnar_store.uploads("UCmissing", as_of) == []

    def test_uploads_matches_refilter_reference(
        self, columnar_store, eager_store, specs
    ):
        # The pre-optimization implementation: filter the whole upload
        # list per call, newest first.
        as_of = specs[0].focal_date + timedelta(days=400)
        by_channel: dict[str, list] = {}
        for v in eager_store.world.videos.values():
            by_channel.setdefault(v.channel_id, []).append(v)
        for cid, uploads in list(by_channel.items())[::17]:
            uploads.sort(key=lambda v: (v.published_at, v.video_id))
            reference = [
                v for v in reversed(uploads)
                if v.published_at <= as_of and v.alive_at(as_of)
            ]
            assert columnar_store.uploads(cid, as_of) == reference
            assert eager_store.uploads(cid, as_of) == reference

    def test_threads_and_replies(self, columnar_store, eager_store, specs):
        as_of = max(s.window_end for s in specs) + timedelta(days=100)
        threaded = [
            vid for vid, threads in eager_store.world.threads_by_video.items()
            if threads
        ]
        for vid in threaded[::25]:
            fast = columnar_store.threads_for_video(vid, as_of)
            slow = eager_store.threads_for_video(vid, as_of)
            assert fast == slow
            for thread in slow[:2]:
                assert columnar_store.thread(thread.thread_id) == thread
                assert columnar_store.replies_for_thread(
                    thread.thread_id, as_of
                ) == eager_store.replies_for_thread(thread.thread_id, as_of)
        assert columnar_store.thread("Ugmissing") is None


class TestEngineRuntimeParity:
    def test_topic_runtime_arrays(self, columnar_store, eager_store, specs):
        params = BehaviorParams()
        for spec in specs:
            fast = _TopicRuntime(spec, columnar_store, SEED, params)
            slow = _TopicRuntime(spec, eager_store, SEED, params)
            assert np.array_equal(fast.hour_of, slow.hour_of)
            assert np.array_equal(fast.pub_ts, slow.pub_ts)
            assert np.array_equal(fast.del_ts, slow.del_ts)
            assert [v.video_id for v in fast.videos] == (
                [v.video_id for v in slow.videos]
            )


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
    @pytest.mark.parametrize("use_columnar", [True, False])
    def test_event_emitted_with_census(self, use_columnar):
        specs = scale_topics(paper_topics(), 0.02)
        observer = CampaignObserver()
        world = build_world(
            specs, seed=11, use_columnar=use_columnar, observer=observer
        )
        events = [e for e in observer.tracer.iter_dicts()
                  if e["type"] == "world.build"]
        assert len(events) == 1
        event = events[0]
        assert event["path"] == ("columnar" if use_columnar else "legacy")
        assert event["videos"] == world.summary()["videos"]
        assert event["channels"] == world.summary()["channels"]
        assert event["threads"] == world.summary()["threads"]
        assert event["tokens"] == PlatformStore(world).summary()["tokens"]
        assert event["wall_s"] > 0.0
        assert observer.metrics.counters_with_prefix("world.builds")
        assert "World builds" in observer.report()

    def test_paths_report_the_same_census(self):
        specs = scale_topics(paper_topics(), 0.02)
        censuses = []
        for use_columnar in (True, False):
            observer = CampaignObserver()
            build_world(specs, seed=11, use_columnar=use_columnar,
                        observer=observer)
            event = next(e for e in observer.tracer.iter_dicts()
                         if e["type"] == "world.build")
            censuses.append(
                {k: event[k] for k in ("videos", "channels", "threads",
                                       "tokens")}
            )
        assert censuses[0] == censuses[1]


class TestBenchScenarioWorldKind:
    def test_world_kind_allows_big_scales(self):
        from repro.core.benchmark import PRIMARY_METRIC, BenchScenario

        assert PRIMARY_METRIC["world"] == "world_build_s"
        big = BenchScenario(scale=100.0, collections=1, kind="world")
        assert big.scale == 100.0
        with pytest.raises(ValueError):
            BenchScenario(scale=0.0, collections=1, kind="world")
        with pytest.raises(ValueError):
            BenchScenario(scale=2.0, collections=1, kind="campaign")


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
