"""Golden-equivalence and cache-correctness tests for the campaign fast path.

The fast path (query-plan caching, vectorized selection — see
``docs/PERFORMANCE.md``) is only admissible because it is *byte-identical*
to the reference semantics.  These tests pin that claim:

* repeated identical requests return identical responses (caches are
  transparent);
* cache keys cannot collide across queries, channels, or engine
  parameterizations;
* the locked shared state (a quota ledger, as the serve gateway's HTTP
  threads share a tenant's; an engine's caches) survives concurrent use.
"""

from __future__ import annotations

import threading
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.api import QuotaPolicy
from repro.api.errors import QuotaExceededError
from repro.api.matching import _phrase_pattern, parse_query
from repro.api.quota import QuotaLedger
from repro.sampling.engine import BehaviorParams, SearchBehaviorEngine
from repro.util.rng import stable_hash
from repro.util.timeutil import UTC, format_rfc3339, parse_rfc3339
from repro.world import build_world
from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics

SEED = 20250209


@pytest.fixture(scope="module")
def tiny_specs():
    """An extra-small corpus so the engine tests stay fast."""
    return scale_topics(paper_topics(), 0.05)


@pytest.fixture(scope="module")
def tiny_world(tiny_specs):
    return build_world(tiny_specs, seed=SEED)


class TestGoldenEquivalence:
    def test_repeated_identical_request_is_identical(self, fresh_client, small_specs):
        spec = small_specs[0]
        params = dict(
            q=spec.query,
            publishedAfter=format_rfc3339(spec.window_start),
            publishedBefore=format_rfc3339(spec.window_start + timedelta(hours=24)),
            type="video",
            order="date",
            maxResults=50,
        )
        first = fresh_client.search_page(**params)
        second = fresh_client.search_page(**params)
        assert first == second

    def test_hour_slices_union_to_full_window(self, fresh_client, small_specs):
        """The cached whole-window selection must agree with hourly slicing."""
        spec = small_specs[0]
        start = spec.window_start
        end = start + timedelta(hours=12)
        whole = fresh_client.search_all(
            q=spec.query,
            publishedAfter=format_rfc3339(start),
            publishedBefore=format_rfc3339(end),
            type="video",
            order="date",
            limit=100_000,
        )
        sliced = []
        for h in range(12):
            sliced.extend(
                fresh_client.search_all(
                    q=spec.query,
                    publishedAfter=format_rfc3339(start + timedelta(hours=h)),
                    publishedBefore=format_rfc3339(start + timedelta(hours=h + 1)),
                    type="video",
                    order="date",
                    limit=100_000,
                )
            )
        whole_ids = {item["id"]["videoId"] for item in whole}
        sliced_ids = {item["id"]["videoId"] for item in sliced}
        assert whole_ids == sliced_ids


class TestCacheCorrectness:
    def test_distinct_queries_do_not_collide(self, session_service, small_specs):
        engine = session_service.engine
        store = session_service.store
        as_of = datetime(2025, 2, 9, tzinfo=UTC)
        outcomes = {}
        for spec in small_specs[:2]:
            tokens = list(parse_query(spec.query).required_tokens)
            candidates = store.candidates_for_tokens(tokens)
            outcome = engine.execute(
                spec.query, candidates, None, None, as_of, order="date"
            )
            # Ask twice: the second answer comes from the selection cache.
            again = engine.execute(
                spec.query, candidates, None, None, as_of, order="date"
            )
            assert [v.video_id for v in outcome.videos] == [
                v.video_id for v in again.videos
            ]
            outcomes[spec.query] = {v.video_id for v in outcome.videos}
        a, b = outcomes.values()
        assert a != b

    def test_channel_filter_respected_through_cache(self, session_service, small_specs):
        engine = session_service.engine
        store = session_service.store
        spec = small_specs[0]
        as_of = datetime(2025, 2, 9, tzinfo=UTC)
        tokens = list(parse_query(spec.query).required_tokens)
        candidates = store.candidates_for_tokens(tokens)
        unfiltered = engine.execute(
            spec.query, candidates, None, None, as_of, order="date"
        )
        assert unfiltered.videos, "test needs a non-empty unfiltered result"
        channel = unfiltered.videos[0].channel_id
        filtered = engine.execute(
            spec.query, candidates, None, None, as_of, order="date",
            channel_id=channel,
        )
        assert filtered.videos
        assert all(v.channel_id == channel for v in filtered.videos)
        assert {v.video_id for v in filtered.videos} < {
            v.video_id for v in unfiltered.videos
        } | {v.video_id for v in filtered.videos}

    def test_engines_with_different_params_stay_independent(
        self, tiny_world, tiny_specs
    ):
        from repro.world.store import PlatformStore

        store = PlatformStore(tiny_world)
        spec = tiny_specs[0]
        as_of = datetime(2025, 2, 9, tzinfo=UTC)
        tokens = list(parse_query(spec.query).required_tokens)
        candidates = store.candidates_for_tokens(tokens)
        reference = SearchBehaviorEngine(store, tiny_specs, seed=SEED)
        ablated = SearchBehaviorEngine(
            store, tiny_specs, seed=SEED, params=BehaviorParams(bias_share=0.0)
        )
        ref = reference.execute(spec.query, candidates, None, None, as_of)
        abl = ablated.execute(spec.query, candidates, None, None, as_of)
        # Warm both caches, then re-check: neither engine can see the
        # other's memos, so the divergence persists.
        ref2 = reference.execute(spec.query, candidates, None, None, as_of)
        abl2 = ablated.execute(spec.query, candidates, None, None, as_of)
        assert [v.video_id for v in ref.videos] == [v.video_id for v in ref2.videos]
        assert [v.video_id for v in abl.videos] == [v.video_id for v in abl2.videos]
        assert {v.video_id for v in ref.videos} != {v.video_id for v in abl.videos}

    def test_phrase_pattern_is_memoized(self):
        assert _phrase_pattern("grammy awards") is _phrase_pattern("grammy awards")
        assert _phrase_pattern("grammy awards") is not _phrase_pattern("world cup")

    def test_empty_candidates_is_shared_frozen_corpus(self, session_service):
        store = session_service.store
        everything = store.candidates_for_tokens([])
        assert isinstance(everything, frozenset)
        assert store.candidates_for_tokens([]) is everything

    def test_saturation_row_matches_scalar_method(self, session_service):
        engine = session_service.engine
        runtime = next(iter(engine._topics.values()))
        density = runtime.density
        row = density.saturation_row(0.5, "2025-02-09")
        for hour in range(density.n_hours):
            assert row[hour] == density.hour_saturation(hour, 0.5, "2025-02-09")

    def test_stable_hash_matches_per_part_reference(self):
        import hashlib

        def reference(*parts):
            h = hashlib.blake2b(digest_size=8)
            for part in parts:
                h.update(str(part).encode("utf-8"))
                h.update(b"\x1f")
            return int.from_bytes(h.digest(), "big")

        cases = [(), ("a",), ("ab", "c"), ("a", "bc"), ("χ", 17, 2.5), (None, "")]
        for parts in cases:
            assert stable_hash(*parts) == reference(*parts)
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_timeutil_caches_preserve_semantics(self):
        dt = parse_rfc3339("2025-02-09T03:00:00Z")
        assert dt == datetime(2025, 2, 9, 3, tzinfo=UTC)
        assert format_rfc3339(dt) == "2025-02-09T03:00:00Z"
        with pytest.raises(ValueError):
            parse_rfc3339("not a timestamp")
        with pytest.raises(ValueError):
            parse_rfc3339(12345)
        with pytest.raises(ValueError):
            format_rfc3339(datetime(2025, 2, 9))  # naive

    def test_order_videos_computes_metrics_once_per_video(
        self, session_service, small_specs, monkeypatch
    ):
        from repro.sampling import engine as engine_mod

        store = session_service.store
        engine = session_service.engine
        spec = small_specs[0]
        as_of = datetime(2025, 2, 9, tzinfo=UTC)
        tokens = list(parse_query(spec.query).required_tokens)
        candidates = store.candidates_for_tokens(tokens)
        calls = []
        real = type(store).metrics_at

        def counting(self, video, when):
            calls.append(video.video_id)
            return real(self, video, when)

        monkeypatch.setattr(type(store), "metrics_at", counting)
        outcome = engine.execute(
            spec.query, candidates, None, None, as_of, order="viewCount"
        )
        assert outcome.videos
        assert len(calls) == len(set(calls)) == len(outcome.videos)


class TestThreadSafety:
    def test_concurrent_quota_charges_never_overshoot(self):
        ledger = QuotaLedger(policy=QuotaPolicy(daily_limit=5_000))
        day = "2025-02-09"
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(20):
                try:
                    ledger.charge("search.list", day)
                except QuotaExceededError:
                    pass
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 8 threads x 20 charges x 100 units = 16,000 offered; the ledger
        # must stop exactly at the limit, never beyond it.
        assert ledger.used_on(day) == 5_000
        assert ledger.total_used == 5_000

    def test_concurrent_engine_reads_are_consistent(self, tiny_world, tiny_specs):
        from repro.world.store import PlatformStore

        store = PlatformStore(tiny_world)
        engine = SearchBehaviorEngine(store, tiny_specs, seed=SEED)
        spec = tiny_specs[0]
        as_of = datetime(2025, 2, 9, tzinfo=UTC)
        tokens = list(parse_query(spec.query).required_tokens)
        candidates = store.candidates_for_tokens(tokens)
        results: list[list[str]] = [None] * 8
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            outcome = engine.execute(spec.query, candidates, None, None, as_of)
            results[i] = [v.video_id for v in outcome.videos]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


def test_hour_of_and_timestamps_agree_with_entities(session_service):
    """The precomputed per-topic arrays must mirror the Video dataclasses."""
    engine = session_service.engine
    for runtime in engine._topics.values():
        videos = runtime.videos
        pub = np.array([v.published_at.timestamp() for v in videos])
        assert np.array_equal(runtime.pub_ts, pub)
        for v, del_ts in zip(videos, runtime.del_ts):
            if v.deleted_at is None:
                assert del_ts == np.inf
            else:
                assert del_ts == v.deleted_at.timestamp()
