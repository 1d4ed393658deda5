"""Batched collection engine: byte identity against the per-call oracle.

The batch path (``engine="batch"``, the default) must be *invisible*:
identical campaign bytes, quota ledgers, request records, and response
envelopes, with the per-call path kept verbatim as the oracle.  These
tests pin that contract at every layer — engine sweep vs per-bin
execute, ``list_sweep`` envelopes vs paged ``list``, ``charge_many`` vs
sequential charges, interned-row mutation safety, and the collector's
fallback matrix (``repro.core.batch``).
"""

from __future__ import annotations

import copy
import dataclasses
import random
from datetime import timedelta

import pytest

from repro.api import QuotaPolicy, YouTubeClient, build_service
from repro.api.errors import QuotaExceededError, SweepQuotaShortfall
from repro.api.quota import QuotaLedger
from repro.api.transport import FaultInjector, LatencyModel, Transport
from repro.core import paper_campaign_config, run_campaign
from repro.core.batch import (
    ENGINES,
    run_topic_sweep,
    sweep_eligibility,
    transport_fault_free,
)
from repro.core.collector import SnapshotCollector
from repro.obs import CampaignObserver
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.util.timeutil import format_rfc3339, hour_range
from repro.world import build_world
from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics

SEED = 20250209
SCALE = 0.05
COLLECTIONS = 2


@pytest.fixture(scope="module")
def tiny_specs():
    return scale_topics(paper_topics(), SCALE)


@pytest.fixture(scope="module")
def tiny_world(tiny_specs):
    return build_world(tiny_specs, seed=SEED)


def _campaign_config(specs):
    return dataclasses.replace(
        paper_campaign_config(topics=specs),
        n_scheduled=COLLECTIONS,
        skipped_indices=frozenset(),
        comment_snapshot_indices=(),
    )


def _run(world, specs, tmp_path, name, **kwargs):
    """One campaign run; returns (file bytes, usage-by-day, call count)."""
    service = build_service(
        world, seed=SEED, specs=specs,
        quota_policy=QuotaPolicy(researcher_program=True),
    )
    campaign = run_campaign(
        _campaign_config(specs), YouTubeClient(service), **kwargs
    )
    path = tmp_path / f"{name}.jsonl"
    campaign.save(path)
    return (
        path.read_bytes(),
        dict(service.quota.usage_by_day()),
        service.transport.total_calls,
    )


@pytest.fixture(scope="module")
def percall_run(tiny_world, tiny_specs, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("percall")
    return _run(tiny_world, tiny_specs, tmp, "percall", engine="per-call")


class TestCampaignIdentity:
    """Batch and per-call campaigns are byte-for-byte interchangeable."""

    def test_batch_serial_is_byte_identical(
        self, tiny_world, tiny_specs, tmp_path, percall_run
    ):
        got = _run(tiny_world, tiny_specs, tmp_path, "batch", engine="batch")
        assert got == percall_run

    def test_unknown_engine_rejected(self, session_client, small_specs):
        with pytest.raises(ValueError, match="unknown engine"):
            SnapshotCollector(session_client, small_specs, engine="bulk")
        assert ENGINES == ("batch", "per-call")


class TestEngineSweepEquivalence:
    """execute_sweep == one execute per bin, for arbitrary windows."""

    def _engine_and_candidates(self, service, query):
        endpoint = service.search
        _parsed, candidates = endpoint._query_plan(query)
        return endpoint._engine, candidates

    def test_property_sweep_matches_per_bin_execute(
        self, session_service, small_specs
    ):
        rng = random.Random(0xBA7C4)
        for spec in small_specs[:3]:
            engine, candidates = self._engine_and_candidates(
                session_service, spec.query
            )
            hours = list(hour_range(spec.window_start, spec.window_end))
            as_of = spec.window_end + timedelta(days=rng.randint(1, 30))
            order = rng.choice(["date", "title", "viewCount", "relevance"])
            bounds = []
            for _ in range(12):
                start = rng.choice(hours)
                width = timedelta(hours=rng.randint(1, 48))
                bounds.append((start, start + width))
            # Open-ended windows exercise the +/- inf searchsorted edges.
            bounds.append((None, rng.choice(hours)))
            bounds.append((rng.choice(hours), None))
            bounds.append((None, None))

            sweep = engine.execute_sweep(
                spec.query, candidates, bounds, as_of, order=order
            )
            assert len(sweep.bin_videos) == len(bounds)
            for (after, before), videos, total in zip(
                bounds, sweep.bin_videos, sweep.bin_totals
            ):
                single = engine.execute(
                    spec.query, candidates, after, before, as_of, order=order
                )
                ids = [v.video_id for v in videos]
                assert ids == [v.video_id for v in single.videos]
                assert total == single.total_results

    def test_sweep_with_channel_filter_matches(
        self, session_service, small_specs
    ):
        spec = small_specs[0]
        engine, candidates = self._engine_and_candidates(
            session_service, spec.query
        )
        store_world = session_service.search._store.world
        channel = store_world.videos_for_topic(spec.key)[0].channel_id
        as_of = spec.window_end + timedelta(days=3)
        hours = list(hour_range(spec.window_start, spec.window_end))
        bounds = [(h, h + timedelta(hours=6)) for h in hours[::40]]
        sweep = engine.execute_sweep(
            spec.query, candidates, bounds, as_of, channel_id=channel
        )
        for (after, before), videos, total in zip(
            bounds, sweep.bin_videos, sweep.bin_totals
        ):
            single = engine.execute(
                spec.query, candidates, after, before, as_of,
                channel_id=channel,
            )
            assert [v.video_id for v in videos] == [
                v.video_id for v in single.videos
            ]
            assert total == single.total_results

    def test_sweep_bins_are_independently_owned(
        self, session_service, small_specs
    ):
        spec = small_specs[0]
        engine, candidates = self._engine_and_candidates(
            session_service, spec.query
        )
        as_of = spec.window_end + timedelta(days=1)
        bounds = [(None, None), (None, None)]
        sweep = engine.execute_sweep(spec.query, candidates, bounds, as_of)
        before = [v.video_id for v in sweep.bin_videos[1]]
        sweep.bin_videos[0].clear()  # mutating one bin ...
        again = engine.execute_sweep(spec.query, candidates, bounds, as_of)
        # ... must corrupt neither its sibling nor a later sweep.
        assert [v.video_id for v in sweep.bin_videos[1]] == before
        assert [v.video_id for v in again.bin_videos[0]] == before


class TestListSweepEnvelopes:
    """list_sweep materializes exactly what paging list() would."""

    def _bounds(self, spec, step=37, width=24):
        hours = list(hour_range(spec.window_start, spec.window_end))
        return [
            (
                format_rfc3339(h),
                format_rfc3339(h + timedelta(hours=width)),
            )
            for h in hours[::step]
        ]

    def test_envelopes_match_paged_list(self, tiny_world, tiny_specs):
        spec = tiny_specs[0]
        bounds = self._bounds(spec)

        sweep_service = build_service(tiny_world, seed=SEED, specs=tiny_specs)
        swept = sweep_service.search.list_sweep(
            q=spec.query, bounds=bounds, maxResults=50, order="date"
        )

        paged_service = build_service(tiny_world, seed=SEED, specs=tiny_specs)
        for (after, before), pages in zip(bounds, swept):
            reference = []
            token = None
            while True:
                page = paged_service.search.list(
                    q=spec.query, publishedAfter=after, publishedBefore=before,
                    maxResults=50, order="date", pageToken=token,
                )
                reference.append(page)
                token = page.get("nextPageToken")
                if token is None:
                    break
            assert pages == reference

    def test_fields_projection_matches(self, tiny_world, tiny_specs):
        spec = tiny_specs[0]
        bounds = self._bounds(spec, step=61)
        fields = "items(id/videoId,snippet/title),nextPageToken"

        sweep_service = build_service(tiny_world, seed=SEED, specs=tiny_specs)
        swept = sweep_service.search.list_sweep(
            q=spec.query, bounds=bounds, order="date", fields=fields
        )
        paged_service = build_service(tiny_world, seed=SEED, specs=tiny_specs)
        for (after, before), pages in zip(bounds, swept):
            page = paged_service.search.list(
                q=spec.query, publishedAfter=after, publishedBefore=before,
                order="date", fields=fields,
            )
            assert pages[0] == page

    def test_interned_rows_are_mutation_safe(self, tiny_world, tiny_specs):
        spec = tiny_specs[0]
        bounds = self._bounds(spec)
        service = build_service(tiny_world, seed=SEED, specs=tiny_specs)
        first = service.search.list_sweep(q=spec.query, bounds=bounds)
        pristine = copy.deepcopy(
            [[page["items"] for page in pages] for pages in first]
        )
        # Deep-mutate every item of the first materialization.
        for pages in first:
            for page in pages:
                for item in page["items"]:
                    item["snippet"]["title"] = "VANDALIZED"
                    item["id"]["videoId"] = "xxx"
                    item["etag"] = "0"
        second = service.search.list_sweep(q=spec.query, bounds=bounds)
        got = [[page["items"] for page in pages] for pages in second]
        assert got == pristine

    def test_video_items_share_no_state_with_resource_renderer(
        self, tiny_world, tiny_specs
    ):
        """videos.list's interned static parts mirror video_resource exactly."""
        from repro.api.resources import video_resource

        service = build_service(tiny_world, seed=SEED, specs=tiny_specs)
        video = tiny_world.videos_for_topic(tiny_specs[0].key)[0]
        response = service.videos.list(
            id=video.video_id, part="snippet,contentDetails,statistics"
        )
        item = response["items"][0]
        as_of = service.clock.now()
        expected = video_resource(
            video, service.videos._store, as_of,
            {"snippet", "contentDetails", "statistics"},
        )
        assert item == expected
        # Mutating the handed-out item (tags included) must not leak into
        # the interned cache feeding the next call.
        item["snippet"]["tags"].append("SPRAYPAINT")
        item["snippet"]["title"] = "VANDALIZED"
        item["contentDetails"]["duration"] = "PT0S"
        again = service.videos.list(
            id=video.video_id, part="snippet,contentDetails,statistics"
        )
        assert again["items"][0] == expected

    def test_related_candidates_memoized(self, tiny_world, tiny_specs):
        service = build_service(tiny_world, seed=SEED, specs=tiny_specs)
        video = tiny_world.videos_for_topic(tiny_specs[0].key)[0]
        first = service.search._related_candidates(video.video_id)
        second = service.search._related_candidates(video.video_id)
        assert first is second  # memoized per seed video
        assert video.video_id not in first
        topic_ids = {
            v.video_id for v in tiny_world.videos_for_topic(tiny_specs[0].key)
        }
        assert first == topic_ids - {video.video_id}


class TestChargeMany:
    """charge_many == a loop of charge(), including the crossing error."""

    def test_matches_sequential_charges(self):
        a = QuotaLedger(policy=QuotaPolicy(daily_limit=10_000))
        b = QuotaLedger(policy=QuotaPolicy(daily_limit=10_000))
        day = "2025-02-09"
        last = a.charge_many("search.list", day, 7)
        for _ in range(7):
            expected = b.charge("search.list", day)
        assert last == expected
        assert a.usage_by_day() == b.usage_by_day()
        assert a.total_used == b.total_used == 700

    def test_crossing_raises_identical_message_and_bills_prior_calls(self):
        batched = QuotaLedger(policy=QuotaPolicy(daily_limit=500))
        percall = QuotaLedger(policy=QuotaPolicy(daily_limit=500))
        day = "2025-02-09"
        with pytest.raises(QuotaExceededError) as batch_exc:
            batched.charge_many("search.list", day, 7)
        with pytest.raises(QuotaExceededError) as percall_exc:
            for _ in range(7):
                percall.charge("search.list", day)
        assert str(batch_exc.value) == str(percall_exc.value)
        # The charges before the crossing stay billed on both paths.
        assert batched.usage_by_day() == percall.usage_by_day() == {day: 500}

    def test_after_each_fires_per_accepted_charge(self):
        ledger = QuotaLedger(policy=QuotaPolicy(daily_limit=10_000))
        seen = []
        ledger.charge_many(
            "videos.list", "2025-02-09", 5, after_each=lambda: seen.append(1)
        )
        assert len(seen) == 5

    def test_negative_calls_rejected(self):
        ledger = QuotaLedger()
        with pytest.raises(ValueError):
            ledger.charge_many("search.list", "2025-02-09", -1)


class TestTransportBatching:
    """observe_many/draw_many are bit-identical to their scalar loops."""

    def test_draw_many_matches_scalar_draws(self):
        scalar = LatencyModel(seed=7)
        vector = LatencyModel(seed=7)
        expected = [scalar.draw() for _ in range(64)]
        assert vector.draw_many(64).tolist() == expected

    def test_observe_many_matches_observe_loop(self):
        from datetime import datetime

        from repro.util.timeutil import UTC

        at = datetime(2025, 2, 9, tzinfo=UTC)
        one = Transport(latency=LatencyModel(seed=3))
        many = Transport(latency=LatencyModel(seed=3))
        expected = [one.observe("search.list", at, 100) for _ in range(9)]
        got = many.observe_many("search.list", at, 100, 9)
        assert got == expected
        assert many.records == one.records
        assert many.total_calls == one.total_calls
        assert [hash(r) for r in many.records] == [hash(r) for r in expected]


class TestFallbackMatrix:
    """Every row of the eligibility matrix forces the per-call oracle."""

    def _verdict(self, client, **overrides):
        kwargs = dict(
            engine="batch", tolerate_failures=False, resumed_bins=False
        )
        kwargs.update(overrides)
        return sweep_eligibility(client, **kwargs)

    def test_clean_serial_batch_is_eligible(self, fresh_client):
        assert self._verdict(fresh_client).eligible

    def test_per_call_engine_opts_out(self, fresh_client):
        verdict = self._verdict(fresh_client, engine="per-call")
        assert not verdict.eligible and verdict.reason == "engine=per-call"

    def test_tolerate_failures_falls_back(self, fresh_client):
        assert not self._verdict(fresh_client, tolerate_failures=True).eligible

    def test_resumed_bins_fall_back(self, fresh_client):
        assert not self._verdict(fresh_client, resumed_bins=True).eligible

    def test_armed_fault_injector_falls_back(self, small_world, small_specs):
        service = build_service(
            small_world, seed=SEED, specs=small_specs,
            transport=Transport(faults=FaultInjector(probability=0.5, seed=1)),
        )
        verdict = self._verdict(YouTubeClient(service))
        assert not verdict.eligible and verdict.reason == "fault plan armed"

    def test_fault_plan_with_specs_falls_back_even_when_exhausted(self):
        plan = FaultPlan((FaultSpec(start=0, count=1, error="backendError"),))
        assert not transport_fault_free(plan)
        assert transport_fault_free(FaultPlan(()))
        assert transport_fault_free(FaultInjector(probability=0.0))
        assert not transport_fault_free(object())  # unknown shape: armed

    def test_open_breaker_falls_back(self, fresh_service):
        breaker = CircuitBreaker(failure_threshold=1)
        client = YouTubeClient(fresh_service, circuit_breaker=breaker)
        assert self._verdict(client).eligible
        breaker.record_failure("search.list")
        assert not self._verdict(client).eligible

    def test_batch_run_emits_sweep_events(self, tiny_world, tiny_specs):
        observer = CampaignObserver()
        service = build_service(
            tiny_world, seed=SEED, specs=tiny_specs, observer=observer,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        run_campaign(
            _campaign_config(tiny_specs), YouTubeClient(service),
            engine="batch",
        )
        sweeps = observer.tracer.of_type("collect.sweep")
        assert len(sweeps) == COLLECTIONS * len(tiny_specs)
        for event in sweeps:
            fields = event.fields
            assert set(fields) == {"topic", "bins", "calls", "units", "videos"}
            assert fields["units"] == fields["calls"] * 100
        # Per-bin query summaries still ride along, one per hour bin.
        queries = observer.tracer.of_type("search.query")
        assert len(queries) == COLLECTIONS * sum(
            len(list(hour_range(s.window_start, s.window_end)))
            for s in tiny_specs
        )

    def test_per_call_run_emits_no_sweep_events(self, tiny_world, tiny_specs):
        observer = CampaignObserver()
        service = build_service(
            tiny_world, seed=SEED, specs=tiny_specs, observer=observer,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        run_campaign(
            _campaign_config(tiny_specs), YouTubeClient(service),
            engine="per-call",
        )
        assert observer.tracer.of_type("collect.sweep") == []


class _BinRecorder:
    """A partial store that keeps each recorded bin's reported spend."""

    path = "memory"

    def __init__(self) -> None:
        self.bins: list[tuple[str, int, int]] = []

    def load(self):
        return None

    def begin(self, index, collected_at) -> None:
        pass

    def record_hour(self, topic, hour, ids, pool, units) -> None:
        self.bins.append((topic, hour, units))

    def clear(self) -> None:
        pass


class TestPerBinSpend:
    """Both engines report each bin's own spend to the partial store."""

    def test_engines_record_identical_per_bin_units(
        self, tiny_world, tiny_specs
    ):
        recorded = {}
        for engine in ENGINES:
            service = build_service(
                tiny_world, seed=SEED, specs=tiny_specs,
                quota_policy=QuotaPolicy(researcher_program=True),
            )
            recorder = _BinRecorder()
            SnapshotCollector(
                YouTubeClient(service), tiny_specs, collect_metadata=False,
                partial=recorder, engine=engine,
            ).collect(0)
            assert sum(units for *_, units in recorder.bins) == (
                service.quota.total_used
            )
            recorded[engine] = recorder.bins
        assert recorded["batch"] == recorded["per-call"]


class TestQuotaShortfall:
    """A sweep that cannot fit bills nothing and replays per call."""

    def test_shortfall_raises_before_billing(self, tiny_world, tiny_specs):
        spec = tiny_specs[0]
        service = build_service(
            tiny_world, seed=SEED, specs=tiny_specs,
            quota_policy=QuotaPolicy(daily_limit=300),
        )
        hours = list(hour_range(spec.window_start, spec.window_end))
        bounds = [
            (format_rfc3339(h), format_rfc3339(h + timedelta(hours=1)))
            for h in hours[:10]
        ]
        with pytest.raises(SweepQuotaShortfall):
            service.search.sweep(q=spec.query, bounds=bounds, order="date")
        assert service.quota.total_used == 0
        assert service.transport.total_calls == 0

    def test_run_topic_sweep_returns_none_on_shortfall(
        self, tiny_world, tiny_specs
    ):
        spec = tiny_specs[0]
        service = build_service(
            tiny_world, seed=SEED, specs=tiny_specs,
            quota_policy=QuotaPolicy(daily_limit=300),
        )
        client = YouTubeClient(service)
        bounds = [
            (format_rfc3339(h), format_rfc3339(h + timedelta(hours=1)))
            for h in list(hour_range(spec.window_start, spec.window_end))[:10]
        ]
        assert run_topic_sweep(client, spec.query, bounds) is None
        assert service.quota.total_used == 0

    def test_shortfall_is_not_an_api_error(self):
        from repro.api.errors import ApiError

        # Internal control flow for the fallback, never a client-visible
        # API failure — the retry policy must not see it.
        assert not issubclass(SweepQuotaShortfall, ApiError)
