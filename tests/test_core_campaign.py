"""Tests for campaign configuration, collection, and persistence."""

from __future__ import annotations

import dataclasses
from datetime import datetime, timedelta

import pytest

from repro.core.datasets import CampaignResult
from repro.core.experiments import CampaignConfig, paper_campaign_config
from repro.util.timeutil import UTC


class TestPaperConfig:
    def test_schedule_matches_paper(self):
        cfg = paper_campaign_config()
        dates = cfg.collection_dates
        assert len(dates) == 16  # 17 scheduled, one skipped
        assert dates[0] == datetime(2025, 2, 9, tzinfo=UTC)
        assert dates[-1] == datetime(2025, 4, 30, tzinfo=UTC)
        # April 5 (index 11) was skipped.
        assert datetime(2025, 4, 5, tzinfo=UTC) not in dates
        # Gaps are 5 days except the 10-day hole around the skip.
        gaps = {(b - a).days for a, b in zip(dates, dates[1:])}
        assert gaps == {5, 10}

    def test_queries_per_snapshot(self):
        cfg = paper_campaign_config()
        assert cfg.queries_per_snapshot == 4032  # 24h x 28d x 6 topics
        assert cfg.quota_per_snapshot() == 403_200

    def test_comment_snapshots_first_and_last(self):
        cfg = paper_campaign_config()
        assert cfg.comment_snapshot_indices == (0, 15)
        cfg_none = paper_campaign_config(with_comments=False)
        assert cfg_none.comment_snapshot_indices == ()

    def test_validation(self):
        from repro.world.topics import PAPER_TOPICS

        with pytest.raises(ValueError):
            CampaignConfig(
                topics=PAPER_TOPICS, start_date=datetime(2025, 1, 1), n_scheduled=5
            )
        with pytest.raises(ValueError):
            CampaignConfig(
                topics=PAPER_TOPICS,
                start_date=datetime(2025, 1, 1, tzinfo=UTC),
                n_scheduled=5,
                skipped_indices=frozenset({5}),
            )
        with pytest.raises(ValueError):
            CampaignConfig(topics=(), start_date=datetime(2025, 1, 1, tzinfo=UTC))


class TestCampaignResult:
    def test_snapshot_count_and_dates(self, mini_campaign):
        assert mini_campaign.n_collections == 10
        assert [s.index for s in mini_campaign.snapshots] == list(range(10))
        deltas = [
            (b.collected_at - a.collected_at).days
            for a, b in zip(mini_campaign.snapshots, mini_campaign.snapshots[1:])
        ]
        assert all(d == 5 for d in deltas)

    def test_topic_coverage(self, mini_campaign, small_specs):
        assert set(mini_campaign.topic_keys) == {s.key for s in small_specs}
        for snap in mini_campaign.snapshots:
            for spec in small_specs:
                assert spec.key in snap.topics

    def test_returned_counts_near_budget(self, mini_campaign, small_specs):
        for spec in small_specs:
            counts = [
                snap.topic(spec.key).total_returned
                for snap in mini_campaign.snapshots
            ]
            mean = sum(counts) / len(counts)
            assert 0.65 * spec.return_budget <= mean <= 1.25 * spec.return_budget

    def test_hours_disjoint_within_snapshot(self, mini_campaign):
        for snap in mini_campaign.snapshots:
            for ts in snap.topics.values():
                all_ids = [v for ids in ts.hour_video_ids.values() for v in ids]
                assert len(all_ids) == len(set(all_ids))

    def test_pool_sizes_for_every_hour(self, mini_campaign, small_specs):
        for spec in small_specs:
            for snap in mini_campaign.snapshots:
                assert len(snap.topic(spec.key).pool_sizes) == spec.window_hours

    def test_metadata_attached(self, mini_campaign, small_specs):
        for spec in small_specs:
            ts = mini_campaign.snapshots[0].topic(spec.key)
            assert ts.video_meta
            coverage = len(ts.video_meta) / max(len(ts.video_ids), 1)
            assert coverage > 0.9  # gaps are rare
            assert ts.channel_meta

    def test_comments_on_first_and_last_only(self, mini_campaign):
        has_comments = [
            any(ts.comments for ts in snap.topics.values())
            for snap in mini_campaign.snapshots
        ]
        assert has_comments[0] and has_comments[-1]
        assert not any(has_comments[1:-1])

    def test_merged_meta_first_wins(self, mini_campaign):
        topic = mini_campaign.topic_keys[0]
        merged = mini_campaign.merged_video_meta(topic)
        ever = mini_campaign.ever_returned(topic)
        assert set(merged) <= ever
        assert len(merged) >= 0.97 * len(ever)

    def test_index_mismatch_rejected(self, mini_campaign):
        snapshots = list(mini_campaign.snapshots)
        snapshots[0] = dataclasses.replace(snapshots[0], index=3)
        with pytest.raises(ValueError):
            CampaignResult(topic_keys=mini_campaign.topic_keys, snapshots=snapshots)


class TestPersistence:
    def test_roundtrip(self, mini_campaign, tmp_path):
        path = tmp_path / "campaign.jsonl"
        mini_campaign.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.topic_keys == mini_campaign.topic_keys
        assert loaded.n_collections == mini_campaign.n_collections
        for topic in mini_campaign.topic_keys:
            assert loaded.sets_for_topic(topic) == mini_campaign.sets_for_topic(topic)
        ts_orig = mini_campaign.snapshots[0].topic(topic)
        ts_load = loaded.snapshots[0].topic(topic)
        assert ts_load.pool_sizes == ts_orig.pool_sizes
        assert ts_load.video_meta == ts_orig.video_meta
        assert ts_load.comments == ts_orig.comments

    def test_gzip_roundtrip(self, mini_campaign, tmp_path):
        path = tmp_path / "campaign.jsonl.gz"
        mini_campaign.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.n_collections == mini_campaign.n_collections


class TestQuotaAccounting:
    def test_snapshot_quota_cost(self, small_world, small_specs):
        """One snapshot costs queries x 100 plus the cheap metadata calls."""
        from repro.api import QuotaPolicy, YouTubeClient, build_service
        from repro.core.collector import SnapshotCollector

        service = build_service(
            small_world, seed=20250209, specs=small_specs,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        client = YouTubeClient(service)
        collector = SnapshotCollector(client, small_specs, collect_metadata=False)
        collector.collect(0)
        expected_searches = sum(spec.window_hours for spec in small_specs)
        day = service.clock.today()
        # Hourly bins never exceed 50 results at this scale -> 1 page each.
        assert service.quota.used_on(day) == expected_searches * 100


class TestCheckpointing:
    """A spill directory is the campaign's one durable store: a rerun over
    it resumes, and a store that does not fit the run is refused."""

    def _config(self, small_specs, n):
        cfg = paper_campaign_config(topics=small_specs, with_comments=False)
        return dataclasses.replace(
            cfg, n_scheduled=n, skipped_indices=frozenset(),
            comment_snapshot_indices=(), collect_metadata=False,
        )

    def _client(self, small_world, small_specs, observer=None):
        from repro.api import QuotaPolicy, YouTubeClient, build_service

        service = build_service(
            small_world, seed=20250209, specs=small_specs,
            quota_policy=QuotaPolicy(researcher_program=True),
            observer=observer,
        )
        return YouTubeClient(service)

    def test_resume_skips_collected_snapshots(self, small_world, small_specs, tmp_path):
        from repro.core.campaign import run_campaign
        from repro.core.spill import SpillStore

        spill = tmp_path / "camp.spill"

        # First run: 2 of 4 collections, then "crash".
        partial = run_campaign(
            self._config(small_specs, 2),
            self._client(small_world, small_specs), spill=spill,
        )
        assert partial.snapshots == []  # a spilled run keeps none in memory
        assert SpillStore.open(spill).n_snapshots == 2

        # Second run with the full schedule resumes from the store.
        client = self._client(small_world, small_specs)
        calls_before = client.service.transport.total_calls
        run_campaign(self._config(small_specs, 4), client, spill=spill)
        store = SpillStore.open(spill)
        assert store.n_snapshots == 4
        # Only 2 new snapshots' worth of searches were issued.
        new_calls = client.service.transport.total_calls - calls_before
        expected = 2 * sum(spec.window_hours for spec in small_specs)
        assert new_calls == expected
        # Resumed snapshots equal what a clean run would have produced
        # (determinism in the request date).
        clean = run_campaign(
            self._config(small_specs, 4), self._client(small_world, small_specs)
        )
        assert store.load().snapshots == clean.snapshots

    def test_mismatched_checkpoint_rejected(self, small_world, small_specs, tmp_path):
        from repro.core.campaign import run_campaign

        spill = tmp_path / "camp.spill"
        run_campaign(
            self._config(small_specs, 2),
            self._client(small_world, small_specs), spill=spill,
        )
        # Resuming under a different schedule (shifted start) must fail.
        shifted = dataclasses.replace(
            self._config(small_specs, 4),
            start_date=datetime(2025, 3, 1, tzinfo=UTC),
        )
        with pytest.raises(ValueError, match="schedule"):
            run_campaign(
                shifted, self._client(small_world, small_specs), spill=spill
            )

    def test_corrupt_checkpoint_rejected_with_clear_message(
        self, small_world, small_specs, tmp_path
    ):
        from repro.core.campaign import run_campaign

        spill = tmp_path / "camp.spill"
        spill.mkdir()
        (spill / "manifest.json").write_text("not json at all\n")
        with pytest.raises(ValueError, match="corrupt manifest"):
            run_campaign(
                self._config(small_specs, 2),
                self._client(small_world, small_specs), spill=spill,
            )
        # A spilled data file cut short is refused too, not re-collected.
        spill = tmp_path / "torn.spill"
        run_campaign(
            self._config(small_specs, 1),
            self._client(small_world, small_specs), spill=spill,
        )
        data = spill / "snap-00000.jsonl"
        data.write_bytes(data.read_bytes()[:-10])
        with pytest.raises(ValueError, match="corrupt store"):
            run_campaign(
                self._config(small_specs, 2),
                self._client(small_world, small_specs), spill=spill,
            )

    def test_wrong_shape_checkpoint_rejected(self, small_world, small_specs, tmp_path):
        """Valid JSON that is not a spill manifest, and a campaign JSONL
        file where the store should be, also raise clearly."""
        from repro.core.campaign import run_campaign

        spill = tmp_path / "camp.spill"
        spill.mkdir()
        (spill / "manifest.json").write_text('{"seq": 0, "type": "api.call"}')
        with pytest.raises(ValueError, match="unsupported spill format"):
            run_campaign(
                self._config(small_specs, 2),
                self._client(small_world, small_specs), spill=spill,
            )
        saved = tmp_path / "camp.jsonl"
        run_campaign(
            self._config(small_specs, 1), self._client(small_world, small_specs)
        ).save(saved)
        with pytest.raises(ValueError, match="not a spill directory"):
            run_campaign(
                self._config(small_specs, 2),
                self._client(small_world, small_specs), spill=saved,
            )

    def test_checkpoint_beyond_schedule_rejected(
        self, small_world, small_specs, tmp_path
    ):
        from repro.core.campaign import run_campaign

        spill = tmp_path / "camp.spill"
        run_campaign(
            self._config(small_specs, 3),
            self._client(small_world, small_specs), spill=spill,
        )
        # Resuming under a *shorter* schedule must refuse the extra snapshot.
        with pytest.raises(ValueError, match="beyond"):
            run_campaign(
                self._config(small_specs, 2),
                self._client(small_world, small_specs), spill=spill,
            )

    def test_resume_emits_checkpoint_events(self, small_world, small_specs, tmp_path):
        from repro.core.campaign import run_campaign
        from repro.obs import CampaignObserver

        spill = tmp_path / "camp.spill"
        obs1 = CampaignObserver()
        run_campaign(
            self._config(small_specs, 2),
            self._client(small_world, small_specs, observer=obs1), spill=spill,
        )
        # A fresh store is not a resume; each snapshot is a spill write.
        assert obs1.tracer.of_type("campaign.checkpoint") == []
        writes = obs1.tracer.of_type("spill.write")
        assert [e.fields["index"] for e in writes] == [0, 1]

        obs2 = CampaignObserver()
        run_campaign(
            self._config(small_specs, 4),
            self._client(small_world, small_specs, observer=obs2), spill=spill,
        )
        events = obs2.tracer.of_type("campaign.checkpoint")
        assert [e.fields["action"] for e in events] == ["resume-spill"]
        assert events[0].fields["snapshots"] == 2
        assert events[0].fields["path"] == str(spill)
        writes = obs2.tracer.of_type("spill.write")
        assert [e.fields["index"] for e in writes] == [2, 3]
