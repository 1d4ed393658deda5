"""Query-level checkpointing, degraded snapshots, and gap-aware analyses."""

from __future__ import annotations

import dataclasses
from datetime import datetime, timezone

import pytest

from repro.api import YouTubeClient, build_service
from repro.api.errors import QuotaExceededError, TransientServerError
from repro.api.quota import QuotaPolicy
from repro.api.transport import Transport
from repro.core.attrition import presence_sequences
from repro.core.campaign import run_campaign
from repro.core.collector import SnapshotCollector
from repro.core.consistency import (
    consistency_series,
    gap_aware_consistency_series,
    jaccard,
)
from repro.core.datasets import CampaignResult, Snapshot, TopicSnapshot
from repro.core.experiments import paper_campaign_config
from repro.core.index import campaign_index
from repro.core.spill import SpillStore
from repro.obs import CampaignObserver
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    PartialSnapshotStore,
    RetryPolicy,
)
from repro.world.corpus import build_world, scale_topic
from repro.world.topics import paper_topics

SEED = 7
WHEN = datetime(2025, 3, 1, tzinfo=timezone.utc)


def _mini_config(collections: int = 2):
    """One tiny topic, 48 hour bins per snapshot: fast yet structurally real."""
    smallest = min(paper_topics(), key=lambda spec: spec.n_videos)
    spec = dataclasses.replace(scale_topic(smallest, 0.05), window_days=1)
    config = paper_campaign_config(
        topics=(spec,), collect_metadata=False, with_comments=False
    )
    return dataclasses.replace(
        config, n_scheduled=collections, skipped_indices=frozenset()
    )


def _service(config, world, observer=None):
    return build_service(
        world, seed=SEED, specs=config.topics,
        quota_policy=QuotaPolicy(researcher_program=True), observer=observer,
    )


class TestPartialSnapshotStore:
    def test_round_trip(self, tmp_path):
        store = PartialSnapshotStore(tmp_path / "partial.jsonl")
        assert store.load() is None and not store.exists()
        store.begin(3, WHEN)
        store.record_hour("higgs", 0, ["a", "b"], 17)
        store.record_hour("higgs", 5, [], 0)
        store.record_hour("other", 0, ["c"], 1)
        partial = store.load()
        assert partial.index == 3
        assert partial.collected_at == WHEN
        assert partial.completed_for("higgs") == {0: (["a", "b"], 17), 5: ([], 0)}
        assert partial.completed_for("other") == {0: (["c"], 1)}

    def test_truncated_final_line_is_dropped(self, tmp_path):
        store = PartialSnapshotStore(tmp_path / "p")
        store.begin(0, WHEN)
        store.record_hour("t", 0, ["a"], 1)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "hour", "topic": "t", "hour": 1, "ids": ["b')
        partial = store.load()
        assert partial.completed_for("t") == {0: (["a"], 1)}

    def test_resume_after_torn_line_appends_a_line_of_its_own(self, tmp_path):
        store = PartialSnapshotStore(tmp_path / "p")
        store.begin(0, WHEN)
        store.record_hour("t", 0, ["a"], 1)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "hour", "topic": "t", "hour": 1, "ids": ["b')
        # A resume loads the partial, then appends without begin().
        assert store.load().completed_for("t") == {0: (["a"], 1)}
        store.record_hour("t", 1, ["b"], 1)
        store.record_hours("t", [(2, ["c"], 1, 100), (3, [], 0, 100)])
        assert store.load().completed_for("t") == {
            0: (["a"], 1), 1: (["b"], 1), 2: (["c"], 1), 3: ([], 0),
        }

    def test_record_hours_matches_record_hour(self, tmp_path):
        one = PartialSnapshotStore(tmp_path / "one")
        group = PartialSnapshotStore(tmp_path / "group")
        bins = [(0, ["a", "b"], 17, 100), (1, [], 0, 100), (2, ["c"], 1, 100)]
        for store in (one, group):
            store.begin(0, WHEN)
        for hour, ids, pool, units in bins:
            one.record_hour("t", hour, ids, pool, units)
        group.record_hours("t", bins)
        assert group.path.read_bytes() == one.path.read_bytes()

    def test_corrupt_interior_line_raises(self, tmp_path):
        store = PartialSnapshotStore(tmp_path / "p")
        store.begin(0, WHEN)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        store.record_hour("t", 0, ["a"], 1)
        with pytest.raises(ValueError, match="corrupt"):
            store.load()

    def test_missing_header_raises(self, tmp_path):
        store = PartialSnapshotStore(tmp_path / "p")
        store.record_hour("t", 0, ["a"], 1)  # appended without begin()
        with pytest.raises(ValueError, match="header"):
            store.load()

    def test_begin_truncates_and_clear_deletes(self, tmp_path):
        store = PartialSnapshotStore(tmp_path / "p")
        store.begin(0, WHEN)
        store.record_hour("t", 0, ["a"], 1)
        store.begin(1, WHEN)
        assert store.load().hours == {}
        store.clear()
        assert not store.exists()
        store.clear()  # idempotent


class TestKillMidSnapshot:
    def test_resume_reissues_only_missing_bins(self, tmp_path):
        """Killed 25 queries into snapshot 0 by quota exhaustion, the rerun
        replays those 25 bins from the spill directory's sidecar, finishes
        the campaign, and the store is byte-identical to an unfaulted run's
        saved file."""
        config = _mini_config(collections=2)
        world = build_world(config.topics, seed=SEED, with_comments=False)

        clean_service = _service(config, world)
        clean = run_campaign(config, YouTubeClient(clean_service))
        clean_path = tmp_path / "clean.jsonl"
        clean.save(clean_path)
        clean_calls = clean_service.transport.total_calls

        observer = CampaignObserver()
        service = _service(config, world, observer=observer)
        service.transport.faults = FaultPlan(
            [FaultSpec(start=25, count=1, error="quotaExceeded")]
        )
        client = YouTubeClient(service, observer=observer)
        spill = tmp_path / "faulted.spill"
        with pytest.raises(QuotaExceededError):
            run_campaign(config, client, spill=spill)

        sidecar = PartialSnapshotStore(spill / "partial.jsonl")
        partial = sidecar.load()
        assert partial.index == 0
        assert len(partial.hours) == 25  # ticks 0..24 completed before the cliff
        assert SpillStore.open(spill).n_snapshots == 0

        run_campaign(config, client, spill=spill)
        store = SpillStore.open(spill)
        assert store.n_snapshots == 2
        exported = tmp_path / "faulted.jsonl"
        store.export_jsonl(exported)
        assert exported.read_bytes() == clean_path.read_bytes()
        # Interrupted + resumed issued exactly as many completed calls as the
        # clean run: the 25 recorded bins were never re-queried.
        assert service.transport.total_calls == clean_calls
        checkpoints = [
            e.fields["action"] for e in observer.tracer.of_type("campaign.checkpoint")
        ]
        assert checkpoints == ["resume-partial"]
        assert not sidecar.exists()  # cleared once the snapshot was spilled
        degraded = observer.tracer.of_type("degraded")
        assert any(e.fields["scope"] == "quota" for e in degraded)

    def test_stale_partial_from_persisted_snapshot_is_cleared(self, tmp_path):
        config = _mini_config(collections=1)
        world = build_world(config.topics, seed=SEED, with_comments=False)
        store = PartialSnapshotStore(tmp_path / "partial.jsonl")
        store.begin(0, WHEN)
        store.record_hour(config.topics[0].key, 0, ["bogus"], 1)
        collector = SnapshotCollector(
            YouTubeClient(_service(config, world)), config.topics,
            collect_metadata=False, partial=store,
        )
        snapshot = collector.collect(1)  # snapshot 0 already persisted upstream
        assert "bogus" not in snapshot.topics[config.topics[0].key].video_ids
        assert store.load().index == 1  # restarted for the snapshot in flight

    def test_partial_ahead_of_campaign_checkpoint_raises(self, tmp_path):
        config = _mini_config(collections=1)
        world = build_world(config.topics, seed=SEED, with_comments=False)
        store = PartialSnapshotStore(tmp_path / "partial.jsonl")
        store.begin(2, WHEN)
        collector = SnapshotCollector(
            YouTubeClient(_service(config, world)), config.topics,
            collect_metadata=False, partial=store,
        )
        with pytest.raises(ValueError, match="disagree"):
            collector.collect(0)


class TestDegradedSnapshots:
    def _degraded_campaign(self, tolerate=True):
        config = _mini_config(collections=1)
        world = build_world(config.topics, seed=SEED, with_comments=False)
        observer = CampaignObserver()
        service = _service(config, world, observer=observer)
        service.transport.faults = FaultPlan([FaultSpec(start=5, count=1)])
        client = YouTubeClient(
            service, observer=observer, retry_policy=RetryPolicy(max_attempts=1)
        )
        result = run_campaign(config, client, tolerate_failures=tolerate)
        return config, observer, result

    def test_exhausted_bin_is_marked_missing(self):
        config, observer, result = self._degraded_campaign()
        topic = result.snapshots[0].topic(config.topics[0].key)
        assert topic.missing_hours == [5]
        assert topic.degraded and result.snapshots[0].degraded
        assert result.degraded_indices(config.topics[0].key) == [0]
        assert 5 not in topic.pool_sizes
        events = observer.tracer.of_type("degraded")
        assert any(
            e.fields["scope"] == "hour-bin" and "hour 5" in e.fields["detail"]
            for e in events
        )

    def test_without_tolerance_the_failure_propagates(self):
        with pytest.raises(TransientServerError):
            self._degraded_campaign(tolerate=False)

    def test_missing_hours_survive_save_load(self, tmp_path):
        config, _observer, result = self._degraded_campaign()
        path = tmp_path / "degraded.jsonl"
        result.save(path)
        assert '"missing_hours": [5]' in path.read_text()
        loaded = CampaignResult.load(path)
        topic = loaded.snapshots[0].topic(config.topics[0].key)
        assert topic.missing_hours == [5] and topic.degraded

    def test_complete_campaigns_never_write_the_field(self, tmp_path):
        """Byte-compat: files from complete runs match the pre-resilience
        format exactly."""
        config = _mini_config(collections=1)
        world = build_world(config.topics, seed=SEED, with_comments=False)
        result = run_campaign(config, YouTubeClient(_service(config, world)))
        path = tmp_path / "complete.jsonl"
        result.save(path)
        assert "missing_hours" not in path.read_text()


def _topic_snapshot(hours: dict[int, list[str]], missing=()) -> TopicSnapshot:
    return TopicSnapshot(
        topic="t",
        collected_at=WHEN,
        hour_video_ids={h: ids for h, ids in hours.items() if ids},
        pool_sizes={h: len(ids) for h, ids in hours.items()},
        missing_hours=list(missing),
    )


def _campaign(topic_snaps: list[TopicSnapshot]) -> CampaignResult:
    snapshots = [
        Snapshot(index=i, collected_at=WHEN, topics={"t": ts})
        for i, ts in enumerate(topic_snaps)
    ]
    return CampaignResult(topic_keys=("t",), snapshots=snapshots)


def _gap_jaccard(a: TopicSnapshot, b: TopicSnapshot) -> float:
    """Gap-aware Jaccard of two topic snapshots (collections 0 and 1)."""
    return campaign_index(_campaign([a, b])).gap_jaccard("t", 0, 1)


class TestGapAwareConsistency:
    def test_reduces_to_jaccard_when_complete(self):
        a = _topic_snapshot({0: ["x", "y"], 1: ["z"]})
        b = _topic_snapshot({0: ["x"], 1: ["z", "w"]})
        assert _gap_jaccard(a, b) == jaccard(a.video_ids, b.video_ids)

    def test_missing_bins_do_not_count_as_churn(self):
        complete = _topic_snapshot({0: ["x"], 1: ["y"]})
        degraded = _topic_snapshot({0: ["x"]}, missing=[1])
        assert jaccard(complete.video_ids, degraded.video_ids) == 0.5
        assert _gap_jaccard(complete, degraded) == 1.0

    def test_exclusion_is_the_union_of_both_sides(self):
        a = _topic_snapshot({0: ["x"], 2: ["q"]}, missing=[1])
        b = _topic_snapshot({0: ["x"], 1: ["y"]}, missing=[2])
        assert _gap_jaccard(a, b) == 1.0  # only hour 0 is mutual

    def test_series_matches_plain_series_on_complete_campaign(self):
        campaign = _campaign([
            _topic_snapshot({0: ["a", "b"]}),
            _topic_snapshot({0: ["a", "c"]}),
            _topic_snapshot({0: ["c", "d"]}),
        ])
        plain = consistency_series(campaign, "t")
        aware = gap_aware_consistency_series(campaign, "t")
        assert aware == plain

    def test_series_restricts_pairwise(self):
        campaign = _campaign([
            _topic_snapshot({0: ["a"], 1: ["b"]}),
            _topic_snapshot({0: ["a"]}, missing=[1]),
        ])
        (point,) = gap_aware_consistency_series(campaign, "t")
        assert point.j_previous == 1.0
        assert point.lost_from_previous == 0 and point.gained_since_previous == 0
        (naive,) = consistency_series(campaign, "t")
        assert naive.j_previous == 0.5  # what the gap-blind view would claim


class TestAttritionSkipDegraded:
    def test_degraded_absences_are_not_attrition(self):
        campaign = _campaign([
            _topic_snapshot({0: ["v"]}),
            _topic_snapshot({}, missing=[0]),  # half-collected: v not observed
            _topic_snapshot({0: ["v"]}),
        ])
        assert presence_sequences(campaign) == ["PAP"]
        assert presence_sequences(campaign, skip_degraded=True) == ["PP"]
