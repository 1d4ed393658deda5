"""Columnar-index-vs-legacy equivalence for the analysis fast path.

``repro.core.index.CampaignIndex`` promises *exact* equivalence with the
pre-index analyses — kept verbatim behind ``use_index=False`` in
``core.consistency`` / ``core.attrition`` / ``core.pools`` /
``core.returnmodel`` as the reference oracle.  These tests pin that
contract: value-``==`` parity on the shared simulated campaign, on
hand-built degraded and multi-bin campaigns, on seeded random campaigns,
plus error-message parity, the gap-aware Jaccard invariants, the
fingerprint cache behavior, and the one-build sharing economics
(``export_all``, parallel replication).
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.attrition import attrition_analysis, presence_sequences
from repro.core.consistency import (
    consistency_series,
    gap_aware_consistency_series,
    gap_aware_jaccard,
    jaccard,
)
from repro.core.datasets import CampaignResult, Snapshot, TopicSnapshot
from repro.core.index import CampaignIndex, campaign_index
from repro.core.pools import pool_stats
from repro.core.returnmodel import build_regression_design, build_regression_records
from repro.util.timeutil import UTC

START = datetime(2025, 2, 9, tzinfo=UTC)


def _campaign_of(plan: dict, missing: dict | None = None) -> CampaignResult:
    """Hand-built campaign from ``topic -> [per-collection {hour: ids}]``.

    ``missing`` maps ``(topic, t) -> [hours]`` to mark degraded bins.
    """
    missing = missing or {}
    n = len(next(iter(plan.values())))
    snapshots = []
    for t in range(n):
        at = START + timedelta(days=5 * t)
        topics = {}
        for key, per_collection in plan.items():
            hours = per_collection[t]
            topics[key] = TopicSnapshot(
                topic=key,
                collected_at=at,
                hour_video_ids=hours,
                pool_sizes={h: 100 + 10 * h + t for h in hours},
                missing_hours=list(missing.get((key, t), [])),
            )
        snapshots.append(Snapshot(index=t, collected_at=at, topics=topics))
    return CampaignResult(topic_keys=tuple(plan), snapshots=snapshots)


def _degraded_campaign() -> CampaignResult:
    """Two topics, five collections, one degraded (t=2 missing hour 1)."""
    return _campaign_of(
        {
            "alpha": [
                {0: ["a", "b"], 1: ["c"]},
                {0: ["a"], 1: ["c", "d"]},
                {0: ["b"]},
                {0: ["a", "e"], 1: ["d"]},
                {0: ["e"], 1: ["c"]},
            ],
            "beta": [
                {0: ["x"]},
                {0: ["x", "y"]},
                {0: []},
                {0: ["y"]},
                {0: ["x", "z"]},
            ],
        },
        missing={("alpha", 2): [1]},
    )


def _multibin_campaign() -> CampaignResult:
    """Videos returned in several hour bins of one collection (never in
    the simulator, legal in hand-built data) — including a duplicate
    inside a single bin.  Exercises first-bin-wins plus ``extra_hours``."""
    return _campaign_of(
        {
            "gamma": [
                {0: ["a", "b"], 1: ["a", "c"], 2: ["a"]},
                {0: ["b", "b"], 1: ["b"], 2: ["d"]},
                {0: ["c"], 1: ["a", "c"], 2: ["c", "b"]},
            ],
        },
        missing={("gamma", 1): [3]},
    )


def _assert_full_parity(campaign: CampaignResult) -> None:
    """Every analysis equal on the index and legacy paths."""
    index = campaign_index(campaign)
    for topic in campaign.topic_keys:
        assert index.consistency(topic) == consistency_series(
            campaign, topic, use_index=False
        )
        assert index.gap_aware_consistency(topic) == (
            gap_aware_consistency_series(campaign, topic, use_index=False)
        )
        assert index.pool_stats(topic) == pool_stats(
            campaign, topic, use_index=False
        )
        sets = campaign.sets_for_topic(topic)
        matrix = index.jaccard_matrix(topic)
        for i in range(len(sets)):
            for j in range(len(sets)):
                expect = 1.0 if i == j else jaccard(sets[i], sets[j])
                assert matrix[i][j] == expect, (topic, i, j)
        snaps = [snap.topic(topic) for snap in campaign.snapshots]
        for a in range(len(snaps)):
            for b in range(len(snaps)):
                assert index.gap_jaccard(topic, a, b) == gap_aware_jaccard(
                    snaps[a], snaps[b]
                ), (topic, a, b)
    for skip in (False, True):
        assert index.presence_sequences(skip_degraded=skip) == (
            presence_sequences(campaign, skip_degraded=skip, use_index=False)
        )
        batch = attrition_analysis(
            campaign, skip_degraded=skip, use_index=False
        )
        fast = index.attrition(skip_degraded=skip)
        assert fast.chain == batch.chain
        assert fast.n_sequences == batch.n_sequences


class TestMiniCampaignParity:
    """Full parity on the shared 10-collection simulated campaign (with
    metadata and comments) — the same fixture every analysis test uses."""

    def test_all_set_analyses(self, mini_campaign):
        _assert_full_parity(mini_campaign)

    def test_attrition_topic_subsets(self, mini_campaign):
        index = campaign_index(mini_campaign)
        subset = list(mini_campaign.topic_keys[:2])
        batch = attrition_analysis(mini_campaign, topics=subset, use_index=False)
        fast = index.attrition(topics=subset)
        assert fast.chain == batch.chain
        assert fast.n_sequences == batch.n_sequences
        assert index.presence_sequences(subset) == presence_sequences(
            mini_campaign, subset, use_index=False
        )

    def test_regression_records(self, mini_campaign):
        fast = build_regression_records(mini_campaign)
        oracle = build_regression_records(mini_campaign, use_index=False)
        assert fast == oracle

    def test_regression_design_all_three_tables(self, mini_campaign):
        """Tables 3, 6, and 7 use the same records with different drops;
        the design matrix must match the oracle's bit for bit."""
        oracle_records = build_regression_records(mini_campaign, use_index=False)
        index = campaign_index(mini_campaign)
        for drop in ((), ("views",), ("views", "likes", "comments")):
            oracle = build_regression_design(oracle_records, drop=drop)
            fast = index.regression_design(drop=drop)
            assert fast.names == oracle.names
            assert np.array_equal(fast.matrix, oracle.matrix)


class TestHandBuiltCampaigns:
    def test_degraded_campaign_parity(self):
        campaign = _degraded_campaign()
        assert campaign.degraded_indices("alpha") == [2]
        _assert_full_parity(campaign)

    def test_multibin_campaign_parity(self):
        campaign = _multibin_campaign()
        _assert_full_parity(campaign)

    def test_multibin_first_bin_wins(self):
        index = campaign_index(_multibin_campaign())
        ti = index.topic("gamma")
        row_a = ti.row_of["a"]
        # "a" appears in bins 0, 1, 2 of collection 0: bin 0 is recorded,
        # the rest overflow to extra_hours.
        assert ti.hour_of[row_a, 0] == 0
        assert set(ti.extra_hours[0][row_a]) == {1, 2}

    def test_seeded_random_campaigns(self):
        for seed in range(8):
            campaign = _random_campaign(seed)
            _assert_full_parity(campaign)


def _random_campaign(seed: int) -> CampaignResult:
    """Random small campaign: churny sets, degraded bins, multi-bin dupes."""
    rng = random.Random(1_000 + seed)
    ids = [f"v{i:02d}" for i in range(14)]
    n_collections, n_hours = rng.randint(3, 6), 3
    plan: dict = {}
    missing: dict = {}
    for key in ("one", "two"):
        per_collection = []
        for t in range(n_collections):
            hours = {}
            for h in range(n_hours):
                if rng.random() < 0.15:
                    missing.setdefault((key, t), []).append(h)
                    continue
                hours[h] = rng.sample(ids, rng.randint(0, 4))
            populated = [h for h in hours if hours[h]]
            if len(populated) >= 2 and rng.random() < 0.5:
                src, dst = rng.sample(populated, 2)
                hours[dst] = hours[dst] + [hours[src][0]]  # cross-bin dupe
            if populated and rng.random() < 0.3:
                h = populated[0]
                hours[h] = hours[h] + [hours[h][0]]  # within-bin dupe
            per_collection.append(hours)
        plan[key] = per_collection
    return _campaign_of(plan, missing)


class TestErrorMessageParity:
    """The fast path must fail exactly like the oracle — same exception
    types, same messages, same order of checks."""

    def _one_collection(self) -> CampaignResult:
        return _campaign_of({"alpha": [{0: ["a"]}]})

    def test_single_collection_consistency(self):
        campaign = self._one_collection()
        with pytest.raises(ValueError) as oracle:
            consistency_series(campaign, "alpha", use_index=False)
        with pytest.raises(ValueError) as fast:
            consistency_series(campaign, "alpha")
        assert str(fast.value) == str(oracle.value)
        assert str(fast.value) == (
            "consistency analysis needs at least two collections"
        )

    def test_empty_attrition(self):
        campaign = _campaign_of({"alpha": [{0: []}, {0: []}]})
        with pytest.raises(ValueError) as oracle:
            attrition_analysis(campaign, use_index=False)
        with pytest.raises(ValueError) as fast:
            attrition_analysis(campaign)
        assert str(fast.value) == str(oracle.value)
        assert str(fast.value) == "no videos were ever returned; nothing to analyze"

    def test_no_metadata_regression(self):
        campaign = _degraded_campaign()
        with pytest.raises(ValueError) as oracle:
            build_regression_records(campaign, use_index=False)
        with pytest.raises(ValueError) as fast:
            build_regression_records(campaign)
        assert str(fast.value) == str(oracle.value)
        assert str(fast.value) == "no regression records (no metadata captured?)"

    def test_no_pool_draws(self):
        campaign = _campaign_of({"alpha": [{}, {}]})
        with pytest.raises(ValueError) as oracle:
            pool_stats(campaign, "alpha", use_index=False)
        with pytest.raises(ValueError) as fast:
            pool_stats(campaign, "alpha")
        assert str(fast.value) == str(oracle.value)
        assert str(fast.value) == "no pool draws recorded for topic 'alpha'"

    def test_unknown_topic_is_a_key_error_on_both_paths(self):
        campaign = _degraded_campaign()
        with pytest.raises(KeyError):
            consistency_series(campaign, "nope", use_index=False)
        with pytest.raises(KeyError):
            consistency_series(campaign, "nope")
        with pytest.raises(KeyError):
            campaign_index(campaign).pool_stats("nope")


class TestGapAwareJaccardInvariants:
    """Satellite: the gap-aware kernel's algebraic invariants on the
    columnar path, beyond pointwise parity with the oracle."""

    def test_symmetry(self):
        index = campaign_index(_degraded_campaign())
        n = index.n_collections
        for topic in index.topic_keys:
            for a in range(n):
                for b in range(n):
                    assert index.gap_jaccard(topic, a, b) == (
                        index.gap_jaccard(topic, b, a)
                    ), (topic, a, b)

    def test_reduces_to_plain_jaccard_when_complete(self):
        campaign = _campaign_of(
            {"alpha": [{0: ["a", "b"], 1: ["c"]}, {0: ["a"], 1: ["c", "d"]}]}
        )
        index = campaign_index(campaign)
        sets = campaign.sets_for_topic("alpha")
        assert index.gap_jaccard("alpha", 0, 1) == jaccard(sets[0], sets[1])
        series = index.consistency("alpha")
        gap_series = index.gap_aware_consistency("alpha")
        assert series == gap_series

    def test_all_hours_missing_counts_as_identical(self):
        # Collection 1 lost every hour bin: nothing was mutually observed,
        # so the comparison degenerates to two empty sets -> 1.0 (matching
        # `jaccard(set(), set())`), on both paths.
        campaign = _campaign_of(
            {"alpha": [{0: ["a"], 1: ["b"]}, {}]},
            missing={("alpha", 1): [0, 1]},
        )
        snaps = [snap.topic("alpha") for snap in campaign.snapshots]
        assert gap_aware_jaccard(snaps[0], snaps[1]) == 1.0
        assert campaign_index(campaign).gap_jaccard("alpha", 0, 1) == 1.0


class TestIndexCache:
    def test_shared_and_stable_across_calls(self):
        campaign = _degraded_campaign()
        first = campaign_index(campaign)
        assert campaign_index(campaign) is first

    def test_analyses_share_one_cached_index(self):
        campaign = _degraded_campaign()
        index = campaign_index(campaign)
        consistency_series(campaign, "alpha")
        attrition_analysis(campaign)
        pool_stats(campaign, "beta")
        assert campaign.__dict__["_index"] is index

    def test_appended_snapshot_extends_in_place(self):
        # Pure suffix growth is the O(delta) path: the cached index is
        # extended, not rebuilt, and still matches the oracle.
        campaign = _degraded_campaign()
        cached = campaign_index(campaign)
        old_width = cached.topic("alpha").present.shape[1]
        extra = campaign.snapshots[-1]
        campaign.snapshots.append(
            Snapshot(
                index=extra.index + 1,
                collected_at=extra.collected_at + timedelta(days=5),
                topics=extra.topics,
            )
        )
        extended = campaign_index(campaign)
        assert extended is cached
        assert extended.n_collections == old_width + 1
        assert extended.topic("alpha").present.shape[1] == old_width + 1
        # And the extended index matches the oracle on the grown campaign.
        assert extended.consistency("alpha") == consistency_series(
            campaign, "alpha", use_index=False
        )
        fresh = CampaignIndex.build(campaign)
        assert extended.topic("alpha").video_ids == fresh.topic("alpha").video_ids
        assert (
            extended.topic("alpha").present == fresh.topic("alpha").present
        ).all()

    def test_replaced_snapshot_invalidates(self):
        # A non-suffix change (snapshot replaced in the middle) cannot be
        # extended: the cache rebuilds from scratch.
        campaign = _degraded_campaign()
        stale = campaign_index(campaign)
        first = campaign.snapshots[0]
        campaign.snapshots[0] = Snapshot(
            index=first.index,
            collected_at=first.collected_at,
            # Fresh TopicSnapshot objects: the fingerprint keys on
            # snapshot-topic identity, so this reads as a replacement.
            topics={
                key: TopicSnapshot(
                    topic=key,
                    collected_at=ts.collected_at,
                    hour_video_ids=ts.hour_video_ids,
                    pool_sizes=ts.pool_sizes,
                    missing_hours=ts.missing_hours,
                )
                for key, ts in first.topics.items()
            },
        )
        rebuilt = campaign_index(campaign)
        assert rebuilt is not stale
        assert rebuilt.consistency("alpha") == consistency_series(
            campaign, "alpha", use_index=False
        )

    def test_memoized_products_are_copies(self):
        index = campaign_index(_degraded_campaign())
        series = index.consistency("alpha")
        series.append("tampered")
        assert index.consistency("alpha") != series
        sequences = index.presence_sequences()
        sequences.clear()
        assert index.presence_sequences() != sequences


class TestBuildSharing:
    """Satellite: the bundle/replication layers pay for one build."""

    def _counting_build(self, monkeypatch):
        calls = []
        original = CampaignIndex.build.__func__

        def counting(cls, campaign, fingerprint=None, observer=None):
            calls.append(1)
            return original(cls, campaign, fingerprint, observer)

        monkeypatch.setattr(CampaignIndex, "build", classmethod(counting))
        return calls

    def test_export_all_builds_once(self, mini_campaign, tmp_path, monkeypatch):
        calls = self._counting_build(monkeypatch)
        mini_campaign.__dict__.pop("_index", None)
        from repro.core.export import export_all

        paths = export_all(mini_campaign, tmp_path)
        assert len(paths) == 7 and all(p.exists() for p in paths)
        assert len(calls) == 1

    def test_export_all_with_prebuilt_index_builds_zero(
        self, mini_campaign, tmp_path, monkeypatch
    ):
        index = campaign_index(mini_campaign)
        calls = self._counting_build(monkeypatch)
        from repro.core.export import export_all

        export_all(mini_campaign, tmp_path, index=index)
        assert calls == []

    def test_full_report_builds_once(self, mini_campaign, monkeypatch):
        calls = self._counting_build(monkeypatch)
        mini_campaign.__dict__.pop("_index", None)
        from repro.core.report import render_figure1, render_figure3, render_table4
        from repro.world.corpus import scale_topics
        from repro.world.topics import paper_topics

        specs = scale_topics(paper_topics(), 0.15)
        render_figure1(mini_campaign, specs)
        render_figure3(mini_campaign)
        render_table4(mini_campaign, specs)
        assert len(calls) == 1


class TestObserverEvent:
    def test_index_build_event_and_metrics(self):
        from repro.obs.observer import CampaignObserver

        observer = CampaignObserver()
        campaign = _degraded_campaign()
        index = campaign_index(campaign, observer=observer)
        assert observer.metrics.counter_value("index.builds") == 1
        events = [
            e for e in observer.tracer.iter_dicts() if e["type"] == "index.build"
        ]
        assert len(events) == 1
        event = events[0]
        assert event["topics"] == 2
        assert event["videos"] == sum(
            index.topic(t).n_videos for t in index.topic_keys
        )
        assert event["collections"] == 5
        assert event["wall_s"] >= 0.0
        # A cache hit emits nothing.
        campaign_index(campaign, observer=observer)
        assert observer.metrics.counter_value("index.builds") == 1


class TestAnalysisBattery:
    """The benchmark's timeable unit must do identical work on both
    paths — otherwise the recorded speedup compares different jobs."""

    def test_same_counts_on_both_paths(self, mini_campaign):
        from repro.core.benchmark import analysis_battery

        fast = analysis_battery(mini_campaign, use_index=True)
        oracle = analysis_battery(mini_campaign, use_index=False)
        assert fast == oracle
        assert fast["records"] > 0 and fast["sequences"] > 0

    def test_scenario_kinds_are_validated(self):
        from repro.core.benchmark import SCENARIOS, BenchScenario

        with pytest.raises(ValueError, match="kind"):
            BenchScenario(scale=0.2, collections=4, kind="nope")
        assert {s.kind for s in SCENARIOS.values()} == {
            "campaign", "analysis", "replication", "service", "orchestrator",
            "world", "spill", "collect",
        }


class TestParallelReplication:
    """The seed fan-out must be invisible in the results: any worker
    count, same summary (the benchmark times replication serially, so
    this equality test is what locks the parallel path)."""

    def _tiny(self, workers: int):
        from repro.core.replication import run_replication

        return run_replication(
            [7, 8], scale=0.05, n_collections=3, workers=workers
        )

    def test_serial_equals_parallel(self):
        serial = self._tiny(workers=1)
        parallel = self._tiny(workers=2)
        assert serial.outcomes == parallel.outcomes
        assert serial.sign_stability() == parallel.sign_stability()

    def test_input_validation(self):
        from repro.core.replication import run_replication

        with pytest.raises(ValueError, match="at least one seed"):
            run_replication([])
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_replication([1], workers=0)
