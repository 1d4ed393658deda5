"""Incremental ``CampaignIndex`` growth: append == one-shot rebuild.

``CampaignIndex.incremental`` + ``append_snapshot`` promise *structural*
identity with ``CampaignIndex.build`` on every prefix of a campaign —
the interned video tables, the presence/hour-bin matrices, the
``extra_hours`` overflow, the pool draws — and therefore value-``==``
answers from every analysis.  These tests pin that contract on
hand-built degraded and multi-bin campaigns and on seeded random
campaigns, whose answers at every prefix are also the recorded values
in ``tests/golden/analysis_outputs.json`` (see
``tests/test_index_equivalence.py``), plus: error messages, validation
that rejects out-of-order or topic-incomplete snapshots *before*
mutating state, metadata/regression parity on the shared simulated
campaign, the ``campaign_index`` prefix-extension cache, the index a
``CampaignStream`` drives, and the ``index.append`` observability
events.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.datasets import CampaignResult
from repro.core.index import CampaignIndex, campaign_index
from repro.core.returnmodel import build_regression_records
from repro.core.streaming import CampaignStream

from tests.test_index_equivalence import (
    _campaign_of,
    _degraded_campaign,
    _multibin_campaign,
    answers,
    assert_golden,
    prefix,
)


def _random_campaign(seed: int) -> CampaignResult:
    """A seeded random campaign with every structural wrinkle.

    Small ID pools force overlap across collections; bins are sometimes
    empty, sometimes carry within-bin duplicates or cross-bin repeats of
    the same video; random hour bins go missing (degraded snapshots).
    """
    rng = random.Random(seed)
    topics = ["alpha", "beta"][: rng.randint(1, 2)]
    n = rng.randint(1, 6)
    pool = [f"v{i:02d}" for i in range(12)]
    plan: dict = {}
    missing: dict = {}
    for key in topics:
        per_collection = []
        for t in range(n):
            hours = {}
            for h in range(rng.randint(1, 4)):
                ids = rng.sample(pool, rng.randint(0, 4))
                if ids and rng.random() < 0.2:
                    ids.append(ids[0])  # within-bin duplicate
                hours[h] = ids
            if len(hours) > 1 and rng.random() < 0.3:
                # Cross-bin repeat: the same video in two bins of one
                # collection (legal in hand-built data).
                source, target = rng.sample(sorted(hours), 2)
                if plan_ids := hours[source]:
                    hours[target] = hours[target] + [rng.choice(plan_ids)]
            per_collection.append(hours)
            if rng.random() < 0.25:
                missing[(key, t)] = sorted(
                    rng.sample(range(5), rng.randint(1, 2))
                )
        plan[key] = per_collection
    return _campaign_of(plan, missing)


def _assert_structural(grown: CampaignIndex, built: CampaignIndex) -> None:
    """Field-for-field identity of every topic's columnar view."""
    assert grown.topic_keys == built.topic_keys
    assert grown.n_collections == built.n_collections
    for key in built.topic_keys:
        a, b = grown.topic(key), built.topic(key)
        assert a.video_ids == b.video_ids, key
        assert a.row_of == b.row_of, key
        assert np.array_equal(a.present, b.present), key
        assert a.present.dtype == b.present.dtype
        assert np.array_equal(a.hour_of, b.hour_of), key
        assert a.hour_of.dtype == b.hour_of.dtype
        assert a.extra_hours == b.extra_hours, key
        assert a.missing_hours == b.missing_hours, key
        assert a.pool_draws == b.pool_draws, key


def _grow_and_check(name: str, campaign: CampaignResult) -> CampaignIndex:
    """Append snapshot-by-snapshot; at every prefix the grown index must
    match a one-shot build structurally and the recorded answers."""
    grown = CampaignIndex.incremental(campaign.topic_keys)
    for t, snap in enumerate(campaign.snapshots):
        grown.append_snapshot(snap)
        _assert_structural(grown, CampaignIndex.build(prefix(campaign, t + 1)))
        assert_golden(f"{name}/{t + 1}", answers(grown))
    return grown


class TestPrefixParity:
    def test_degraded_campaign_every_prefix(self):
        _grow_and_check("degraded", _degraded_campaign())

    def test_multibin_campaign_every_prefix(self):
        _grow_and_check("multibin", _multibin_campaign())

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_random_campaigns(self, seed):
        _grow_and_check(f"incremental-{seed}", _random_campaign(seed))

    def test_reads_between_appends_do_not_stale(self):
        """Memoized analyses read mid-growth must invalidate on append."""
        campaign = _degraded_campaign()
        grown = CampaignIndex.incremental(campaign.topic_keys)
        for t, snap in enumerate(campaign.snapshots):
            grown.append_snapshot(snap)
            if t >= 1:
                # Touch the memo caches at every prefix...
                grown.consistency("alpha")
                grown.jaccard_matrix("beta")
                grown.attrition()
        # ...and the final answers still match a fresh rebuild.
        assert answers(grown) == answers(CampaignIndex.build(campaign))
        assert_golden("degraded/5", answers(grown))

    def test_error_message_parity_before_two_collections(self):
        campaign = _degraded_campaign()
        grown = CampaignIndex.incremental(campaign.topic_keys)
        grown.append_snapshot(campaign.snapshots[0])
        with pytest.raises(ValueError) as built:
            CampaignIndex.build(prefix(campaign, 1)).consistency("alpha")
        with pytest.raises(ValueError) as fast:
            grown.consistency("alpha")
        assert str(fast.value) == str(built.value) == (
            "consistency analysis needs at least two collections"
        )


class TestAppendValidation:
    def test_gap_is_rejected(self):
        campaign = _degraded_campaign()
        grown = CampaignIndex.incremental(campaign.topic_keys)
        grown.append_snapshot(campaign.snapshots[0])
        with pytest.raises(
            ValueError,
            match=r"incremental index needs snapshots in collection "
            r"order: expected index 1, got 3",
        ):
            grown.append_snapshot(campaign.snapshots[3])
        assert grown.n_collections == 1

    def test_duplicate_is_rejected(self):
        campaign = _degraded_campaign()
        grown = CampaignIndex.incremental(campaign.topic_keys)
        grown.append_snapshot(campaign.snapshots[0])
        with pytest.raises(ValueError, match="expected index 1, got 0"):
            grown.append_snapshot(campaign.snapshots[0])

    def test_missing_topic_rejected_without_mutation(self):
        campaign = _degraded_campaign()
        grown = CampaignIndex.incremental(campaign.topic_keys)
        grown.append_snapshot(campaign.snapshots[0])
        partial = campaign.snapshots[1]
        import dataclasses

        torn = dataclasses.replace(
            partial, topics={"alpha": partial.topics["alpha"]}
        )
        with pytest.raises(
            ValueError, match=r"snapshot 1 is missing topic\(s\) beta"
        ):
            grown.append_snapshot(torn)
        # Validation happened before any state moved: the correct
        # snapshot still appends, and the result matches a rebuild.
        grown.append_snapshot(partial)
        prefix = CampaignResult(
            topic_keys=campaign.topic_keys,
            snapshots=campaign.snapshots[:2],
        )
        _assert_structural(grown, CampaignIndex.build(prefix))


class TestSimulatedCampaignParity:
    """The shared 10-collection campaign: metadata + regression parity."""

    def test_structural_and_regression_parity(self, mini_campaign):
        grown = CampaignIndex.incremental(
            mini_campaign.topic_keys,
            corpus=getattr(mini_campaign, "corpus", None),
        )
        for snap in mini_campaign.snapshots:
            grown.append_snapshot(snap)
        _assert_structural(grown, CampaignIndex.build(mini_campaign))
        assert grown.regression_records() == build_regression_records(
            mini_campaign
        )

    def test_consistency_parity_on_simulated(self, mini_campaign):
        grown = CampaignIndex.incremental(mini_campaign.topic_keys)
        for snap in mini_campaign.snapshots:
            grown.append_snapshot(snap)
        built = CampaignIndex.build(mini_campaign)
        for key in mini_campaign.topic_keys:
            assert grown.consistency(key) == built.consistency(key)
            assert grown.gap_aware_consistency(key) == (
                built.gap_aware_consistency(key)
            )


class TestCampaignIndexCacheExtension:
    def test_multi_snapshot_delta_extends_in_place(self):
        campaign = _degraded_campaign()
        short = CampaignResult(
            topic_keys=campaign.topic_keys,
            snapshots=list(campaign.snapshots[:2]),
        )
        cached = campaign_index(short)
        short.snapshots.extend(campaign.snapshots[2:])
        extended = campaign_index(short)
        assert extended is cached
        assert extended.n_collections == 5
        _assert_structural(extended, CampaignIndex.build(campaign))


class TestStreamIndexWiring:
    def test_stream_grows_structurally_identical_index(self):
        campaign = _degraded_campaign()
        stream = CampaignStream(campaign.topic_keys)
        assert stream.index is None  # created at the first snapshot
        for snap in campaign.snapshots:
            stream.add_snapshot(snap)
        _assert_structural(stream.index, CampaignIndex.build(campaign))
        for key in campaign.topic_keys:
            assert stream.index.consistency(key) == stream.consistency(key)

    def test_stream_rejects_topic_incomplete_snapshot(self):
        import dataclasses

        campaign = _degraded_campaign()
        stream = CampaignStream(campaign.topic_keys)
        stream.add_snapshot(campaign.snapshots[0])
        torn = dataclasses.replace(
            campaign.snapshots[1],
            topics={"beta": campaign.snapshots[1].topics["beta"]},
        )
        with pytest.raises(
            ValueError, match=r"snapshot 1 is missing topic\(s\) alpha"
        ):
            stream.add_snapshot(torn)
        # Nothing mutated: the real snapshot still streams in cleanly.
        stream.add_snapshot(campaign.snapshots[1])
        assert stream.n_collections == 2


class TestObserverEvents:
    def test_append_emits_metrics_and_trace(self):
        from repro.obs import CampaignObserver

        obs = CampaignObserver()
        campaign = _degraded_campaign()
        grown = CampaignIndex.incremental(campaign.topic_keys)
        for snap in campaign.snapshots:
            grown.append_snapshot(snap, observer=obs)
        events = obs.tracer.of_type("index.append")
        assert len(events) == len(campaign.snapshots)
        total_rows = sum(
            grown.topic(key).n_videos for key in campaign.topic_keys
        )
        assert sum(e.fields["new_videos"] for e in events) == total_rows
        assert [e.fields["collections"] for e in events] == [1, 2, 3, 4, 5]
