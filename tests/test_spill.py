"""SpillStore: durability, equivalence, and crash recovery.

The disk-backed columnar campaign store promises three things, each
pinned here:

* **round-trip equality** — ``append`` then ``load`` rebuilds snapshots
  that compare ``==`` to the originals (degraded bins, multi-bin
  duplicates, metadata/comment sidecars, non-ASCII payloads included),
  and ``export_jsonl`` / ``sha256`` reproduce ``CampaignResult.save``'s
  exact bytes — including against the golden campaign's pinned sha256 on
  the serial, thread, and process backends;
* **crash safety** — the atomic manifest is the publish point: orphan or
  torn data files from a crash mid-append are ignored on ``open``, while
  corruption of a *referenced* file raises loudly;
* **campaign-runner integration** — ``run_campaign(spill=...)`` spills
  as it collects, resumes from the manifest, keeps no snapshot in memory
  once it is spilled, and produces byte-identical output to the
  in-memory path.

``CampaignResult.save``/``load`` round-trip properties live here too —
the spill format piggybacks on that serialization, so the two contracts
are pinned side by side.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.api import QuotaPolicy, YouTubeClient, build_service
from repro.core import paper_campaign_config, run_campaign
from repro.core.datasets import CampaignResult, Snapshot, TopicSnapshot
from repro.core.index import CampaignIndex
from repro.core.spill import SpillStore
from repro.obs.observer import Observer
from repro.world import build_world
from repro.world.corpus import scale_topic, scale_topics
from repro.world.topics import paper_topics

from tests.test_golden_campaign import GOLDEN, GOLDEN_COMMENTS, golden_config
from tests.test_index_equivalence import (
    _campaign_of,
    _degraded_campaign,
    _multibin_campaign,
)
from tests.test_index_incremental import _assert_structural, _random_campaign

SEED = 20250209


def _meta_campaign() -> CampaignResult:
    """A hand-built campaign with metadata, comments, and non-ASCII."""
    campaign = _degraded_campaign()
    topics = campaign.snapshots[0].topics
    topics["alpha"] = dataclasses.replace(
        topics["alpha"],
        video_meta={
            "a": {
                "snippet": {"title": "héllo ☃", "channelId": "ch1"},
                "statistics": {"viewCount": "7"},
            },
            "b": {"snippet": {"title": "非ASCII", "channelId": "ch2"}},
        },
        channel_meta={
            "ch1": {"snippet": {"title": "Ωmega"}},
            "ch2": {"snippet": {"title": "plain"}},
        },
        comments={
            "a": {"top_level": [{"text": "naïve"}], "replies": []},
        },
    )
    return campaign


def _spilled(tmp_path: Path, campaign: CampaignResult) -> SpillStore:
    store = SpillStore.create(tmp_path / "spill", campaign.topic_keys)
    for snap in campaign.snapshots:
        store.append(snap)
    return store


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", [_degraded_campaign, _multibin_campaign, _meta_campaign]
    )
    def test_load_equals_original(self, tmp_path, factory):
        campaign = factory()
        store = _spilled(tmp_path, campaign)
        reloaded = SpillStore.open(store.directory).load()
        assert reloaded.topic_keys == campaign.topic_keys
        assert reloaded.snapshots == campaign.snapshots

    @pytest.mark.parametrize("seed", range(8))
    def test_random_campaigns_round_trip(self, tmp_path, seed):
        campaign = _random_campaign(seed)
        store = _spilled(tmp_path, campaign)
        assert SpillStore.open(store.directory).load().snapshots == (
            campaign.snapshots
        )

    def test_export_is_byte_identical_to_save(self, tmp_path):
        campaign = _meta_campaign()
        store = _spilled(tmp_path, campaign)
        saved = tmp_path / "saved.jsonl"
        exported = tmp_path / "exported.jsonl"
        campaign.save(saved)
        store.export_jsonl(exported)
        assert exported.read_bytes() == saved.read_bytes()
        assert store.sha256() == hashlib.sha256(
            saved.read_bytes()
        ).hexdigest()

    def test_unsorted_missing_hours_canonicalized(self, tmp_path):
        """``TopicSnapshot`` sorts ``missing_hours`` on construction, so
        hand-built descending input still round-trips ``==``."""
        campaign = _campaign_of(
            {"solo": [{0: ["a"], 1: []}, {0: []}]},
            missing={("solo", 1): [3, 1, 2]},
        )
        assert campaign.snapshots[1].topics["solo"].missing_hours == [1, 2, 3]
        store = _spilled(tmp_path, campaign)
        assert SpillStore.open(store.directory).load().snapshots == (
            campaign.snapshots
        )

    def test_iter_snapshots_streams_in_order(self, tmp_path):
        campaign = _degraded_campaign()
        store = _spilled(tmp_path, campaign)
        indices = [snap.index for snap in store.iter_snapshots()]
        assert indices == [0, 1, 2, 3, 4]

    def test_build_index_matches_one_shot_rebuild(self, tmp_path):
        campaign = _multibin_campaign()
        store = _spilled(tmp_path, campaign)
        _assert_structural(store.build_index(), CampaignIndex.build(campaign))


class TestConstructionErrors:
    def test_create_refuses_existing_campaign(self, tmp_path):
        campaign = _degraded_campaign()
        store = _spilled(tmp_path, campaign)
        with pytest.raises(ValueError, match="already holds a campaign"):
            SpillStore.create(store.directory, campaign.topic_keys)

    def test_open_refuses_non_spill_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a spill directory"):
            SpillStore.open(tmp_path)

    def test_open_refuses_unknown_format(self, tmp_path):
        store = _spilled(tmp_path, _degraded_campaign())
        manifest = json.loads((store.directory / "manifest.json").read_text())
        manifest["format"] = 99
        (store.directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported spill format 99"):
            SpillStore.open(store.directory)

    def test_attach_validates_topic_keys(self, tmp_path):
        store = _spilled(tmp_path, _degraded_campaign())
        with pytest.raises(ValueError, match="holds topics"):
            SpillStore.attach(store.directory, ("alpha", "gamma"))

    def test_attach_creates_then_reopens(self, tmp_path):
        directory = tmp_path / "fresh"
        created = SpillStore.attach(directory, ("alpha", "beta"))
        assert created.n_snapshots == 0
        reopened = SpillStore.attach(directory, ("alpha", "beta"))
        assert reopened.topic_keys == ("alpha", "beta")


class TestAppendValidation:
    def test_out_of_order_append_rejected(self, tmp_path):
        campaign = _degraded_campaign()
        store = SpillStore.create(tmp_path / "s", campaign.topic_keys)
        store.append(campaign.snapshots[0])
        with pytest.raises(
            ValueError,
            match="spill store needs snapshots in collection order: "
            "expected index 1, got 0",
        ):
            store.append(campaign.snapshots[0])
        assert store.n_snapshots == 1

    def test_missing_topic_rejected(self, tmp_path):
        campaign = _degraded_campaign()
        store = SpillStore.create(tmp_path / "s", campaign.topic_keys)
        snap = campaign.snapshots[0]
        torn = dataclasses.replace(
            snap, topics={"alpha": snap.topics["alpha"]}
        )
        with pytest.raises(
            ValueError, match=r"snapshot 0 is missing topic\(s\) beta"
        ):
            store.append(torn)
        assert store.n_snapshots == 0


class TestCrashRecovery:
    def test_orphan_torn_data_file_is_ignored(self, tmp_path):
        """A crash after writing data but before the manifest replace
        leaves an orphan the old manifest never references — ``open``
        sees the previous consistent state, and re-collection overwrites
        the orphan."""
        campaign = _degraded_campaign()
        store = SpillStore.create(tmp_path / "s", campaign.topic_keys)
        for snap in campaign.snapshots[:2]:
            store.append(snap)
        # Simulate the torn write of snapshot 2: half a JSON line.
        (store.directory / "snap-00002.jsonl").write_text('{"kind": "spi')
        recovered = SpillStore.open(store.directory)
        assert recovered.n_snapshots == 2
        assert recovered.load().snapshots == campaign.snapshots[:2]
        # The resumed campaign overwrites the orphan and carries on.
        for snap in campaign.snapshots[2:]:
            recovered.append(snap)
        assert recovered.load().snapshots == campaign.snapshots

    def test_truncated_referenced_file_raises(self, tmp_path):
        store = _spilled(tmp_path, _degraded_campaign())
        target = store.directory / "snap-00004.jsonl"
        target.write_bytes(target.read_bytes()[:-10])
        with pytest.raises(ValueError, match="corrupt store"):
            SpillStore.open(store.directory)

    def test_sidecar_for_unknown_topic_raises(self, tmp_path):
        store = _spilled(tmp_path, _meta_campaign())
        sidecar = store.directory / "meta-00000.jsonl"
        # Same byte count, so the manifest's size check still passes.
        sidecar.write_text(sidecar.read_text().replace('"alpha"', '"gamma"'))
        with pytest.raises(ValueError, match=r"topic\(s\) gamma"):
            SpillStore.open(store.directory).read_snapshot(0)

    def test_missing_referenced_file_raises(self, tmp_path):
        store = _spilled(tmp_path, _degraded_campaign())
        (store.directory / "snap-00003.jsonl").unlink()
        with pytest.raises(
            ValueError, match="references missing file snap-00003.jsonl"
        ):
            SpillStore.open(store.directory)

    def test_leftover_manifest_temp_is_ignored(self, tmp_path):
        campaign = _degraded_campaign()
        store = _spilled(tmp_path, campaign)
        (store.directory / "manifest.json.tmp").write_text("{torn")
        assert SpillStore.open(store.directory).n_snapshots == len(
            campaign.snapshots
        )


class TestSaveLoadRoundTrip:
    """``CampaignResult.save``/``load`` is an exact inverse pair."""

    @pytest.mark.parametrize(
        "factory", [_degraded_campaign, _multibin_campaign, _meta_campaign]
    )
    def test_hand_built_round_trip(self, tmp_path, factory):
        campaign = factory()
        path = tmp_path / "campaign.jsonl"
        campaign.save(path)
        reloaded = CampaignResult.load(path)
        assert reloaded.topic_keys == campaign.topic_keys
        assert reloaded.snapshots == campaign.snapshots
        # Idempotence: a second save of the reload is byte-identical.
        second = tmp_path / "second.jsonl"
        reloaded.save(second)
        assert second.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_round_trip(self, tmp_path, seed):
        campaign = _random_campaign(seed)
        path = tmp_path / "campaign.jsonl"
        campaign.save(path)
        assert CampaignResult.load(path).snapshots == campaign.snapshots


@pytest.fixture(scope="module")
def golden_world():
    specs = scale_topics(paper_topics(), GOLDEN["scale"])
    return build_world(specs, seed=GOLDEN["seed"]), specs


class TestGoldenSpill:
    """The golden campaign spilled: both engines, the same pinned sha."""

    @pytest.mark.parametrize(
        "engine", ["batch", "per-call"], ids=["serial", "per-call"]
    )
    def test_spilled_campaign_matches_golden_sha256(
        self, golden_world, tmp_path, engine
    ):
        world, specs = golden_world
        service = build_service(
            world, seed=GOLDEN["seed"], specs=specs,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        config = dataclasses.replace(
            paper_campaign_config(topics=specs),
            n_scheduled=GOLDEN["collections"],
            skipped_indices=frozenset(),
            comment_snapshot_indices=(),
        )
        run_campaign(
            config, YouTubeClient(service),
            spill=tmp_path / "spill",
            engine=engine,
        )
        assert service.quota.total_used == GOLDEN["quota_units"]
        store = SpillStore.open(tmp_path / "spill")
        assert store.sha256() == GOLDEN["sha256"]
        exported = tmp_path / "exported.jsonl"
        store.export_jsonl(exported)
        payload = exported.read_bytes()
        assert hashlib.sha256(payload).hexdigest() == GOLDEN["sha256"]
        assert len(payload) == GOLDEN["bytes"]

    @pytest.mark.parametrize("engine", ["batch", "per-call"])
    def test_spilled_comment_campaign_matches_golden_sha256(
        self, golden_world, tmp_path, engine
    ):
        """The comment captures go through the meta sidecar unchanged."""
        world, specs = golden_world
        service = build_service(
            world, seed=GOLDEN_COMMENTS["seed"], specs=specs,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        run_campaign(
            golden_config(specs, GOLDEN_COMMENTS), YouTubeClient(service),
            spill=tmp_path / "spill",
            engine=engine,
        )
        assert service.quota.total_used == GOLDEN_COMMENTS["quota_units"]
        store = SpillStore.open(tmp_path / "spill")
        assert store.sha256() == GOLDEN_COMMENTS["sha256"]
        exported = tmp_path / "exported.jsonl"
        store.export_jsonl(exported)
        payload = exported.read_bytes()
        assert hashlib.sha256(payload).hexdigest() == GOLDEN_COMMENTS["sha256"]
        assert len(payload) == GOLDEN_COMMENTS["bytes"]


class _CheckpointRecorder(Observer):
    def __init__(self) -> None:
        self.checkpoints: list[tuple[str, int]] = []

    def emit(self, type: str, *values, at=None) -> None:
        if type == "campaign.checkpoint":
            action, _path, count = values
            self.checkpoints.append((action, count))


@pytest.fixture(scope="module")
def tiny_stack():
    """One small 1-day-window topic: 48 bins per snapshot, ~1 s runs."""
    smallest = min(paper_topics(), key=lambda spec: spec.n_videos)
    spec = dataclasses.replace(scale_topic(smallest, 0.05), window_days=1)
    world = build_world((spec,), seed=SEED, with_comments=False)
    return world, spec


def _tiny_config(spec, collections):
    return dataclasses.replace(
        paper_campaign_config(
            topics=(spec,), collect_metadata=False, with_comments=False
        ),
        n_scheduled=collections,
        skipped_indices=frozenset(),
        comment_snapshot_indices=(),
    )


def _tiny_client(world, spec):
    service = build_service(
        world, seed=SEED, specs=(spec,),
        quota_policy=QuotaPolicy(researcher_program=True),
    )
    return YouTubeClient(service)


class TestRunCampaignSpill:
    def test_spill_matches_in_memory_run(self, tiny_stack, tmp_path):
        world, spec = tiny_stack
        config = _tiny_config(spec, 3)
        run_campaign(config, _tiny_client(world, spec), spill=tmp_path / "spill")
        direct = run_campaign(config, _tiny_client(world, spec))
        store = SpillStore.open(tmp_path / "spill")
        assert store.load().snapshots == direct.snapshots
        saved = tmp_path / "direct.jsonl"
        direct.save(saved)
        assert store.sha256() == hashlib.sha256(
            saved.read_bytes()
        ).hexdigest()

    def test_retain_false_drops_snapshots_but_store_is_complete(
        self, tiny_stack, tmp_path
    ):
        """A spilled run keeps no snapshot in memory: the store holds them."""
        world, spec = tiny_stack
        config = _tiny_config(spec, 2)
        result = run_campaign(
            config, _tiny_client(world, spec), spill=tmp_path / "spill"
        )
        assert result.snapshots == []
        assert SpillStore.open(tmp_path / "spill").n_snapshots == 2

    def test_resume_from_spill_is_byte_identical(self, tiny_stack, tmp_path):
        world, spec = tiny_stack
        # First process: two of four collections, then "dies".
        run_campaign(
            _tiny_config(spec, 2), _tiny_client(world, spec),
            spill=tmp_path / "spill",
        )
        # Restart: the spill directory is the campaign's durable state.
        recorder = _CheckpointRecorder()
        run_campaign(
            _tiny_config(spec, 4), _tiny_client(world, spec),
            spill=tmp_path / "spill", observer=recorder,
        )
        assert ("resume-spill", 2) in recorder.checkpoints
        reference = run_campaign(
            _tiny_config(spec, 4), _tiny_client(world, spec)
        )
        saved = tmp_path / "reference.jsonl"
        reference.save(saved)
        store = SpillStore.open(tmp_path / "spill")
        assert store.n_snapshots == 4
        assert store.sha256() == hashlib.sha256(
            saved.read_bytes()
        ).hexdigest()

    def test_schedule_mismatch_rejected_on_resume(self, tiny_stack, tmp_path):
        world, spec = tiny_stack
        run_campaign(
            _tiny_config(spec, 2), _tiny_client(world, spec),
            spill=tmp_path / "spill",
        )
        shifted = dataclasses.replace(
            _tiny_config(spec, 4), interval_days=3
        )
        with pytest.raises(ValueError, match="schedule says"):
            run_campaign(
                shifted, _tiny_client(world, spec), spill=tmp_path / "spill"
            )

    def test_partial_sidecar_cleared_after_completion(
        self, tiny_stack, tmp_path
    ):
        world, spec = tiny_stack
        run_campaign(
            _tiny_config(spec, 2), _tiny_client(world, spec),
            spill=tmp_path / "spill",
        )
        assert not (tmp_path / "spill" / "partial.jsonl").exists()

    def test_spill_write_events_flow_to_observer(self, tiny_stack, tmp_path):
        from repro.obs import CampaignObserver

        world, spec = tiny_stack
        obs = CampaignObserver()
        run_campaign(
            _tiny_config(spec, 2), _tiny_client(world, spec),
            spill=tmp_path / "spill", observer=obs,
        )
        events = obs.tracer.of_type("spill.write")
        assert [e.fields["index"] for e in events] == [0, 1]
        assert sum(e.fields["data_bytes"] for e in events) > 0
