"""Golden campaign test: both engines must reproduce the pinned bytes.

``tests/golden/campaign_reduced.json`` pins the sha256 (and size, video
count, and quota spend) of a reduced-scale seed-20250209 campaign saved
as JSONL.  The tests here run that exact campaign on the default batch
engine and on the per-call engine (``engine="per-call"``, the reference
path faults, resume, and ``tolerate_failures`` run on) and assert both
produce files matching the golden hash, size, and quota spend — the
determinism contract the whole repository rests on.  Both engines are
re-run over a world built with ``use_columnar=False`` (the eager oracle
assembly path), pinning the columnar and legacy builders to the same
bytes.

Regeneration recipe (only when the *simulator's data model* legitimately
changes — never to paper over an engine divergence)::

    PYTHONPATH=src python - <<'EOF'
    import dataclasses, hashlib, json, tempfile
    from pathlib import Path
    from repro.api import QuotaPolicy, YouTubeClient, build_service
    from repro.core import paper_campaign_config, run_campaign
    from repro.world import build_world
    from repro.world.corpus import scale_topics
    from repro.world.topics import paper_topics

    SEED, SCALE, COLLECTIONS = 20250209, 0.05, 3
    specs = scale_topics(paper_topics(), SCALE)
    world = build_world(specs, seed=SEED)
    config = dataclasses.replace(
        paper_campaign_config(topics=specs), n_scheduled=COLLECTIONS,
        skipped_indices=frozenset(), comment_snapshot_indices=(),
    )
    service = build_service(world, seed=SEED, specs=specs,
                            quota_policy=QuotaPolicy(researcher_program=True))
    campaign = run_campaign(config, YouTubeClient(service))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "campaign.jsonl"
        campaign.save(path)
        payload = path.read_bytes()
    print(json.dumps({
        "seed": SEED, "scale": SCALE, "collections": COLLECTIONS,
        "sha256": hashlib.sha256(payload).hexdigest(), "bytes": len(payload),
        "total_videos": sum(s.topic(k).total_returned
                            for s in campaign.snapshots
                            for k in campaign.topic_keys),
        "quota_units": service.quota.total_used,
    }, indent=2))
    EOF

Paste the output over ``tests/golden/campaign_reduced.json`` and explain
the data-model change in the commit message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.api import QuotaPolicy, YouTubeClient, build_service
from repro.core import paper_campaign_config, run_campaign
from repro.world import build_world
from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "campaign_reduced.json").read_text()
)


@pytest.fixture(scope="module")
def golden_specs():
    return scale_topics(paper_topics(), GOLDEN["scale"])


@pytest.fixture(scope="module")
def golden_world(golden_specs):
    return build_world(golden_specs, seed=GOLDEN["seed"])


@pytest.fixture(scope="module")
def legacy_world(golden_specs):
    """The eager oracle builder: must reproduce the same pinned bytes."""
    return build_world(golden_specs, seed=GOLDEN["seed"], use_columnar=False)


def _run(golden_world, golden_specs, tmp_path, name, **campaign_kwargs):
    """Run the golden campaign on one engine; return (bytes, units)."""
    service = build_service(
        golden_world,
        seed=GOLDEN["seed"],
        specs=golden_specs,
        quota_policy=QuotaPolicy(researcher_program=True),
    )
    config = dataclasses.replace(
        paper_campaign_config(topics=golden_specs),
        n_scheduled=GOLDEN["collections"],
        skipped_indices=frozenset(),
        comment_snapshot_indices=(),
    )
    campaign = run_campaign(config, YouTubeClient(service), **campaign_kwargs)
    path = tmp_path / f"{name}.jsonl"
    campaign.save(path)
    return path.read_bytes(), service.quota.total_used


def _assert_golden(payload: bytes, units: int) -> None:
    assert hashlib.sha256(payload).hexdigest() == GOLDEN["sha256"]
    assert len(payload) == GOLDEN["bytes"]
    assert units == GOLDEN["quota_units"]


class TestGoldenCampaign:
    def test_serial_matches_golden_sha256(
        self, golden_world, golden_specs, tmp_path
    ):
        _assert_golden(*_run(golden_world, golden_specs, tmp_path, "serial"))

    def test_per_call_engine_matches_golden_sha256(
        self, golden_world, golden_specs, tmp_path
    ):
        _assert_golden(*_run(
            golden_world, golden_specs, tmp_path, "per-call",
            engine="per-call",
        ))

    def test_legacy_world_serial_matches_golden_sha256(
        self, legacy_world, golden_specs, tmp_path
    ):
        _assert_golden(*_run(legacy_world, golden_specs, tmp_path, "legacy"))

    def test_legacy_world_per_call_engine_matches_golden_sha256(
        self, legacy_world, golden_specs, tmp_path
    ):
        _assert_golden(*_run(
            legacy_world, golden_specs, tmp_path, "legacy-per-call",
            engine="per-call",
        ))

    def test_golden_fixture_is_well_formed(self):
        assert set(GOLDEN) == {
            "seed", "scale", "collections", "sha256", "bytes",
            "total_videos", "quota_units",
        }
        assert len(GOLDEN["sha256"]) == 64
        int(GOLDEN["sha256"], 16)  # hex-parses
