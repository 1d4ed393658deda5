"""Golden campaign test: both engines must reproduce the pinned bytes.

``tests/golden/campaign_reduced.json`` pins the sha256 (and size, video
count, and quota spend) of a reduced-scale seed-20250209 campaign saved
as JSONL.  The tests here run that exact campaign on the default batch
engine and on the per-call engine (``engine="per-call"``, the reference
path faults, resume, and ``tolerate_failures`` run on) and assert both
produce files matching the golden hash, size, and quota spend — the
determinism contract the whole repository rests on.  The world under
the campaign is pinned separately, entity by entity, by
``tests/test_world_columnar.py``'s recorded digests.

``tests/golden/campaign_reduced_comments.json`` pins the same campaign
with comment sweeps on collections 0 and 2: 332 comment payloads, the
captures the line encoder splices most.  It is checked on both engines,
after a ``load`` -> ``save`` round trip, and (in ``tests/test_spill.py``)
through the spill store's export.

Regeneration recipe (only when the *simulator's data model* legitimately
changes — never to paper over an engine divergence).  ``COMMENTS = ()``
prints ``campaign_reduced.json``; ``COMMENTS = (0, 2)`` prints
``campaign_reduced_comments.json``::

    PYTHONPATH=src python - <<'EOF'
    import dataclasses, hashlib, json, tempfile
    from pathlib import Path
    from repro.api import QuotaPolicy, YouTubeClient, build_service
    from repro.core import paper_campaign_config, run_campaign
    from repro.world import build_world
    from repro.world.corpus import scale_topics
    from repro.world.topics import paper_topics

    SEED, SCALE, COLLECTIONS, COMMENTS = 20250209, 0.05, 3, ()
    specs = scale_topics(paper_topics(), SCALE)
    world = build_world(specs, seed=SEED)
    config = dataclasses.replace(
        paper_campaign_config(topics=specs), n_scheduled=COLLECTIONS,
        skipped_indices=frozenset(), comment_snapshot_indices=COMMENTS,
    )
    service = build_service(world, seed=SEED, specs=specs,
                            quota_policy=QuotaPolicy(researcher_program=True))
    campaign = run_campaign(config, YouTubeClient(service))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "campaign.jsonl"
        campaign.save(path)
        payload = path.read_bytes()
    extra = {"comment_snapshot_indices": list(COMMENTS)} if COMMENTS else {}
    print(json.dumps({
        "seed": SEED, "scale": SCALE, "collections": COLLECTIONS, **extra,
        "sha256": hashlib.sha256(payload).hexdigest(), "bytes": len(payload),
        "total_videos": sum(s.topic(k).total_returned
                            for s in campaign.snapshots
                            for k in campaign.topic_keys),
        **({"comment_payloads": sum(len(s.topic(k).comments)
                                    for s in campaign.snapshots
                                    for k in campaign.topic_keys)}
           if COMMENTS else {}),
        "quota_units": service.quota.total_used,
    }, indent=2))
    EOF

Paste the output over the golden file and explain the data-model change
in the commit message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.api import QuotaPolicy, YouTubeClient, build_service
from repro.core import paper_campaign_config, run_campaign
from repro.core.datasets import CampaignResult
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.policy import RetryBudget, RetryPolicy
from repro.world import build_world
from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "campaign_reduced.json").read_text()
)
GOLDEN_COMMENTS = json.loads(
    (Path(__file__).parent / "golden" / "campaign_reduced_comments.json")
    .read_text()
)


@pytest.fixture(scope="module")
def golden_specs():
    return scale_topics(paper_topics(), GOLDEN["scale"])


@pytest.fixture(scope="module")
def golden_world(golden_specs):
    return build_world(golden_specs, seed=GOLDEN["seed"])


def golden_config(specs, golden: dict = GOLDEN):
    """The golden campaign's config (comment sweeps as ``golden`` pins)."""
    return dataclasses.replace(
        paper_campaign_config(topics=specs),
        n_scheduled=golden["collections"],
        skipped_indices=frozenset(),
        comment_snapshot_indices=tuple(
            golden.get("comment_snapshot_indices", ())
        ),
    )


def _run(golden_world, golden_specs, tmp_path, name, golden: dict = GOLDEN,
         service=None, client_kwargs=None, **campaign_kwargs):
    """Run a golden campaign on one engine; return (campaign, path, units)."""
    if service is None:
        service = _service(golden_world, golden_specs, golden)
    campaign = run_campaign(
        golden_config(golden_specs, golden),
        YouTubeClient(service, **(client_kwargs or {})),
        **campaign_kwargs,
    )
    path = tmp_path / f"{name}.jsonl"
    campaign.save(path)
    return campaign, path, service.quota.total_used


def _service(golden_world, golden_specs, golden: dict = GOLDEN):
    return build_service(
        golden_world,
        seed=golden["seed"],
        specs=golden_specs,
        quota_policy=QuotaPolicy(researcher_program=True),
    )


def _assert_golden(payload: bytes, units: int, golden: dict = GOLDEN) -> None:
    assert hashlib.sha256(payload).hexdigest() == golden["sha256"]
    assert len(payload) == golden["bytes"]
    assert units == golden["quota_units"]


class TestGoldenCampaign:
    def test_serial_matches_golden_sha256(
        self, golden_world, golden_specs, tmp_path
    ):
        _, path, units = _run(golden_world, golden_specs, tmp_path, "serial")
        _assert_golden(path.read_bytes(), units)

    def test_per_call_engine_matches_golden_sha256(
        self, golden_world, golden_specs, tmp_path
    ):
        _, path, units = _run(
            golden_world, golden_specs, tmp_path, "per-call",
            engine="per-call",
        )
        _assert_golden(path.read_bytes(), units)

    def test_golden_fixture_is_well_formed(self):
        assert set(GOLDEN) == {
            "seed", "scale", "collections", "sha256", "bytes",
            "total_videos", "quota_units",
        }
        assert set(GOLDEN_COMMENTS) == set(GOLDEN) | {
            "comment_snapshot_indices", "comment_payloads",
        }
        for golden in (GOLDEN, GOLDEN_COMMENTS):
            assert len(golden["sha256"]) == 64
            int(golden["sha256"], 16)  # hex-parses


class TestGoldenComments:
    """The comment captures' bytes, pinned on both engines and reloaded."""

    @pytest.mark.parametrize("engine", ["batch", "per-call"])
    def test_comment_campaign_matches_golden_sha256(
        self, golden_world, golden_specs, tmp_path, engine
    ):
        campaign, path, units = _run(
            golden_world, golden_specs, tmp_path, engine, GOLDEN_COMMENTS,
            engine=engine,
        )
        payload = path.read_bytes()
        _assert_golden(payload, units, GOLDEN_COMMENTS)
        assert sum(
            len(snap.topic(key).comments)
            for snap in campaign.snapshots for key in campaign.topic_keys
        ) == GOLDEN_COMMENTS["comment_payloads"]
        # load -> save keeps every resource's bytes.
        resaved = tmp_path / f"{engine}-resaved.jsonl"
        CampaignResult.load(path).save(resaved)
        assert resaved.read_bytes() == payload

    def test_id_capture_under_faults_matches_golden_sha256(
        self, golden_world, golden_specs, tmp_path
    ):
        """Transient and rate-limit faults on all four ID endpoints are
        retried away: same bytes, same per-day ledger, each completed call
        billed once.  An armed plan sends search down the per-call engine."""

        class Recorder:
            """An armed fault gate that only records each attempt's endpoint."""

            def __init__(self) -> None:
                self.endpoints: list[str] = []

            def maybe_fail(self, endpoint: str) -> None:
                self.endpoints.append(endpoint)

        clean = _service(golden_world, golden_specs, GOLDEN_COMMENTS)
        recorder = Recorder()
        clean.transport.faults = recorder
        _, clean_path, _ = _run(
            golden_world, golden_specs, tmp_path, "clean", GOLDEN_COMMENTS,
            service=clean,
        )
        # Fault the first, a middle and the last call of each ID endpoint.
        # Each fault costs one retry attempt, which shifts every later
        # call's tick by one.
        targets = []
        for endpoint in ("videos.list", "channels.list",
                         "commentThreads.list", "comments.list"):
            ticks = [t for t, e in enumerate(recorder.endpoints) if e == endpoint]
            assert ticks, endpoint
            targets += [ticks[0], ticks[len(ticks) // 2], ticks[-1]]
        specs = [
            FaultSpec(
                start=tick + shift, count=1, endpoint=recorder.endpoints[tick],
                error=("backendError", "rateLimitExceeded")[shift % 2],
            )
            for shift, tick in enumerate(sorted(set(targets)))
        ]

        faulted = _service(golden_world, golden_specs, GOLDEN_COMMENTS)
        plan = FaultPlan(specs)
        faulted.transport.faults = plan
        budget = RetryBudget(1_000)
        _, path, units = _run(
            golden_world, golden_specs, tmp_path, "faulted", GOLDEN_COMMENTS,
            service=faulted,
            client_kwargs={"retry_policy": RetryPolicy(max_attempts=4, budget=budget)},
        )
        assert len(plan.injected) == len(specs)
        assert {reason for _, _, reason in plan.injected} == {
            "backendError", "rateLimitExceeded"
        }
        assert {endpoint for _, endpoint, _ in plan.injected} == {
            "videos.list", "channels.list", "commentThreads.list", "comments.list"
        }
        assert budget.limit - budget.remaining == len(specs)  # one retry each
        _assert_golden(path.read_bytes(), units, GOLDEN_COMMENTS)
        assert path.read_bytes() == clean_path.read_bytes()
        assert faulted.quota.usage_by_day() == clean.quota.usage_by_day()
        assert (faulted.transport.calls_by_endpoint()
                == clean.transport.calls_by_endpoint())
        assert faulted.transport.total_calls == len(recorder.endpoints)
