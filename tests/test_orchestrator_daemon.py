"""Daemon behavior over a live worker pool: admission, lifecycle, recovery.

The world here is deliberately tiny — one small topic with a 1-day window,
so a snapshot is 48 hour-bin queries (4,800 units) and a full 2-collection
campaign runs in about a second.  That is large enough to exercise every
journaled record kind and small enough to run the kill/recover/re-run
cycle several times per test module.

The headline assertions mirror the chaos harness's invariants:

* an uninterrupted campaign and a crashed-then-recovered campaign produce
  **byte-identical** results (each campaign's spill store, serialized);
* the journal-derived tenant ledger reconciles **exactly** — every
  hour-bin query billed once, cancelled in-flight work refunded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import pytest

from repro.api import YouTubeClient, build_service
from repro.core.campaign import run_campaign
from repro.orchestrator import OrchestratorDaemon
from repro.orchestrator.model import (
    ADMITTED, CANCELLED, COMPLETED, FAILED, PAUSED, RUNNING,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sampling.churn import ChurnProcess
from repro.sampling.engine import SearchBehaviorEngine
from repro.serve.gateway import ServeError, build_gateway
from repro.serve.keys import KeyTable
from repro.world.corpus import build_world, scale_topic
from repro.world.topics import paper_topics

SEED = 20250209
#: One snapshot of the test campaign: 1 topic x 1-day window x 48 bins.
SNAPSHOT_UNITS = 48 * 100


@pytest.fixture(scope="module")
def orch_spec():
    smallest = min(paper_topics(), key=lambda spec: spec.n_videos)
    return dataclasses.replace(scale_topic(smallest, 0.05), window_days=1)


@pytest.fixture(scope="module")
def orch_world(orch_spec):
    return build_world((orch_spec,), seed=SEED, with_comments=False)


def make_gateway(orch_world, orch_spec):
    return build_gateway(
        world=orch_world, specs=(orch_spec,), seed=SEED,
        keys=KeyTable(seed=SEED),
    )


def wait_for(predicate, timeout=30.0, poll_s=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


def fresh_sha256(daemon, orch_world, orch_spec, tmp_path, **shape):
    """The digest of the campaign run in memory on its own
    ``build_service`` and saved, no daemon and no spill store."""
    path = tmp_path / "fresh-{collections}x{interval_days}.jsonl".format(**shape)
    service = build_service(orch_world, seed=SEED, specs=(orch_spec,))
    run_campaign(
        daemon._campaign_config(**shape), YouTubeClient(service)
    ).save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def stack(orch_world, orch_spec, tmp_path):
    gateway = make_gateway(orch_world, orch_spec)
    daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
    yield gateway, daemon
    gateway.close()


class TestSubmitAndComplete:
    def test_campaign_completes_with_exact_ledger(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        payload = daemon.submit(key.credential, collections=2)
        assert payload["state"] == ADMITTED
        cid = payload["campaignId"]
        assert daemon.wait_idle(timeout=60)

        status = daemon.status(key.credential, cid)
        assert status["state"] == COMPLETED
        assert status["snapshotsDone"] == 2
        assert status["quotaUnits"] == 2 * SNAPSHOT_UNITS
        # The 5-day cadence: each snapshot billed on its own virtual day.
        assert daemon.usage_for_key(key.key_id) == {
            "2025-02-09": SNAPSHOT_UNITS,
            "2025-02-14": SNAPSHOT_UNITS,
        }
        assert daemon.campaign_path(cid).exists()
        assert daemon.result_sha256(cid) is not None
        daemon.drain()

    def test_two_tenants_run_concurrently_and_identically(self, stack):
        gateway, daemon = stack
        key_a = gateway.mint_key(daily_limit=10_000)
        key_b = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        cid_a = daemon.submit(key_a.credential, collections=2)["campaignId"]
        cid_b = daemon.submit(key_b.credential, collections=2)["campaignId"]
        assert daemon.wait_idle(timeout=60)
        # Same config over the same world: the results must be identical,
        # and each tenant is billed exactly its own campaign.
        assert daemon.result_sha256(cid_a) == daemon.result_sha256(cid_b)
        for key in (key_a, key_b):
            assert sum(daemon.usage_for_key(key.key_id).values()) == (
                2 * SNAPSHOT_UNITS
            )
        daemon.drain()

    def test_observer_collects_orch_metrics(self, orch_world, orch_spec, tmp_path):
        from repro.obs import CampaignObserver

        gateway = build_gateway(
            world=orch_world, specs=(orch_spec,), seed=SEED,
            keys=KeyTable(seed=SEED), observer=CampaignObserver(),
        )
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        daemon.submit(key.credential, collections=1)
        assert daemon.wait_idle(timeout=60)
        daemon.drain()
        gateway.close()
        obs = gateway.observer
        for event_type in ("orch.transition", "orch.admission", "orch.journal"):
            assert obs.tracer.of_type(event_type)
        transitions = [
            e for e in obs.tracer.events if e.type == "orch.transition"
        ]
        assert [e.fields["new"] for e in transitions] == [
            ADMITTED, RUNNING, COMPLETED
        ]


class TestAdmission:
    def test_quota_never_fits_is_permanent_400(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=100)  # < one snapshot
        with pytest.raises(ServeError) as err:
            daemon.submit(key.credential)
        assert (err.value.http_status, err.value.reason) == (400, "quotaNeverFits")
        assert err.value.retry_after is None
        assert daemon.state.campaigns == {}  # rejects are never journaled

    def test_tenant_cap_is_429_with_retry_after(self, stack):
        gateway, daemon = stack  # workers not started: submissions queue up
        key = gateway.mint_key(daily_limit=10_000)
        daemon.submit(key.credential)
        daemon.submit(key.credential)
        with pytest.raises(ServeError) as err:
            daemon.submit(key.credential)
        assert (err.value.http_status, err.value.reason) == (429, "tenantBusy")
        assert err.value.retry_after >= 5

    def test_bounded_queue_is_429_queue_full(self, orch_world, orch_spec, tmp_path):
        gateway = make_gateway(orch_world, orch_spec)
        daemon = OrchestratorDaemon(
            gateway, tmp_path / "orch", max_queued=1, per_tenant_active=10,
        )
        key = gateway.mint_key(daily_limit=10_000)
        daemon.submit(key.credential)
        with pytest.raises(ServeError) as err:
            daemon.submit(key.credential)
        assert (err.value.http_status, err.value.reason) == (429, "queueFull")
        assert err.value.retry_after is not None
        gateway.close()

    def test_draining_daemon_rejects_with_503(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=10_000)
        daemon.drain()
        with pytest.raises(ServeError) as err:
            daemon.submit(key.credential)
        assert (err.value.http_status, err.value.reason) == (503, "shuttingDown")
        assert err.value.retry_after == 30

    def test_parameter_validation_is_400(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=10_000)
        for kwargs in (
            {"collections": 0}, {"collections": 18},
            {"interval_days": 0}, {"interval_days": 31},
            {"priority": -1}, {"priority": 10},
        ):
            with pytest.raises(ServeError) as err:
                daemon.submit(key.credential, **kwargs)
            assert err.value.reason == "invalidParameter"

    def test_foreign_campaign_is_404(self, stack):
        gateway, daemon = stack
        mine = gateway.mint_key(daily_limit=10_000)
        theirs = gateway.mint_key(daily_limit=10_000)
        cid = daemon.submit(mine.credential)["campaignId"]
        with pytest.raises(ServeError) as err:
            daemon.status(theirs.credential, cid)
        assert err.value.http_status == 404
        assert daemon.list_campaigns(theirs.credential) == []
        assert len(daemon.list_campaigns(mine.credential)) == 1

    def test_overview_reports_occupancy(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=10_000)
        daemon.submit(key.credential)
        overview = daemon.overview()
        assert overview["queued"] == 1
        assert overview["campaigns"] == {ADMITTED: 1}
        assert overview["draining"] is False


class TestLifecycleControls:
    def test_cancel_while_queued_is_immediate_and_idempotent(self, stack):
        gateway, daemon = stack  # no workers: stays queued
        key = gateway.mint_key(daily_limit=10_000)
        cid = daemon.submit(key.credential)["campaignId"]
        assert daemon.cancel(key.credential, cid)["state"] == CANCELLED
        assert daemon.cancel(key.credential, cid)["state"] == CANCELLED

    def test_cancel_after_completion_is_409(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        cid = daemon.submit(key.credential, collections=1)["campaignId"]
        assert daemon.wait_idle(timeout=60)
        with pytest.raises(ServeError) as err:
            daemon.cancel(key.credential, cid)
        assert (err.value.http_status, err.value.reason) == (
            409, "alreadyFinished"
        )
        daemon.drain()

    def test_pause_requires_running(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=10_000)
        cid = daemon.submit(key.credential)["campaignId"]
        with pytest.raises(ServeError) as err:
            daemon.pause(key.credential, cid)
        assert err.value.reason == "notRunning"

    def test_pause_then_resume_round_trip(self, stack):
        gateway, daemon = stack
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        cid = daemon.submit(key.credential, collections=3)["campaignId"]
        assert wait_for(
            lambda: daemon.status(key.credential, cid)["state"] == RUNNING
        )
        daemon.pause(key.credential, cid)
        assert wait_for(
            lambda: daemon.status(key.credential, cid)["state"]
            in (PAUSED, COMPLETED)
        )
        status = daemon.status(key.credential, cid)
        if status["state"] == COMPLETED:
            pytest.skip("pause landed after the final boundary on this box")
        assert 1 <= status["snapshotsDone"] < 3
        # Resume picks up exactly where the checkpoint left off.
        daemon.resume(key.credential, cid)
        assert daemon.wait_idle(timeout=60)
        final = daemon.status(key.credential, cid)
        assert final["state"] == COMPLETED
        assert final["quotaUnits"] == 3 * SNAPSHOT_UNITS
        daemon.drain()

    def test_priority_orders_the_queue(self, orch_world, orch_spec, tmp_path):
        from repro.obs import CampaignObserver

        gateway = build_gateway(
            world=orch_world, specs=(orch_spec,), seed=SEED,
            keys=KeyTable(seed=SEED), observer=CampaignObserver(),
        )
        daemon = OrchestratorDaemon(
            gateway, tmp_path / "orch", max_running=1, per_tenant_active=10,
        )
        key = gateway.mint_key(daily_limit=1_000_000)
        low = daemon.submit(key.credential, collections=1, priority=0)
        high = daemon.submit(key.credential, collections=1, priority=5)
        daemon.start()
        assert daemon.wait_idle(timeout=60)
        daemon.drain()
        gateway.close()
        started = [
            e.fields["campaign"]
            for e in gateway.observer.tracer.events
            if e.type == "orch.transition" and e.fields["new"] == RUNNING
        ]
        assert started == [high["campaignId"], low["campaignId"]]


class TestCrashRecovery:
    def test_midsnapshot_crash_recovers_byte_identical_with_exact_ledger(
        self, orch_world, orch_spec, tmp_path
    ):
        # Reference: one uninterrupted run.
        gateway = make_gateway(orch_world, orch_spec)
        ref = OrchestratorDaemon(gateway, tmp_path / "ref")
        key = gateway.mint_key(daily_limit=10_000)
        ref.start()
        ref_cid = ref.submit(key.credential, collections=2)["campaignId"]
        assert ref.wait_idle(timeout=60)
        ref.drain()
        ref_sha = ref.result_sha256(ref_cid)
        ref_usage = ref.usage_for_key(key.key_id)

        # Faulted: the process "dies" 22 bins into snapshot 1.
        crashed = OrchestratorDaemon(gateway, tmp_path / "crash")
        crashed.fault_factory = lambda cid: FaultPlan(
            (FaultSpec(start=70, count=1, error="processCrash"),)
        )
        crashed.start()
        cid = crashed.submit(key.credential, collections=2)["campaignId"]
        assert wait_for(lambda: cid in crashed.crashed_campaigns)
        # The journal still says "running": nothing after the fsynced bins
        # reached disk, exactly like a real SIGKILL.
        assert crashed.state.campaigns[cid].state == RUNNING
        assert 0 < len(crashed.state.campaigns[cid].bins) < 96

        # Restart over the same workdir: recovery re-admits and re-runs
        # only the missing bins.
        recovered = OrchestratorDaemon(gateway, tmp_path / "crash")
        assert recovered.state.campaigns[cid].state == ADMITTED
        assert recovered.state.campaigns[cid].detail == "recovered"
        recovered.start()
        assert recovered.wait_idle(timeout=60)
        assert recovered.state.campaigns[cid].state == COMPLETED
        assert recovered.result_sha256(cid) == ref_sha
        assert recovered.usage_for_key(key.key_id) == ref_usage
        recovered.drain()
        gateway.close()

    def test_recovery_fails_campaigns_of_revoked_keys(
        self, orch_world, orch_spec, tmp_path
    ):
        gateway = make_gateway(orch_world, orch_spec)
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key = gateway.mint_key(daily_limit=10_000)
        cid = daemon.submit(key.credential)["campaignId"]  # queued, admitted
        gateway.revoke_key(key.key_id)

        restarted = OrchestratorDaemon(gateway, tmp_path / "orch")
        campaign = restarted.state.campaigns[cid]
        assert campaign.state == FAILED
        assert "keyRevoked" in campaign.detail
        gateway.close()

    def test_cancel_of_crashed_campaign_refunds_inflight_bins(
        self, orch_world, orch_spec, tmp_path
    ):
        gateway = make_gateway(orch_world, orch_spec)
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        daemon.fault_factory = lambda cid: FaultPlan(
            (FaultSpec(start=20, count=1, error="processCrash"),)
        )
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        cid = daemon.submit(key.credential, collections=2)["campaignId"]
        assert wait_for(lambda: cid in daemon.crashed_campaigns)
        billed = daemon.state.campaigns[cid].net_units
        assert billed > 0  # fsynced bins of the never-persisted snapshot

        restarted = OrchestratorDaemon(gateway, tmp_path / "orch")
        payload = restarted.cancel(key.credential, cid)
        assert payload["state"] == CANCELLED
        # Snapshot 0 never persisted, so every billed bin is refunded:
        # the tenant paid nothing for data it can never download.
        assert payload["quotaUnits"] == 0
        assert restarted.usage_for_key(key.key_id) == {}
        gateway.close()


class TestSpillResults:
    """Every campaign's result is its own SpillStore directory: the digest
    surface is the store's canonical serialization, and it is crash-safe."""

    def test_spill_digest_matches_checkpoint_mode(
        self, orch_world, orch_spec, tmp_path
    ):
        """The store digests to the bytes of the whole campaign saved in
        one file, the form a campaign checkpoint took."""
        gateway = make_gateway(orch_world, orch_spec)
        spilling = OrchestratorDaemon(gateway, tmp_path / "spill")
        key = gateway.mint_key(daily_limit=10_000)
        spilling.start()
        cid = spilling.submit(key.credential, collections=2)["campaignId"]
        assert spilling.wait_idle(timeout=60)
        status = spilling.status(key.credential, cid)
        assert status["state"] == COMPLETED
        assert spilling.campaign_path(cid) == (
            tmp_path / "spill" / "campaigns" / f"{cid}.spill"
        )
        assert spilling.campaign_path(cid).is_dir()
        # The store's canonical bytes == an in-memory run's saved bytes.
        assert spilling.result_sha256(cid) == fresh_sha256(
            spilling, orch_world, orch_spec, tmp_path,
            collections=2, interval_days=5,
        )
        assert spilling.usage_for_key(key.key_id) == {
            "2025-02-09": SNAPSHOT_UNITS,
            "2025-02-14": SNAPSHOT_UNITS,
        }
        spilling.drain()
        gateway.close()

    def test_spill_results_accepts_only_true(
        self, orch_world, orch_spec, tmp_path
    ):
        gateway = make_gateway(orch_world, orch_spec)
        daemon = OrchestratorDaemon(gateway, tmp_path / "a", spill_results=True)
        assert daemon.result_sha256("c0001") is None
        with pytest.raises(ValueError, match="checkpoint mode"):
            OrchestratorDaemon(gateway, tmp_path / "b", spill_results=False)
        gateway.close()

    def test_spill_mode_crash_recovery_is_byte_identical(
        self, orch_world, orch_spec, tmp_path
    ):
        gateway = make_gateway(orch_world, orch_spec)
        key = gateway.mint_key(daily_limit=10_000)
        ref = OrchestratorDaemon(gateway, tmp_path / "ref")
        ref.start()
        ref_cid = ref.submit(key.credential, collections=2)["campaignId"]
        assert ref.wait_idle(timeout=60)
        ref.drain()

        crashed = OrchestratorDaemon(gateway, tmp_path / "orch")
        crashed.fault_factory = lambda cid: FaultPlan(
            (FaultSpec(start=70, count=1, error="processCrash"),)
        )
        crashed.start()
        cid = crashed.submit(key.credential, collections=2)["campaignId"]
        assert wait_for(lambda: cid in crashed.crashed_campaigns)
        # Snapshot 0 already landed in the spill store before the crash.
        assert crashed.campaign_path(cid).is_dir()

        recovered = OrchestratorDaemon(gateway, tmp_path / "orch")
        recovered.start()
        assert recovered.wait_idle(timeout=60)
        assert recovered.state.campaigns[cid].state == COMPLETED
        assert recovered.result_sha256(cid) == ref.result_sha256(ref_cid)
        # Billed exactly once per bin across the crash (the ref daemon
        # has its own journal; this ledger holds only the crashed run).
        assert sum(recovered.usage_for_key(key.key_id).values()) == (
            2 * SNAPSHOT_UNITS
        )
        recovered.drain()
        gateway.close()


class TestSharedEngine:
    """Every campaign's service runs over the gateway's one search engine:
    own clock, ledger and transport, shared (topic, date) churn state."""

    def _spy(self, monkeypatch, name, record):
        real = getattr(ChurnProcess, name)

        def spy(process, *args):
            record(process, *args)
            return real(process, *args)

        monkeypatch.setattr(ChurnProcess, name, spy)

    def test_same_config_runs_churn_once_per_topic_and_date(
        self, stack, orch_world, orch_spec, tmp_path, monkeypatch
    ):
        calls = []
        self._spy(monkeypatch, "latent_at", lambda process, when: calls.append(
            (process._spec.key, when.date().isoformat())
        ))
        gateway, daemon = stack
        keys = [gateway.mint_key(daily_limit=10_000) for _ in range(2)]
        daemon.start()
        cids = [
            daemon.submit(key.credential, collections=2)["campaignId"]
            for key in keys
        ]
        assert daemon.wait_idle(timeout=60)
        daemon.drain()
        # One engine: the second campaign reads the first one's states.
        assert sorted(calls) == [
            (orch_spec.key, "2025-02-09"), (orch_spec.key, "2025-02-14"),
        ]
        digests = {daemon.result_sha256(cid) for cid in cids}
        assert digests == {fresh_sha256(
            daemon, orch_world, orch_spec, tmp_path,
            collections=2, interval_days=5,
        )}

    def test_interleaved_cadences_cold_start_each_lane_once(
        self, stack, orch_world, orch_spec, tmp_path, monkeypatch
    ):
        cold_starts = []
        self._spy(monkeypatch, "_cold_start", lambda process, lane, day: (
            cold_starts.append((process._spec.key, lane, day))
        ))
        gateway, daemon = stack
        key_a = gateway.mint_key(daily_limit=10_000)
        key_b = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        cid_a = daemon.submit(
            key_a.credential, collections=3, interval_days=5
        )["campaignId"]
        cid_b = daemon.submit(
            key_b.credential, collections=3, interval_days=7
        )["campaignId"]
        assert daemon.wait_idle(timeout=60)
        daemon.drain()
        # 1 topic x 2 lanes, at the shared first date; every later date
        # advances from the cursor or the anchor, whatever the interleaving.
        assert sorted(lane for _, lane, _ in cold_starts) == ["fast", "slow"]
        assert len({day for _, _, day in cold_starts}) == 1
        for cid, interval in ((cid_a, 5), (cid_b, 7)):
            assert daemon.result_sha256(cid) == fresh_sha256(
                daemon, orch_world, orch_spec, tmp_path,
                collections=3, interval_days=interval,
            )

    def test_gateway_job_result_is_unchanged(self, orch_world, orch_spec):
        from repro.core.experiments import paper_campaign_config
        from repro.util.timeutil import format_rfc3339

        gateway = make_gateway(orch_world, orch_spec)
        try:
            key = gateway.mint_key(daily_limit=10**6, researcher=True)
            jobs = [
                gateway.submit_campaign(
                    key.credential, collections=2, interval_days=interval
                )
                for interval in (5, 7)
            ]
            for job in jobs:
                assert job.wait(timeout=120)
                assert job.status == "done", job.error
                service = build_service(
                    orch_world, seed=SEED, specs=(orch_spec,),
                    quota_policy=key.policy,
                )
                config = dataclasses.replace(
                    paper_campaign_config(topics=(orch_spec,), with_comments=False),
                    n_scheduled=2, interval_days=job.interval_days,
                    skipped_indices=frozenset(), comment_snapshot_indices=(),
                )
                campaign = run_campaign(config, YouTubeClient(service))
                assert job.result == {
                    "collections": campaign.n_collections,
                    "quotaUnits": service.quota.total_used,
                    "topics": {
                        topic: len(campaign.ever_returned(topic))
                        for topic in campaign.topic_keys
                    },
                    "collectedAt": [
                        format_rfc3339(snap.collected_at)
                        for snap in campaign.snapshots
                    ],
                }
                assert job.quota_units == service.quota.total_used
        finally:
            gateway.close()

    def test_reference_bytes_come_from_another_engine(
        self, orch_world, orch_spec, monkeypatch
    ):
        engines = []
        real = SearchBehaviorEngine.execute

        def spy(engine, *args, **kwargs):
            engines.append(engine)
            return real(engine, *args, **kwargs)

        monkeypatch.setattr(SearchBehaviorEngine, "execute", spy)
        gateway = make_gateway(orch_world, orch_spec)
        try:
            key = gateway.mint_key(daily_limit=10_000)
            params = {
                "part": "snippet", "q": orch_spec.query,
                "asOf": "2025-02-09T00:00:00Z",
            }
            served, _ = gateway.search_list(key.credential, params)
            assert engines == [gateway.service.engine]
            assert gateway.reference_search_bytes(params) == served
            assert len(engines) == 2
            assert engines[1] is not gateway.service.engine
            # A campaign's service shares the warm engine; the oracle does not.
            assert gateway.campaign_service(key.policy).engine is engines[0]
        finally:
            gateway.close()
