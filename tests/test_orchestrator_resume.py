"""Checkpoint-resume edge cases: compaction, idempotence, revocation, refunds.

These are the corners of the recovery matrix the happy-path daemon tests
do not reach: resuming *through* a journal compaction (the state lives in
``snapshot.json``, not the log), double-resume races, keys revoked while
a campaign is parked, and the exact refund accounting when a paused or
crashed campaign is cancelled instead of resumed.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.orchestrator import OrchestratorDaemon
from repro.orchestrator.model import (
    ADMITTED, CANCELLED, COMPLETED, DEGRADED, FAILED, PAUSED, RUNNING,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve.gateway import ServeError, build_gateway
from repro.serve.keys import KeyTable
from repro.world.corpus import build_world, scale_topic
from repro.world.topics import paper_topics

SEED = 20250209
SNAPSHOT_UNITS = 48 * 100


@pytest.fixture(scope="module")
def orch_spec():
    smallest = min(paper_topics(), key=lambda spec: spec.n_videos)
    return dataclasses.replace(scale_topic(smallest, 0.05), window_days=1)


@pytest.fixture(scope="module")
def orch_world(orch_spec):
    return build_world((orch_spec,), seed=SEED, with_comments=False)


@pytest.fixture()
def gateway(orch_world, orch_spec):
    gw = build_gateway(
        world=orch_world, specs=(orch_spec,), seed=SEED,
        keys=KeyTable(seed=SEED),
    )
    yield gw
    gw.close()


def wait_for(predicate, timeout=30.0, poll_s=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


def _parked_campaign(gateway, daemon, state, detail=""):
    """Submit a campaign and walk it to ``state`` through valid transitions."""
    key = gateway.mint_key(daily_limit=10_000)
    cid = daemon.submit(key.credential)["campaignId"]
    campaign = daemon.state.campaigns[cid]
    daemon._transition(campaign, RUNNING)
    daemon._transition(campaign, state, detail)
    return key, cid


class TestResumeAfterCompaction:
    def test_crash_recovery_through_compaction_is_byte_identical(
        self, gateway, tmp_path
    ):
        key = gateway.mint_key(daily_limit=10_000)
        ref = OrchestratorDaemon(gateway, tmp_path / "ref")
        ref.start()
        ref_cid = ref.submit(key.credential, collections=2)["campaignId"]
        assert ref.wait_idle(timeout=60)
        ref.drain()

        # compact_every=16 forces several compactions per snapshot, so the
        # crash lands with most of the billing history already folded into
        # snapshot.json and only a short journal tail behind it.
        crashed = OrchestratorDaemon(
            gateway, tmp_path / "orch", compact_every=16,
        )
        crashed.fault_factory = lambda cid: FaultPlan(
            (FaultSpec(start=70, count=1, error="processCrash"),)
        )
        crashed.start()
        cid = crashed.submit(key.credential, collections=2)["campaignId"]
        assert wait_for(lambda: cid in crashed.crashed_campaigns)
        assert crashed.journal.snapshot_path.exists()

        recovered = OrchestratorDaemon(
            gateway, tmp_path / "orch", compact_every=16,
        )
        assert recovered.state.campaigns[cid].state == ADMITTED
        recovered.start()
        assert recovered.wait_idle(timeout=60)
        assert recovered.state.campaigns[cid].state == COMPLETED
        assert recovered.result_sha256(cid) == ref.result_sha256(ref_cid)
        assert sum(recovered.usage_for_key(key.key_id).values()) == (
            2 * SNAPSHOT_UNITS
        )
        recovered.drain()

    def test_drain_compacts_so_restart_replays_a_snapshot(
        self, gateway, tmp_path
    ):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        daemon.submit(key.credential, collections=1)
        assert daemon.wait_idle(timeout=60)
        daemon.drain()
        assert daemon.journal.snapshot_path.exists()
        assert daemon.journal.journal_path.read_text() == ""

        restarted = OrchestratorDaemon(gateway, tmp_path / "orch")
        assert restarted.state.to_dict() == daemon.state.to_dict()


class TestJournaledBilling:
    def test_batch_swept_bins_journal_their_own_spend(self, gateway, tmp_path):
        # The default batch engine bills a whole topic before it records
        # the first bin.  Each journaled bin must still carry only its own
        # page, or a kill -9 inside the group write would leave every page
        # on the first bins and the resume would bill the rest again (the
        # failure tools/orchestrator_smoke.py catches with a real SIGKILL).
        # The finished snapshot's bins are folded out of the state, so
        # read them from the journal, before the drain compacts it.
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        cid = daemon.submit(key.credential, collections=1)["campaignId"]
        assert daemon.wait_idle(timeout=60)
        bins = [
            record for record in daemon.journal.replay_records()
            if record["kind"] == "bin" and record["campaign"] == cid
        ]
        daemon.drain()
        assert len(bins) == SNAPSHOT_UNITS // 100
        assert {record["units"] for record in bins} == {100}


class TestResumeIdempotence:
    def test_double_resume_enqueues_once(self, gateway, tmp_path):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key, cid = _parked_campaign(gateway, daemon, PAUSED, "paused")
        baseline = daemon._queue.qsize()  # the original submit's entry
        first = daemon.resume(key.credential, cid)
        assert first["state"] == ADMITTED
        assert daemon._queue.qsize() == baseline + 1
        second = daemon.resume(key.credential, cid)  # no-op, not an error
        assert second["state"] == ADMITTED
        assert daemon._queue.qsize() == baseline + 1

    def test_resume_of_terminal_campaign_is_409(self, gateway, tmp_path):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key = gateway.mint_key(daily_limit=10_000)
        cid = daemon.submit(key.credential)["campaignId"]
        daemon.cancel(key.credential, cid)
        with pytest.raises(ServeError) as err:
            daemon.resume(key.credential, cid)
        assert (err.value.http_status, err.value.reason) == (409, "notResumable")

    def test_degraded_campaign_is_resumable(self, gateway, tmp_path):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key, cid = _parked_campaign(
            gateway, daemon, DEGRADED, "quota: daily limit"
        )
        assert daemon.resume(key.credential, cid)["state"] == ADMITTED


class TestResumeWithRevokedKey:
    def test_restart_fails_parked_campaigns_of_revoked_keys(
        self, gateway, tmp_path
    ):
        """Even a tenant-paused campaign dies with its credential."""
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key, cid = _parked_campaign(gateway, daemon, PAUSED, "paused")
        gateway.revoke_key(key.key_id)
        restarted = OrchestratorDaemon(gateway, tmp_path / "orch")
        campaign = restarted.state.campaigns[cid]
        assert campaign.state == FAILED
        assert "keyRevoked" in campaign.detail

    def test_resume_with_revoked_credential_cannot_authenticate(
        self, gateway, tmp_path
    ):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        key, cid = _parked_campaign(gateway, daemon, PAUSED, "paused")
        gateway.revoke_key(key.key_id)
        with pytest.raises(ServeError) as err:
            daemon.status(key.credential, cid)
        assert err.value.http_status == 403


class TestDrainPauseRecovery:
    def test_drain_paused_campaigns_auto_resume_on_restart(
        self, gateway, tmp_path
    ):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        _key, cid = _parked_campaign(gateway, daemon, PAUSED, "drain")
        restarted = OrchestratorDaemon(gateway, tmp_path / "orch")
        campaign = restarted.state.campaigns[cid]
        assert campaign.state == ADMITTED
        assert campaign.detail == "recovered"

    def test_tenant_paused_campaigns_stay_paused_on_restart(
        self, gateway, tmp_path
    ):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        _key, cid = _parked_campaign(gateway, daemon, PAUSED, "paused")
        restarted = OrchestratorDaemon(gateway, tmp_path / "orch")
        assert restarted.state.campaigns[cid].state == PAUSED


class TestRefundAccounting:
    def test_cancel_of_paused_campaign_keeps_persisted_billing(
        self, gateway, tmp_path
    ):
        """Completed snapshots stay billed; only in-flight work refunds."""
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
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
        done = status["snapshotsDone"]
        payload = daemon.cancel(key.credential, cid)
        assert payload["state"] == CANCELLED
        # The tenant downloaded `done` snapshots; it pays for exactly them.
        assert payload["quotaUnits"] == done * SNAPSHOT_UNITS
        assert sum(daemon.usage_for_key(key.key_id).values()) == (
            done * SNAPSHOT_UNITS
        )
        daemon.drain()

    def test_refund_survives_restart(self, gateway, tmp_path):
        daemon = OrchestratorDaemon(gateway, tmp_path / "orch")
        daemon.fault_factory = lambda cid: FaultPlan(
            (FaultSpec(start=20, count=1, error="processCrash"),)
        )
        key = gateway.mint_key(daily_limit=10_000)
        daemon.start()
        cid = daemon.submit(key.credential, collections=1)["campaignId"]
        assert wait_for(lambda: cid in daemon.crashed_campaigns)

        restarted = OrchestratorDaemon(gateway, tmp_path / "orch")
        restarted.cancel(key.credential, cid)
        assert restarted.usage_for_key(key.key_id) == {}

        # The refund is a journal record like any other: a further restart
        # folds it again and the ledger still reads zero.
        again = OrchestratorDaemon(gateway, tmp_path / "orch")
        assert again.usage_for_key(key.key_id) == {}
        assert again.state.campaigns[cid].state == CANCELLED
