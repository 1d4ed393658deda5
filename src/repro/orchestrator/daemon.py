"""The crash-safe campaign orchestrator daemon.

Runs many concurrent collection campaigns against **one shared warm
world** (the same world a :class:`~repro.serve.gateway.SimulatorGateway`
serves), with the property the rest of this module is organized around:

    **kill -9 at any instant loses nothing.**  Restarting the daemon over
    the same workdir resumes every campaign exactly where it was, produces
    byte-identical campaign results, and bills every hour-bin query
    exactly once.

How the pieces compose:

* Every state change is journaled *before* it is acted on
  (:mod:`repro.orchestrator.journal`); the in-memory
  :class:`~repro.orchestrator.model.OrchestratorState` is only ever the
  fold of those records, so recovery replays to the identical state.
* Each campaign runs on a worker thread with its **own**
  :class:`~repro.api.service.YouTubeService` over the shared world and its
  own sub-ledger under the tenant key's quota policy; its **own virtual
  clock** walks the 5-day cadence, so concurrent campaigns never contend
  on clock or ledger.
* Hour-bin progress is journaled through :class:`JournalPartialStore` — a
  :class:`~repro.resilience.checkpoint.PartialSnapshotStore`-shaped store
  whose records carry the bin's *billing* (units + virtual day) alongside
  its data.  A bin is either journaled (never re-queried, billed exactly
  once) or absent (re-queried on resume, billed then): that single rule is
  what makes the quota ledger reconcile exactly across a crash.
* Campaign results are persisted with atomic checkpoint writes, so the
  result file is always a complete prefix of the campaign — the
  byte-identity surface the chaos proofs hash.  With
  ``spill_results=True`` each campaign instead spills into a per-campaign
  :class:`~repro.core.spill.SpillStore` directory (atomic manifest, same
  complete-prefix guarantee) and the worker drops raw snapshots as they
  land, so daemon memory stays bounded by one snapshot per campaign; the
  digest surface is then the store's canonical serialization, which is
  byte-identical to what the checkpoint file would have held.
* Daemon-level failure policy: per-campaign
  :class:`~repro.resilience.policy.RetryPolicy` with a shared retry
  budget size, one shared per-endpoint
  :class:`~repro.resilience.breaker.CircuitBreaker`, quota exhaustion
  parks the campaign in ``degraded`` (resumable), and
  :meth:`OrchestratorDaemon.drain` pauses everything at snapshot
  boundaries for a graceful SIGTERM exit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import queue
import threading
import time
from pathlib import Path

from repro.api.errors import QuotaExceededError
from repro.api.service import build_service
from repro.obs.observer import NullObserver
from repro.orchestrator.admission import AdmissionController
from repro.orchestrator.journal import Journal
from repro.orchestrator.model import (
    ADMITTED,
    CANCELLED,
    COMPLETED,
    DEGRADED,
    FAILED,
    PAUSED,
    RUNNING,
    SUBMITTED,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    CampaignState,
    OrchestratorState,
)
from repro.resilience.checkpoint import PartialSnapshot
from repro.resilience.faults import SimulatedCrashError
from repro.resilience.policy import RetryBudget, RetryPolicy
from repro.serve.gateway import ServeError, SimulatorGateway
from repro.util.timeutil import format_rfc3339, parse_rfc3339

__all__ = ["OrchestratorDaemon", "JournalPartialStore"]

#: Queue sentinel ordering below any real campaign (drains workers).
_SENTINEL = (2**31, 2**31, "")


class _PauseSignal(Exception):
    """Raised at a snapshot boundary to park the campaign as paused."""


class _CancelSignal(Exception):
    """Raised at a snapshot boundary to finalize a requested cancel."""


class JournalPartialStore:
    """Query-level checkpointing through the write-ahead journal.

    Duck-typed to :class:`~repro.resilience.checkpoint.PartialSnapshotStore`
    (the collector's whole contract is ``exists/load/begin/record_hour/
    clear`` plus ``path``), but backed by journal records instead of a
    sidecar file — which buys two things the sidecar cannot give:

    * the bin record carries **billing** (the bin's own quota spend and
      the virtual day it was charged on), making the journal the single
      authoritative quota stream — there is no torn boundary between a
      data file and a billing file because they are one record;
    * :meth:`clear` is a no-op — completed snapshots' bins stay in the
      journal as the permanent billing record (compaction folds them into
      the state snapshot).
    """

    def __init__(
        self, daemon: "OrchestratorDaemon", campaign_id: str, service
    ) -> None:
        self._daemon = daemon
        self._cid = campaign_id
        self._service = service
        self.path = f"{daemon.journal.journal_path}#{campaign_id}"

    def _campaign(self) -> CampaignState:
        return self._daemon.state.campaigns[self._cid]

    def exists(self) -> bool:
        return self.load() is not None

    def load(self) -> PartialSnapshot | None:
        with self._daemon._lock:
            campaign = self._campaign()
            index = campaign.partial_index
            if index is None or index < campaign.snapshots_done:
                return None  # no snapshot in flight
            collected_at = parse_rfc3339(campaign.partial_collected_at)
            partial = PartialSnapshot(index=index, collected_at=collected_at)
            for (snap, topic, hour), entry in campaign.bins.items():
                if snap == index:
                    partial.hours[(topic, hour)] = (
                        list(entry["ids"]), int(entry["pool"])
                    )
            return partial

    def begin(self, index: int, collected_at) -> None:
        self._daemon._journal_apply({
            "kind": "partial-begin",
            "campaign": self._cid,
            "snapshot": index,
            "collected_at": format_rfc3339(collected_at),
        })

    def record_hour(
        self, topic: str, hour: int, ids: list[str], pool: int, units: int
    ) -> None:
        # ``units`` is the bin's own spend as the collector measured it, not
        # a ledger delta: the batch engine bills a whole topic before it
        # records the first bin, and a kill -9 mid-topic must not journal
        # the pages of bins the resume will query (and bill) again.
        with self._daemon._lock:
            index = self._campaign().partial_index
        self._daemon._journal_apply({
            "kind": "bin",
            "campaign": self._cid,
            "snapshot": index,
            "topic": topic,
            "hour": hour,
            "ids": list(ids),
            "pool": int(pool),
            "units": int(units),
            "day": self._service.clock.today(),
        })

    def clear(self) -> None:
        """Completed bins are the billing record; the journal keeps them."""


class OrchestratorDaemon:
    """Many journaled campaigns over one gateway's shared warm world."""

    def __init__(
        self,
        gateway: SimulatorGateway,
        workdir: str | Path,
        max_running: int = 2,
        max_queued: int = 8,
        per_tenant_active: int = 2,
        retry_budget: int | None = 32,
        compact_every: int = 512,
        spill_results: bool = False,
    ) -> None:
        self.gateway = gateway
        self.observer = gateway.observer or NullObserver()
        self.workdir = Path(workdir)
        self.campaigns_dir = self.workdir / "campaigns"
        self.campaigns_dir.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(self.workdir)
        self.admission = AdmissionController(
            max_queued=max_queued,
            max_running=max_running,
            per_tenant_active=per_tenant_active,
        )
        self.max_running = max_running
        self.retry_budget = retry_budget
        self.compact_every = compact_every
        self.spill_results = spill_results
        #: Shared per-endpoint breaker: the daemon's backend-health policy.
        self.breaker = gateway.breaker
        #: Test hook: campaign_id -> FaultPlan to install on that campaign's
        #: transport (the in-process stand-in for ``kill -9``).
        self.fault_factory = None
        self._lock = threading.RLock()
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._queued_count = 0
        self._running_count = 0
        self._draining = False
        self._workers: list[threading.Thread] = []
        self._enqueue_seq = 0
        #: Campaigns abandoned by an injected crash (in-memory bookkeeping
        #: only — a real SIGKILL would leave nothing either).
        self.crashed_campaigns: list[str] = []
        self._pause_events: dict[str, threading.Event] = {}
        self._cancel_events: dict[str, threading.Event] = {}
        self._recovered: list[str] = []
        self.state = self._recover()
        self._next_number = self.state.next_campaign_number()

    # -- recovery --------------------------------------------------------------

    def _recover(self) -> OrchestratorState:
        """Fold the journal; re-admit interrupted campaigns; fail revoked ones.

        Anything found ``running`` or ``admitted`` was killed mid-flight:
        it is re-admitted (its journaled bins and atomic checkpoint make
        the re-run re-issue only what is missing) unless its key has been
        revoked in the meantime, in which case it fails permanently —
        campaigns never outlive their credentials.
        """
        state = self.journal.recover()
        replayed = state.last_seq
        for cid in sorted(state.campaigns):
            campaign = state.campaigns[cid]
            if campaign.terminal:
                continue
            key = self.gateway.keys.get(campaign.key_id)
            if key is None or not key.active:
                # Campaigns never outlive their credentials: even a
                # tenant-paused campaign fails permanently once its key is
                # revoked (there is no credential left to resume it with).
                record = self.journal.append({
                    "kind": "transition", "campaign": cid, "to": FAILED,
                    "detail": f"keyRevoked: {campaign.key_id}",
                })
                state.apply(record)
                self.observer.on_orch_transition(
                    cid, campaign.state, FAILED, "keyRevoked"
                )
                continue
            # A drain-pause is the daemon's own doing (SIGTERM), not the
            # tenant's: the restart owes that campaign a resume.  A
            # tenant-requested pause (or quota degradation) stays parked.
            drain_paused = campaign.state == PAUSED and campaign.detail == "drain"
            if campaign.state not in (RUNNING, ADMITTED, SUBMITTED) and (
                not drain_paused
            ):
                continue
            if campaign.state != ADMITTED:
                record = self.journal.append({
                    "kind": "transition", "campaign": cid, "to": ADMITTED,
                    "detail": "recovered",
                })
                old = campaign.state
                state.apply(record)
                self.observer.on_orch_transition(cid, old, ADMITTED, "recovered")
            self._recovered.append(cid)
        if replayed:
            self.observer.on_orch_journal("replay", replayed)
        return state

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool and re-enqueue recovered campaigns."""
        with self._lock:
            if self._workers:
                return
            self._draining = False
            for n in range(self.max_running):
                worker = threading.Thread(
                    target=self._worker_loop, name=f"orch-worker-{n}", daemon=True
                )
                worker.start()
                self._workers.append(worker)
            for cid in self._recovered:
                self._enqueue(self.state.campaigns[cid])
            self._recovered = []

    def drain(self) -> None:
        """Graceful shutdown: admit nothing, pause at boundaries, compact.

        Running campaigns stop at their next snapshot boundary and are
        journaled as ``paused``; queued ones stay ``admitted`` (recovery
        re-enqueues them).  Ends with a compaction so the restart replays
        a snapshot instead of the whole log.
        """
        with self._lock:
            self._draining = True
            workers = list(self._workers)
            self._workers = []
            for event in self._pause_events.values():
                event.set()
        for _ in workers:
            self._queue.put(_SENTINEL)
        for worker in workers:
            worker.join()
        with self._lock:
            self.journal.compact(self.state)
            self.observer.on_orch_journal("compact", self.state.last_seq)
            self.journal.close()

    def wait_idle(self, timeout: float = 60.0, poll_s: float = 0.02) -> bool:
        """Block until no campaign is admitted/running (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                busy = any(
                    c.state in (ADMITTED, RUNNING)
                    for c in self.state.campaigns.values()
                )
            if not busy:
                return True
            time.sleep(poll_s)
        return False

    # -- public API (what /v1/orchestrator exposes) ----------------------------

    def submit(
        self,
        credential: str | None,
        collections: int = 4,
        interval_days: int = 5,
        priority: int = 0,
    ) -> dict:
        """Admit and enqueue one campaign, or raise the rejection envelope.

        Rejections (:class:`~repro.serve.gateway.ServeError` with 429/400/
        503 and a ``retry_after`` when transient) are **not** journaled —
        like the real API, a rejected request leaves no server state.
        """
        key = self.gateway.authenticate(credential)
        if not 1 <= collections <= 17:
            raise ServeError(
                400, "invalidParameter",
                f"collections must be within [1, 17], got {collections}",
            )
        if not 1 <= interval_days <= 30:
            raise ServeError(
                400, "invalidParameter",
                f"intervalDays must be within [1, 30], got {interval_days}",
            )
        if not 0 <= priority <= 9:
            raise ServeError(
                400, "invalidParameter",
                f"priority must be within [0, 9], got {priority}",
            )
        config = self._campaign_config(collections, interval_days)
        with self._lock:
            decision = self.admission.decide(
                key,
                quota_per_snapshot=config.quota_per_snapshot(),
                queued=self._queued_count,
                running=self._running_count,
                tenant_active=self.state.active_for_key(key.key_id),
                draining=self._draining,
            )
            self.observer.on_orch_admission(
                "admit" if decision.admitted else "reject",
                decision.reason, self._queued_count, self._running_count,
            )
            if not decision.admitted:
                raise ServeError(
                    decision.http_status, decision.reason, decision.message,
                    retry_after=decision.retry_after,
                )
            cid = f"c{self._next_number:04d}"
            self._next_number += 1
            self._journal_apply({
                "kind": "submit", "campaign": cid, "key": key.key_id,
                "collections": collections, "interval_days": interval_days,
                "priority": priority,
            })
            campaign = self.state.campaigns[cid]
            self._transition(campaign, ADMITTED)
            self._enqueue(campaign)
            return campaign.to_status_dict()

    def status(self, credential: str | None, campaign_id: str) -> dict:
        campaign = self._owned(credential, campaign_id)
        with self._lock:
            return campaign.to_status_dict()

    def list_campaigns(self, credential: str | None) -> list[dict]:
        key = self.gateway.authenticate(credential)
        with self._lock:
            return [
                c.to_status_dict()
                for _, c in sorted(self.state.campaigns.items())
                if c.key_id == key.key_id
            ]

    def pause(self, credential: str | None, campaign_id: str) -> dict:
        """Request a pause; takes effect at the next snapshot boundary."""
        campaign = self._owned(credential, campaign_id)
        with self._lock:
            if campaign.state != RUNNING:
                raise ServeError(
                    409, "notRunning",
                    f"campaign {campaign_id} is {campaign.state}; only "
                    f"running campaigns can be paused",
                )
            self._pause_events[campaign_id].set()
            payload = campaign.to_status_dict()
        payload["pauseRequested"] = True
        return payload

    def resume(self, credential: str | None, campaign_id: str) -> dict:
        """Re-admit a paused/degraded campaign; idempotent when in flight."""
        campaign = self._owned(credential, campaign_id)
        with self._lock:
            if campaign.state in (ADMITTED, RUNNING):
                return campaign.to_status_dict()  # double-resume: no-op
            if campaign.state not in (PAUSED, DEGRADED):
                raise ServeError(
                    409, "notResumable",
                    f"campaign {campaign_id} is {campaign.state}",
                )
            key = self.gateway.keys.get(campaign.key_id)
            if key is None or not key.active:
                self._transition(
                    campaign, FAILED, f"keyRevoked: {campaign.key_id}"
                )
                raise ServeError(
                    403, "keyRevoked",
                    f"campaign {campaign_id}'s key was revoked; it cannot "
                    f"be resumed",
                )
            self._transition(campaign, ADMITTED, "resumed")
            self._enqueue(campaign)
            return campaign.to_status_dict()

    def cancel(self, credential: str | None, campaign_id: str) -> dict:
        """Cancel a campaign; refunds journaled in-flight (unpersisted) work.

        Idempotent on an already-cancelled campaign.  A running campaign
        finishes its current snapshot first (the cancel lands at the
        boundary); paused/degraded/queued ones cancel immediately, and any
        bins journaled for a snapshot that never completed are refunded —
        the tenant is never billed for data it can never download.
        """
        campaign = self._owned(credential, campaign_id)
        with self._lock:
            if campaign.state == CANCELLED:
                return campaign.to_status_dict()
            if campaign.state in TERMINAL_STATES:
                raise ServeError(
                    409, "alreadyFinished",
                    f"campaign {campaign_id} is {campaign.state}",
                )
            if campaign.state == RUNNING:
                self._cancel_events[campaign_id].set()
                payload = campaign.to_status_dict()
                payload["cancelRequested"] = True
                return payload
            self._refund_inflight(campaign, reason="cancelled")
            self._transition(campaign, CANCELLED, "cancelled by tenant")
            return campaign.to_status_dict()

    def overview(self) -> dict:
        """The daemon-wide status payload (``GET /v1/orchestrator``)."""
        with self._lock:
            by_state: dict[str, int] = {}
            for campaign in self.state.campaigns.values():
                by_state[campaign.state] = by_state.get(campaign.state, 0) + 1
            return {
                "draining": self._draining,
                "queued": self._queued_count,
                "running": self._running_count,
                "maxRunning": self.max_running,
                "maxQueued": self.admission.max_queued,
                "campaigns": by_state,
                "journalSeq": self.state.last_seq,
            }

    def usage_for_key(self, key_id: str) -> dict[str, int]:
        """A tenant's exact journal-derived spend per virtual day."""
        with self._lock:
            return self.state.usage_for_key(key_id)

    def campaign_path(self, campaign_id: str) -> Path:
        """Where a campaign's result lives: a checkpoint file, or in
        ``spill_results`` mode the campaign's spill-store directory."""
        if self.spill_results:
            return self.campaigns_dir / f"{campaign_id}.spill"
        return self.campaigns_dir / f"{campaign_id}.jsonl"

    def result_sha256(self, campaign_id: str) -> str | None:
        """The result's digest (the byte-identity proof surface).

        Checkpoint mode hashes the result file; spill mode hashes the
        store's canonical record stream — the same bytes ``export_jsonl``
        (and a plain checkpoint) would write, so the two modes' digests
        agree for the same campaign.
        """
        path = self.campaign_path(campaign_id)
        if not path.exists():
            return None
        if path.is_dir():
            from repro.core.spill import SpillStore

            return SpillStore.open(path).sha256()
        return hashlib.sha256(path.read_bytes()).hexdigest()

    # -- internals -------------------------------------------------------------

    def _owned(self, credential: str | None, campaign_id: str) -> CampaignState:
        key = self.gateway.authenticate(credential)
        with self._lock:
            campaign = self.state.campaigns.get(campaign_id)
        if campaign is None or campaign.key_id != key.key_id:
            raise ServeError(
                404, "notFound", f"no campaign {campaign_id!r}"
            )
        return campaign

    def _campaign_config(self, collections: int, interval_days: int):
        from repro.core.experiments import paper_campaign_config

        # No metadata sweep and one query per bin page-stream: bins are the
        # unit of both progress and billing, which keeps the journal exact.
        return dataclasses.replace(
            paper_campaign_config(
                topics=self.gateway.specs, collect_metadata=False,
                with_comments=False,
            ),
            n_scheduled=collections,
            interval_days=interval_days,
            skipped_indices=frozenset(),
            comment_snapshot_indices=(),
        )

    def _journal_apply(self, record: dict) -> None:
        """Append to the journal, fold into state, maybe compact — atomically."""
        with self._lock:
            stamped = self.journal.append(record)
            self.state.apply(stamped)
            if self.journal.appends_since_compact >= self.compact_every:
                self.journal.compact(self.state)
                self.observer.on_orch_journal("compact", self.state.last_seq)

    def _transition(
        self, campaign: CampaignState, to: str, detail: str = ""
    ) -> None:
        with self._lock:
            old = campaign.state
            if to not in VALID_TRANSITIONS[old]:
                raise ValueError(
                    f"invalid transition {old} -> {to} for "
                    f"{campaign.campaign_id}"
                )
            self._journal_apply({
                "kind": "transition", "campaign": campaign.campaign_id,
                "to": to, "detail": detail,
            })
        self.observer.on_orch_transition(campaign.campaign_id, old, to, detail)

    def _enqueue(self, campaign: CampaignState) -> None:
        with self._lock:
            self._enqueue_seq += 1
            self._queued_count += 1
            self._pause_events.setdefault(
                campaign.campaign_id, threading.Event()
            ).clear()
            self._cancel_events.setdefault(
                campaign.campaign_id, threading.Event()
            )
            self._queue.put(
                (-campaign.priority, self._enqueue_seq, campaign.campaign_id)
            )

    def _refund_inflight(self, campaign: CampaignState, reason: str) -> None:
        """Journal a refund for bins of a snapshot that will never persist."""
        inflight = campaign.inflight_bins()
        units_by_day: dict[str, int] = {}
        for entry in inflight.values():
            day = entry["day"]
            units_by_day[day] = units_by_day.get(day, 0) + int(entry["units"])
        if not units_by_day:
            return
        self._journal_apply({
            "kind": "refund", "campaign": campaign.campaign_id,
            "units_by_day": units_by_day, "reason": reason,
        })

    # -- the worker ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item == _SENTINEL:
                return
            _, _, cid = item
            with self._lock:
                self._queued_count -= 1
                if self._draining:
                    continue  # stays admitted; recovery re-enqueues it
            try:
                self._execute(cid)
            except SimulatedCrashError:
                # The injected kill -9: journal nothing, touch nothing —
                # whatever was fsynced is exactly what recovery finds.
                with self._lock:
                    self.crashed_campaigns.append(cid)

    def _execute(self, cid: str) -> None:
        with self._lock:
            campaign = self.state.campaigns[cid]
            if campaign.state != ADMITTED:
                return  # cancelled (or failed) while queued
            if self._cancel_events[cid].is_set():
                self._refund_inflight(campaign, reason="cancelled")
                self._transition(campaign, CANCELLED, "cancelled while queued")
                return
            key = self.gateway.keys.get(campaign.key_id)
            if key is None or not key.active:
                self._transition(
                    campaign, FAILED, f"keyRevoked: {campaign.key_id}"
                )
                return
            self._transition(campaign, RUNNING)
            self._running_count += 1
        try:
            self._run_campaign(campaign, key)
        except _PauseSignal as sig:
            self._transition(campaign, PAUSED, str(sig) or "paused")
        except _CancelSignal:
            # The boundary is clean: the snapshot just persisted, nothing
            # is in flight, so there is nothing to refund.
            self._transition(campaign, CANCELLED, "cancelled by tenant")
        except QuotaExceededError as exc:
            # A scheduling event, not a failure: completed bins are
            # journaled, and a resume on a later virtual day has headroom.
            self._transition(campaign, DEGRADED, f"quota: {exc}")
        except SimulatedCrashError:
            raise  # the worker loop's crash path handles bookkeeping
        except Exception as exc:  # campaign isolation: one bad campaign
            self._transition(  # must not take the daemon down
                campaign, FAILED, f"{type(exc).__name__}: {exc}"
            )
        else:
            self._transition(campaign, COMPLETED)
        finally:
            with self._lock:
                self._running_count -= 1

    def _run_campaign(self, campaign: CampaignState, key) -> None:
        from repro.api.client import YouTubeClient
        from repro.core.campaign import run_campaign

        cid = campaign.campaign_id
        config = self._campaign_config(
            campaign.collections, campaign.interval_days
        )
        # An isolated service over the shared world: own clock (the 5-day
        # cadence), own sub-ledger under the tenant's policy.
        service = build_service(
            self.gateway.world, seed=self.gateway.seed,
            specs=self.gateway.specs, quota_policy=key.policy,
        )
        with self._lock:
            seeded = campaign.net_usage_by_day()
        if seeded:
            try:
                # Replayed spend counts against the daily limits of the
                # resumed run, exactly as if the process had never died.
                service.quota.absorb(seeded)
            except QuotaExceededError:
                pass  # recorded anyway; the next charge will degrade it
        if self.fault_factory is not None:
            plan = self.fault_factory(cid)
            if plan is not None:
                service.transport.faults = plan
        policy = RetryPolicy(
            seed=self.gateway.seed + campaign.priority + len(cid),
            budget=(
                RetryBudget(self.retry_budget)
                if self.retry_budget is not None
                else None
            ),
        )
        client = YouTubeClient(
            service, retry_policy=policy, circuit_breaker=self.breaker
        )
        store = JournalPartialStore(self, cid, service)
        pause_event = self._pause_events[cid]
        cancel_event = self._cancel_events[cid]

        def boundary(done: int, total: int) -> None:
            # Called after snapshot ``done - 1`` was atomically persisted:
            # journal the progress marker, then honor control signals.
            self._journal_apply({
                "kind": "snapshot", "campaign": cid, "snapshot": done - 1,
            })
            if done >= total:
                return  # finished; the completed transition says the rest
            if cancel_event.is_set():
                raise _CancelSignal()
            if pause_event.is_set() or self._draining:
                raise _PauseSignal("drain" if self._draining else "paused")

        if self.spill_results:
            # The spill directory is the durable result; the journal store
            # still carries bin-level progress and billing, and dropping
            # raw snapshots keeps memory at one snapshot per campaign.
            run_campaign(
                config, client,
                progress=boundary,
                spill=self.campaign_path(cid),
                retain_snapshots=False,
                partial=store,
            )
        else:
            run_campaign(
                config, client,
                progress=boundary,
                checkpoint_path=self.campaign_path(cid),
                partial=store,
            )
