"""Observer hooks: the seam between the pipeline and the observability layer.

Every instrumented component (:class:`~repro.api.service.YouTubeService`,
:class:`~repro.api.client.YouTubeClient`, the quota ledger, the snapshot
collector, the campaign runner) calls these hooks at its interesting
moments.  The base :class:`Observer` implements every hook as a no-op, so
the default wiring costs nothing and — crucially — cannot perturb the
simulator's determinism: hooks receive values that were already computed,
they never draw RNGs or advance clocks.  :data:`NullObserver` is the
explicit name for that default.

:class:`CampaignObserver` is the batteries-included implementation: it
feeds a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracer.Tracer` simultaneously, attributes quota spend
to the topic currently being collected, and times snapshots on both the
virtual clock (request dates) and the wall clock (process time).

Attachment is one line at the top of the stack::

    obs = CampaignObserver()
    service = build_service(world, seed=7, observer=obs)
    client = YouTubeClient(service)            # inherits service.observer
    run_campaign(config, client)               # inherits client.observer
    obs.export_trace("trace.jsonl")
    print(obs.report())
"""

from __future__ import annotations

import time
from datetime import datetime
from pathlib import Path
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["Observer", "NullObserver", "CampaignObserver"]

#: Page-depth buckets: the API serves at most 10 pages (500/50) per query.
_PAGE_DEPTH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)


class Observer:
    """No-op base: override the hooks you care about.

    Hook arguments are plain values (endpoint names, unit counts, virtual
    datetimes); implementations must not mutate them and must not raise —
    an observer is bookkeeping, never control flow.
    """

    # -- API layer -------------------------------------------------------------

    def on_api_call(
        self, endpoint: str, at: datetime, units: int, latency_ms: float
    ) -> None:
        """One endpoint call completed (faults and quota both passed)."""

    def on_api_retry(self, endpoint: str, attempt: int, error: Exception) -> None:
        """A transient failure is about to be retried (``attempt`` >= 1)."""

    def on_api_error(self, endpoint: str, error: Exception) -> None:
        """An API error is propagating to the caller (retries exhausted)."""

    def on_search_query(self, pages: int, results: int) -> None:
        """One logical search query finished after ``pages`` paged calls."""

    def on_collect_sweep(
        self, topic: str, bins: int, calls: int, units: int, videos: int
    ) -> None:
        """A topic's whole hour-bin sweep ran as one batched plan.

        Emitted once per topic per snapshot when the collector's batch
        engine engages (``calls`` pages billed in a single ledger
        transaction); its absence from a topic span means the per-call
        fallback ran instead.
        """

    def on_pagination_restart(self, endpoint: str, restart: int, error: Exception) -> None:
        """A paginated loop is restarting from page one (``invalidPageToken``)."""

    # -- resilience layer ------------------------------------------------------

    def on_circuit_transition(self, endpoint: str, old: str, new: str) -> None:
        """An endpoint's circuit breaker changed state (closed/open/half_open)."""

    def on_degraded(self, scope: str, detail: str) -> None:
        """A component gave up on part of its work and degraded instead of dying."""

    # -- quota layer -----------------------------------------------------------

    def on_quota_spend(
        self, endpoint: str, day: str, units: int, used_on_day: int
    ) -> None:
        """The ledger accepted a charge of ``units`` on virtual ``day``."""

    def on_quota_refund(self, endpoint: str, day: str, units: int) -> None:
        """The ledger refunded a charge whose call failed after billing."""

    # -- collection layer ------------------------------------------------------

    def on_topic_start(self, topic: str, at: datetime) -> None:
        """The collector is starting one topic's hourly sweep."""

    def on_topic_end(self, topic: str, at: datetime, units: int, videos: int) -> None:
        """One topic finished; ``units`` is its quota delta."""

    def on_snapshot_start(self, index: int, at: datetime) -> None:
        """A snapshot (all topics) is starting at virtual time ``at``."""

    def on_snapshot_end(self, index: int, at: datetime, units: int, calls: int) -> None:
        """A snapshot finished; ``units``/``calls`` are its deltas."""

    def on_checkpoint(self, action: str, path: str, snapshots: int) -> None:
        """A campaign resumed from durable state: ``action`` is
        ``resume-spill`` (its spill store) or ``resume-partial`` (a
        mid-snapshot sidecar); ``snapshots`` were already collected."""

    # -- analysis layer --------------------------------------------------------

    def on_index_build(
        self, topics: int, videos: int, collections: int, wall_s: float
    ) -> None:
        """A campaign's columnar index was (re)built (cache miss)."""

    def on_index_append(
        self, collections: int, new_videos: int, wall_s: float
    ) -> None:
        """The columnar index grew by one collection (O(delta) append)."""

    # -- persistence layer -----------------------------------------------------

    def on_spill_write(
        self, directory: str, index: int, topics: int, records: int,
        data_bytes: int, wall_s: float,
    ) -> None:
        """One snapshot was spilled to the on-disk columnar store."""

    # -- world layer -----------------------------------------------------------

    def on_world_build(
        self,
        videos: int,
        channels: int,
        threads: int,
        tokens: int,
        wall_s: float,
    ) -> None:
        """A synthetic world was generated."""

    # -- serve layer -----------------------------------------------------------

    def on_serve_request(
        self, route: str, key_id: str, status: int, wall_ms: float, outcome: str
    ) -> None:
        """The service answered one tenant request (any status).

        ``outcome`` is the coalescer's verdict for backend routes (``hit``
        / ``miss`` / ``coalesced``) or ``-`` for routes that never reach
        the backend (admin, quota report, errors).
        """

    def on_serve_key(self, action: str, key_id: str) -> None:
        """A key lifecycle event (``action`` in mint/rotate/revoke)."""

    def on_serve_campaign(self, job_id: str, key_id: str, status: str) -> None:
        """A submitted campaign job changed state (queued/running/done/...)."""

    # -- orchestrator layer ----------------------------------------------------

    def on_orch_transition(
        self, campaign: str, old: str, new: str, detail: str = ""
    ) -> None:
        """An orchestrated campaign moved through its lifecycle state machine."""

    def on_orch_admission(
        self, decision: str, reason: str, queued: int, running: int
    ) -> None:
        """The admission controller accepted or rejected a submission."""

    def on_orch_journal(self, action: str, records: int) -> None:
        """The write-ahead journal appended, replayed, or compacted records."""


#: The default observer: explicitly named so call sites read as intended.
NullObserver = Observer


class CampaignObserver(Observer):
    """Metrics + trace in one attachable object.

    Parameters
    ----------
    metrics, tracer:
        Bring your own registry/tracer to share them across components;
        fresh ones are created by default.
    wall_clock:
        Monotonic-seconds callable used for snapshot wall timings
        (injectable so tests are deterministic).  Defaults to
        :func:`time.perf_counter`; this is the only wall-time read in the
        observability layer and it never feeds back into the simulation.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        wall_clock: Callable[[], float] | None = None,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or Tracer()
        self._wall = wall_clock or time.perf_counter
        self._current_topic: str | None = None
        self._topic_units_at_start = 0.0
        self._snapshot_wall_start: float | None = None
        self._snapshot_virtual_start: datetime | None = None
        self.metrics.declare_histogram("search.page_depth", _PAGE_DEPTH_BUCKETS)

    # -- API layer -------------------------------------------------------------

    def on_api_call(
        self, endpoint: str, at: datetime, units: int, latency_ms: float
    ) -> None:
        self.metrics.inc("api.calls", endpoint=endpoint)
        self.metrics.observe("api.latency_ms", latency_ms, endpoint=endpoint)
        self.tracer.emit(
            "api.call", at=at, endpoint=endpoint, units=units,
            latency_ms=round(latency_ms, 3),
        )

    def on_api_retry(self, endpoint: str, attempt: int, error: Exception) -> None:
        self.metrics.inc("api.retries", endpoint=endpoint)
        self.tracer.emit(
            "api.retry", endpoint=endpoint, attempt=attempt,
            error=type(error).__name__,
        )

    def on_api_error(self, endpoint: str, error: Exception) -> None:
        self.metrics.inc("api.errors", endpoint=endpoint, error=type(error).__name__)
        self.tracer.emit(
            "api.error", endpoint=endpoint, error=type(error).__name__,
            message=str(error)[:200],
        )

    def on_search_query(self, pages: int, results: int) -> None:
        self.metrics.inc("search.queries")
        self.metrics.observe("search.page_depth", float(pages))
        self.tracer.emit("search.query", pages=pages, results=results)

    def on_collect_sweep(
        self, topic: str, bins: int, calls: int, units: int, videos: int
    ) -> None:
        self.metrics.inc("collect.sweeps")
        self.metrics.inc("collect.sweep_units", units)
        self.tracer.emit(
            "collect.sweep", topic=topic, bins=bins, calls=calls,
            units=units, videos=videos,
        )

    def on_pagination_restart(self, endpoint: str, restart: int, error: Exception) -> None:
        self.metrics.inc("pagination.restarts", endpoint=endpoint)
        self.tracer.emit(
            "pagination.restart", endpoint=endpoint, restart=restart,
            error=type(error).__name__,
        )

    # -- resilience layer ------------------------------------------------------

    def on_circuit_transition(self, endpoint: str, old: str, new: str) -> None:
        self.metrics.inc("circuit.transitions", endpoint=endpoint, to=new)
        self.tracer.emit("circuit.transition", endpoint=endpoint, old=old, new=new)

    def on_degraded(self, scope: str, detail: str) -> None:
        self.metrics.inc("degraded.events", scope=scope)
        self.tracer.emit("degraded", scope=scope, detail=detail[:200])

    # -- quota layer -----------------------------------------------------------

    def on_quota_spend(
        self, endpoint: str, day: str, units: int, used_on_day: int
    ) -> None:
        self.metrics.inc("quota.units", units, endpoint=endpoint)
        self.metrics.set_gauge("quota.used_on_day", used_on_day, day=day)
        fields = {"endpoint": endpoint, "day": day, "units": units,
                  "used_on_day": used_on_day}
        if self._current_topic is not None:
            self.metrics.inc("quota.units_by_topic", units, topic=self._current_topic)
            fields["topic"] = self._current_topic
        self.tracer.emit("quota.spend", **fields)

    def on_quota_refund(self, endpoint: str, day: str, units: int) -> None:
        self.metrics.inc("quota.refunds", units, endpoint=endpoint)
        self.tracer.emit("quota.refund", endpoint=endpoint, day=day, units=units)

    # -- collection layer ------------------------------------------------------

    def on_topic_start(self, topic: str, at: datetime) -> None:
        self._current_topic = topic
        self._topic_units_at_start = self.total_quota_units
        self.tracer.emit("topic.start", at=at, topic=topic)

    def on_topic_end(self, topic: str, at: datetime, units: int, videos: int) -> None:
        self.metrics.inc("topic.videos_returned", videos, topic=topic)
        self.tracer.emit("topic.end", at=at, topic=topic, units=units, videos=videos)
        self._current_topic = None

    def on_snapshot_start(self, index: int, at: datetime) -> None:
        self._snapshot_wall_start = self._wall()
        self._snapshot_virtual_start = at
        self.tracer.emit("snapshot.start", at=at, index=index)

    def on_snapshot_end(self, index: int, at: datetime, units: int, calls: int) -> None:
        wall_s = (
            self._wall() - self._snapshot_wall_start
            if self._snapshot_wall_start is not None
            else 0.0
        )
        virtual_s = (
            (at - self._snapshot_virtual_start).total_seconds()
            if self._snapshot_virtual_start is not None
            else 0.0
        )
        self.metrics.inc("snapshots.completed")
        self.metrics.observe("snapshot.wall_s", wall_s)
        self.tracer.emit(
            "snapshot.end", at=at, index=index, units=units, calls=calls,
            wall_s=round(wall_s, 6), virtual_s=virtual_s,
        )
        self._snapshot_wall_start = None
        self._snapshot_virtual_start = None

    def on_checkpoint(self, action: str, path: str, snapshots: int) -> None:
        self.metrics.inc("campaign.checkpoints", action=action)
        self.tracer.emit(
            "campaign.checkpoint", action=action, path=path, snapshots=snapshots
        )

    # -- analysis layer --------------------------------------------------------

    def on_index_build(
        self, topics: int, videos: int, collections: int, wall_s: float
    ) -> None:
        self.metrics.inc("index.builds")
        self.metrics.observe("index.build_wall_s", wall_s)
        self.tracer.emit(
            "index.build", topics=topics, videos=videos,
            collections=collections, wall_s=round(wall_s, 6),
        )

    def on_index_append(
        self, collections: int, new_videos: int, wall_s: float
    ) -> None:
        self.metrics.inc("index.appends")
        self.metrics.inc("index.appended_videos", new_videos)
        self.metrics.observe("index.append_wall_s", wall_s)
        self.tracer.emit(
            "index.append", collections=collections, new_videos=new_videos,
            wall_s=round(wall_s, 6),
        )

    # -- persistence layer -----------------------------------------------------

    def on_spill_write(
        self, directory: str, index: int, topics: int, records: int,
        data_bytes: int, wall_s: float,
    ) -> None:
        self.metrics.inc("spill.writes")
        self.metrics.inc("spill.bytes", data_bytes)
        self.metrics.observe("spill.write_wall_s", wall_s)
        self.tracer.emit(
            "spill.write", directory=directory, index=index, topics=topics,
            records=records, data_bytes=data_bytes, wall_s=round(wall_s, 6),
        )

    # -- world layer -----------------------------------------------------------

    def on_world_build(
        self,
        videos: int,
        channels: int,
        threads: int,
        tokens: int,
        wall_s: float,
    ) -> None:
        self.metrics.inc("world.builds")
        self.metrics.observe("world.build_wall_s", wall_s)
        self.metrics.set_gauge("world.videos", videos)
        self.metrics.set_gauge("world.channels", channels)
        self.metrics.set_gauge("world.threads", threads)
        self.metrics.set_gauge("world.tokens", tokens)
        self.tracer.emit(
            "world.build", videos=videos, channels=channels, threads=threads,
            tokens=tokens, wall_s=round(wall_s, 6),
        )

    # -- serve layer -----------------------------------------------------------

    def on_serve_request(
        self, route: str, key_id: str, status: int, wall_ms: float, outcome: str
    ) -> None:
        self.metrics.inc("serve.requests", route=route, status=str(status))
        self.metrics.inc("serve.requests_by_key", key=key_id)
        self.metrics.observe("serve.latency_ms", wall_ms, route=route)
        if outcome == "coalesced":
            self.metrics.inc("serve.coalesced", route=route)
        elif outcome == "hit":
            self.metrics.inc("serve.cache_hits", route=route)
        self.tracer.emit(
            "serve.request", route=route, key=key_id, status=status,
            wall_ms=round(wall_ms, 3), outcome=outcome,
        )

    def on_serve_key(self, action: str, key_id: str) -> None:
        self.metrics.inc("serve.keys", action=action)
        self.tracer.emit("serve.key", action=action, key=key_id)

    def on_serve_campaign(self, job_id: str, key_id: str, status: str) -> None:
        self.metrics.inc("serve.campaign_jobs", status=status)
        self.tracer.emit("serve.campaign", job=job_id, key=key_id, status=status)

    # -- orchestrator layer ----------------------------------------------------

    def on_orch_transition(
        self, campaign: str, old: str, new: str, detail: str = ""
    ) -> None:
        self.metrics.inc("orch.transitions", to=new)
        self.tracer.emit(
            "orch.transition", campaign=campaign, old=old, new=new,
            detail=detail[:200],
        )

    def on_orch_admission(
        self, decision: str, reason: str, queued: int, running: int
    ) -> None:
        self.metrics.inc("orch.admissions", decision=decision, reason=reason)
        self.metrics.set_gauge("orch.queued", queued)
        self.metrics.set_gauge("orch.running", running)
        self.tracer.emit(
            "orch.admission", decision=decision, reason=reason,
            queued=queued, running=running,
        )

    def on_orch_journal(self, action: str, records: int) -> None:
        self.metrics.inc("orch.journal", action=action)
        self.tracer.emit("orch.journal", action=action, records=records)

    # -- reading back ----------------------------------------------------------

    @property
    def total_quota_units(self) -> float:
        """Units recorded across all ``quota.units`` series (all endpoints)."""
        return sum(self.metrics.counters_with_prefix("quota.units").values())

    @property
    def refunded_quota_units(self) -> float:
        """Units refunded after post-billing failures (live adapter only)."""
        return sum(self.metrics.counters_with_prefix("quota.refunds").values())

    @property
    def net_quota_units(self) -> float:
        """Spend minus refunds — what the ledger's ``total_used`` shows."""
        return self.total_quota_units - self.refunded_quota_units

    def export_trace(self, path: str | Path) -> int:
        """Write the trace as JSONL; returns the number of events."""
        return self.tracer.export(path)

    def report(self) -> str:
        """The per-campaign observability summary (see :mod:`repro.obs.report`)."""
        from repro.obs.report import render_observability

        return render_observability(self.tracer.iter_dicts())
