"""The protocol-agnostic service core: auth, billing, dispatch, jobs.

:class:`SimulatorGateway` owns everything the HTTP front end does not:

* **one shared warm world** behind a single :class:`YouTubeService`
  (built once at startup; its internal ledger is effectively unlimited —
  the *tenant* ledgers are the authoritative quota accounting);
* the **key table** and one :class:`~repro.api.quota.QuotaLedger` per key
  id, charged *before* a request reaches the backend (a quota-rejected
  call never executes, matching the real API) and refunded if the backend
  call fails after the charge (the call never completed, so the tenant is
  not billed — the same reasoning as the live adapter's refund path);
* the **response cache / coalescer** (:class:`ResponseCache`): identical
  ``(endpoint, params, asOf)`` requests share one backend computation and
  its serialized bytes, which is safe because responses are pure
  functions of exactly that fingerprint;
* an optional **circuit breaker** guarding the backend: while the
  circuit is open the gateway degrades to 503 answers without touching
  the backend, and backend failures/successes feed the breaker;
* **campaign jobs**: a tenant submits a campaign, the gateway runs it on
  a worker thread against its own service (:meth:`campaign_service`: own
  clock, transport and isolated sub-ledger) over the warm service's store
  and search engine, and at completion *absorbs* the sub-ledger into
  the tenant's ledger through the lock-protected
  :meth:`~repro.api.quota.QuotaLedger.absorb` path — over-limit runs are
  recorded truthfully and reported as ``quota_exceeded``.  Sharing the
  engine means each (topic, date) churn state is computed once for every
  job, orchestrated campaign and served request: its caches are pure
  functions of (world, seed, specs, key), so no answer changes.

Byte-identity contract: :meth:`SimulatorGateway.search_list` returns the
UTF-8 bytes of ``json.dumps(response, sort_keys=True)`` for the exact
response the in-process reference (``build_service`` + ``search.list``)
produces at the same ``(params, asOf)``;
:meth:`SimulatorGateway.reference_search_bytes` computes that oracle on a
*separate* service instance so the smoke gate compares two independent
code paths.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime

from repro.api.errors import ApiError, QuotaExceededError
from repro.api.quota import QuotaLedger, QuotaPolicy
from repro.api.service import YouTubeService, build_service
from repro.obs.observer import NullObserver, Observer
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.serve.coalesce import ResponseCache
from repro.serve.keys import ApiKey, KeyTable
from repro.util.timeutil import format_rfc3339, parse_rfc3339
from repro.world.entities import World
from repro.world.topics import TopicSpec

__all__ = ["ServeError", "SimulatorGateway", "CampaignJob", "build_gateway"]

#: Parameters `search.list` accepts over the wire, plus the `asOf` extension.
_SEARCH_PARAMS = frozenset({
    "part", "q", "channelId", "maxResults", "order", "pageToken",
    "publishedAfter", "publishedBefore", "regionCode", "relatedToVideoId",
    "safeSearch", "type", "fields", "asOf",
})
_VIDEOS_PARAMS = frozenset({"part", "id", "fields", "asOf"})

#: The serving service's internal ledger never gates tenants; per-key
#: ledgers do. A finite-but-unreachable limit keeps QuotaPolicy honest.
_UNMETERED = QuotaPolicy(daily_limit=10**12)


class ServeError(Exception):
    """A service-layer failure with an API-shaped JSON envelope.

    ``retry_after`` (seconds) marks the failure as transient: the HTTP
    front end turns it into a ``Retry-After`` header on 429/503 responses,
    the backpressure hint a polite client honors before resubmitting.
    """

    def __init__(
        self,
        http_status: int,
        reason: str,
        message: str,
        retry_after: int | None = None,
    ) -> None:
        super().__init__(message)
        self.http_status = http_status
        self.reason = reason
        self.message = message
        self.retry_after = retry_after

    def to_json(self) -> dict:
        return {
            "error": {
                "code": self.http_status,
                "message": self.message,
                "errors": [
                    {
                        "message": self.message,
                        "domain": "repro.serve",
                        "reason": self.reason,
                    }
                ],
            }
        }


@dataclass
class CampaignJob:
    """One submitted campaign: identity, parameters, state, result."""

    job_id: str
    key_id: str
    collections: int
    interval_days: int
    status: str = "queued"  # queued -> running -> done | failed | quota_exceeded
    #: Units absorbed into the tenant's ledger when the job finished.
    quota_units: int = 0
    result: dict | None = None
    error: str | None = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def to_dict(self) -> dict:
        payload = {
            "jobId": self.job_id,
            "keyId": self.key_id,
            "collections": self.collections,
            "intervalDays": self.interval_days,
            "status": self.status,
            "quotaUnits": self.quota_units,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)


def _dumps(payload: dict) -> bytes:
    """The service's canonical serialization (the byte-identity surface)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class SimulatorGateway:
    """Auth, per-key billing, coalesced backend dispatch, campaign jobs."""

    def __init__(
        self,
        world: World,
        seed: int,
        specs: tuple[TopicSpec, ...],
        keys: KeyTable | None = None,
        observer: Observer | None = None,
        breaker: CircuitBreaker | None = None,
        cache_entries: int = 1024,
        job_workers: int = 2,
    ) -> None:
        self.world = world
        self.seed = seed
        self.specs = specs
        self.keys = keys if keys is not None else KeyTable()
        self.observer = observer or NullObserver()
        self.breaker = breaker
        self.cache = ResponseCache(max_entries=cache_entries)
        # The one shared warm service every tenant request is answered by.
        self.service: YouTubeService = build_service(
            world, seed=seed, specs=specs, quota_policy=_UNMETERED,
        )
        # Tenant ledgers by key id (stable across credential rotation).
        self._ledgers: dict[str, QuotaLedger] = {}
        self._ledger_lock = threading.Lock()
        # The backend is single-flight: compute sets the shared clock and
        # reads the engine, so it is serialized. Coalescing and the LRU
        # keep the critical section off the hot path for repeated traffic.
        self._backend_lock = threading.Lock()
        # The byte-identity oracle: an independent service over the same
        # (world, seed, specs), exercised only by reference_search_bytes.
        self._reference: YouTubeService | None = None
        self._reference_lock = threading.Lock()
        self._jobs: dict[str, CampaignJob] = {}
        self._job_seq = itertools.count(1)
        self._job_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="serve-campaign"
        )

    # -- key lifecycle ---------------------------------------------------------

    def mint_key(
        self, label: str = "", daily_limit: int = 10_000, researcher: bool = False
    ) -> ApiKey:
        key = self.keys.mint(
            label=label, daily_limit=daily_limit, researcher=researcher
        )
        self.observer.emit("serve.key", "mint", key.key_id)
        return key

    def rotate_key(self, key_id: str) -> ApiKey:
        key = self.keys.rotate(key_id)
        self.observer.emit("serve.key", "rotate", key.key_id)
        return key

    def revoke_key(self, key_id: str) -> ApiKey:
        key = self.keys.revoke(key_id)
        self.observer.emit("serve.key", "revoke", key.key_id)
        return key

    def ledger_for(self, key_id: str) -> QuotaLedger:
        """The tenant's quota ledger (created on first use)."""
        with self._ledger_lock:
            ledger = self._ledgers.get(key_id)
            if ledger is None:
                key = self.keys.get(key_id)
                if key is None:
                    raise KeyError(f"unknown key id {key_id!r}")
                ledger = QuotaLedger(policy=key.policy)
                self._ledgers[key_id] = ledger
            return ledger

    def authenticate(self, credential: str | None) -> ApiKey:
        """Resolve a credential to its active key, or raise :class:`ServeError`."""
        if not credential:
            raise ServeError(
                401, "unauthorized",
                "missing API key: pass ?key=... or the X-Api-Key header",
            )
        key = self.keys.authenticate(credential)
        if key is None:
            raise ServeError(403, "keyInvalid", "API key not valid or revoked")
        return key

    # -- tenant endpoints ------------------------------------------------------

    def search_list(
        self, credential: str | None, params: dict[str, str]
    ) -> tuple[bytes, str]:
        """One served ``search.list`` page for a tenant.

        Returns ``(body_bytes, outcome)``; raises :class:`ServeError` or
        :class:`~repro.api.errors.ApiError` (the front end maps both to
        their HTTP envelopes).
        """
        return self._billed_endpoint(
            credential, "search.list", params, _SEARCH_PARAMS,
            self._compute_search,
        )

    def videos_list(
        self, credential: str | None, params: dict[str, str]
    ) -> tuple[bytes, str]:
        """One served ``videos.list`` call for a tenant (1 unit)."""
        return self._billed_endpoint(
            credential, "videos.list", params, _VIDEOS_PARAMS,
            self._compute_videos,
        )

    def quota_report(self, credential: str | None) -> dict:
        """The tenant's quota standing: limits, per-day usage, totals."""
        key = self.authenticate(credential)
        ledger = self.ledger_for(key.key_id)
        return {
            "keyId": key.key_id,
            "label": key.label,
            "dailyLimit": key.policy.effective_limit,
            "researcher": key.researcher,
            "usageByDay": ledger.usage_by_day(),
            "totalUsed": ledger.total_used,
        }

    # -- campaign jobs ---------------------------------------------------------

    def submit_campaign(
        self,
        credential: str | None,
        collections: int = 4,
        interval_days: int = 5,
    ) -> CampaignJob:
        """Queue an audit campaign for a tenant; returns the queued job.

        The campaign runs on a worker thread against its own service over
        the warm service's store and engine (:meth:`campaign_service`),
        billing an isolated sub-ledger under the tenant's own policy; the
        sub-ledger is absorbed into the tenant's ledger when the job
        finishes.
        """
        key = self.authenticate(credential)
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
        with self._job_lock:
            job = CampaignJob(
                job_id=f"j{next(self._job_seq):04d}",
                key_id=key.key_id,
                collections=collections,
                interval_days=interval_days,
            )
            self._jobs[job.job_id] = job
        self.observer.emit("serve.campaign", job.job_id, job.key_id, "queued")
        self._executor.submit(self._run_campaign_job, job, key)
        return job

    def job_for(self, credential: str | None, job_id: str) -> CampaignJob:
        """A tenant's job by id; tenants cannot see each other's jobs."""
        key = self.authenticate(credential)
        with self._job_lock:
            job = self._jobs.get(job_id)
        if job is None or job.key_id != key.key_id:
            raise ServeError(404, "notFound", f"no campaign job {job_id!r}")
        return job

    def campaign_service(self, policy: QuotaPolicy) -> YouTubeService:
        """A campaign's own service over the warm store and search engine.

        The clock, the quota ledger (under ``policy``), the transport and
        the endpoints' row caches are the campaign's own; the store and the
        engine, whose caches are pure functions of the shared world, are
        the warm service's.  So a churn cold start is paid once per
        (topic, date), not once per campaign, and each video's and
        channel's static resource text is rendered once for all of them.
        """
        warm = self.service
        return YouTubeService(
            warm.store, warm.engine, quota=QuotaLedger(policy=policy)
        )

    def _run_campaign_job(self, job: CampaignJob, key: ApiKey) -> None:
        import dataclasses

        from repro.api.client import YouTubeClient
        from repro.core.campaign import run_campaign
        from repro.core.experiments import paper_campaign_config

        job.status = "running"
        self.observer.emit("serve.campaign", job.job_id, job.key_id, "running")
        try:
            service = self.campaign_service(key.policy)
            config = dataclasses.replace(
                paper_campaign_config(topics=self.specs, with_comments=False),
                n_scheduled=job.collections,
                interval_days=job.interval_days,
                skipped_indices=frozenset(),
                comment_snapshot_indices=(),
            )
            campaign = run_campaign(config, YouTubeClient(service))
            usage = service.quota.usage_by_day()
            job.result = {
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
            try:
                job.quota_units = self.ledger_for(key.key_id).absorb(usage)
                job.status = "done"
            except QuotaExceededError as exc:
                # The spend is recorded (absorb bills before the limit
                # check); the job degrades instead of hiding consumption.
                job.quota_units = sum(usage.values())
                job.status = "quota_exceeded"
                job.error = str(exc)
        except QuotaExceededError as exc:
            job.status = "quota_exceeded"
            job.error = str(exc)
        except Exception as exc:  # job isolation: a failed job must not
            job.status = "failed"  # take the service down with it
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.observer.emit(
                "serve.campaign", job.job_id, job.key_id, job.status
            )
            job._done.set()

    # -- backend dispatch ------------------------------------------------------

    def _billed_endpoint(
        self,
        credential: str | None,
        endpoint: str,
        params: dict[str, str],
        allowed: frozenset[str],
        compute,
    ) -> tuple[bytes, str]:
        t0 = time.perf_counter()
        key = self.authenticate(credential)
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise ServeError(
                400, "invalidParameter",
                f"unknown parameter(s) for {endpoint}: {', '.join(unknown)}",
            )
        as_of = self._effective_as_of(params.get("asOf"))
        ledger = self.ledger_for(key.key_id)
        # Bill before executing (quota rejection never reaches the
        # backend); refund if the backend call fails (it never completed).
        ledger.charge(endpoint, as_of.date().isoformat())
        fingerprint = self._fingerprint(endpoint, params, as_of)
        try:
            body, outcome = self.cache.get(
                fingerprint, lambda: self._guarded_compute(compute, params, as_of)
            )
        except BaseException:
            ledger.refund(endpoint, as_of.date().isoformat())
            raise
        wall_ms = (time.perf_counter() - t0) * 1000.0
        self.observer.emit(
            "serve.request", endpoint, key.key_id, 200, wall_ms, outcome
        )
        return body, outcome

    def _guarded_compute(self, compute, params: dict[str, str], as_of) -> bytes:
        if self.breaker is not None:
            try:
                self.breaker.before_call("serve.backend")
            except CircuitOpenError as exc:
                # Advertise the breaker's own recovery horizon: its cooldown
                # when time-based, otherwise a small fixed probe window.
                cooldown = getattr(self.breaker, "cooldown_s", None)
                raise ServeError(
                    503, "backendDegraded",
                    f"service degraded: {exc}",
                    retry_after=int(cooldown) if cooldown else 15,
                ) from exc
        try:
            with self._backend_lock:
                self.service.clock.set(as_of)
                body = compute(params, as_of)
        except ApiError as exc:
            if self.breaker is not None and exc.retriable:
                self.breaker.record_failure("serve.backend")
            raise
        if self.breaker is not None:
            self.breaker.record_success("serve.backend")
        return body

    def _compute_search(self, params: dict[str, str], as_of) -> bytes:
        return _dumps(self.service.search.list(**_typed_search_params(params)))

    def _compute_videos(self, params: dict[str, str], as_of) -> bytes:
        kwargs = {k: v for k, v in params.items() if k in ("part", "id", "fields")}
        kwargs.setdefault("part", "snippet")
        return _dumps(self.service.videos.list(**kwargs))

    def _effective_as_of(self, raw: str | None) -> datetime:
        if raw is None:
            return self.service.clock.now()
        try:
            return parse_rfc3339(raw)
        except ValueError as exc:
            raise ServeError(
                400, "invalidParameter", f"asOf is not RFC 3339: {exc}"
            ) from exc

    def _fingerprint(
        self, endpoint: str, params: dict[str, str], as_of: datetime
    ) -> str:
        canonical = sorted(
            (k, v) for k, v in params.items() if k != "asOf"
        )
        return json.dumps([endpoint, format_rfc3339(as_of), canonical])

    # -- byte-identity oracle --------------------------------------------------

    def reference_search_bytes(
        self, params: dict[str, str], as_of: datetime | None = None
    ) -> bytes:
        """What a plain in-process service answers for ``(params, asOf)``.

        Runs on a dedicated service instance with its own engine (same
        world/seed/specs as the serving one, fresh caches), never the warm
        engine that served requests and campaigns share, so the smoke gate
        compares the served bytes against an independent computation of
        the same pure function.
        """
        with self._reference_lock:
            if self._reference is None:
                self._reference = build_service(
                    self.world, seed=self.seed, specs=self.specs,
                    quota_policy=_UNMETERED,
                )
            effective = as_of if as_of is not None else self._effective_as_of(
                params.get("asOf")
            )
            self._reference.clock.set(effective)
            return _dumps(self._reference.search.list(**_typed_search_params(params)))

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting jobs and wait for running ones to finish."""
        self._executor.shutdown(wait=True)


def _typed_search_params(params: dict[str, str]) -> dict:
    """Wire strings -> the endpoint's python signature (asOf stripped)."""
    kwargs: dict = {
        k: v for k, v in params.items() if k in _SEARCH_PARAMS and k != "asOf"
    }
    if "maxResults" in kwargs:
        try:
            kwargs["maxResults"] = int(kwargs["maxResults"])
        except ValueError:
            pass  # endpoint validation reports the bad value verbatim
    return kwargs


def build_gateway(
    scale: float = 0.3,
    seed: int = 7,
    keys: KeyTable | None = None,
    observer: Observer | None = None,
    breaker: CircuitBreaker | None = None,
    cache_entries: int = 1024,
    world: World | None = None,
    specs: tuple[TopicSpec, ...] | None = None,
) -> SimulatorGateway:
    """Build the shared warm world and a gateway over it in one call.

    Pass ``world``/``specs`` to reuse an already-built world (tests), or
    ``specs`` alone to build a world over chosen topics (the ``durable``
    benchmark workload); otherwise the paper's topics are scaled and
    built here — the slow part of server startup.
    """
    from repro.world.corpus import build_world, scale_topics
    from repro.world.topics import paper_topics

    if specs is None:
        specs = scale_topics(paper_topics(), scale)
    if world is None:
        world = build_world(specs, seed=seed, observer=observer)
    return SimulatorGateway(
        world, seed=seed, specs=specs, keys=keys, observer=observer,
        breaker=breaker, cache_entries=cache_entries,
    )
