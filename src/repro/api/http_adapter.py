"""Adapter for calling the *real* Data API through the simulator's client.

Everything in :mod:`repro.core` talks to endpoint objects exposing
``.list(**params) -> dict``.  This module provides that surface backed by
HTTPS calls to ``www.googleapis.com/youtube/v3``, so the
:class:`~repro.api.client.YouTubeClient` calls work live — ``search_page``
/ ``search_all``, ``videos_list``, ``channels_list``, the playlist and
comment sweeps — with the same retry policy, local quota pre-charge, and
refund on every failed call:

    service = RealYouTubeService(api_key="...")     # needs network + key
    client = YouTubeClient(service)
    items = client.search_all(q="...", publishedAfter="...", ...)

Campaigns do not run live.  :func:`~repro.core.campaign.run_campaign` and
:class:`~repro.core.collector.SnapshotCollector` need the simulator's
virtual clock (``service.clock``), which this service does not have, and
the default batch engine calls ``service.search.sweep``, which a live
endpoint does not offer.  A live campaign runner (a wall-clock schedule
over per-call collection) is not part of this repository.

Design notes:

* request construction and response handling are pure functions
  (:func:`build_request_url`, :func:`classify_http_error`), fully unit
  tested offline; only :meth:`_HttpEndpoint.list` touches the network;
* quota is tracked client-side with the same :class:`QuotaLedger`, charging
  *before* the call so a budget overrun fails fast locally instead of
  burning the project's quota on a 403;
* error bodies are mapped onto the same exception types the simulator
  raises, so retry logic and tests transfer unchanged.

This module never runs in this repository's offline test suite beyond its
pure parts; it exists so a reader with an API key can issue the paper's
queries live and compare the answers against the simulator's.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from datetime import datetime, timezone

from repro.api.errors import (
    ApiError,
    BadRequestError,
    ForbiddenError,
    InvalidPageTokenError,
    MalformedResponseError,
    NotFoundError,
    QuotaExceededError,
    RateLimitedError,
    TransientServerError,
)
from repro.api.quota import QuotaLedger, QuotaPolicy
from repro.api.transport import Transport
from repro.obs.observer import NullObserver, Observer

__all__ = [
    "API_BASE_URL",
    "build_request_url",
    "classify_http_error",
    "RealYouTubeService",
]

API_BASE_URL = "https://www.googleapis.com/youtube/v3"

#: endpoint object attribute -> (URL path, quota name)
_ENDPOINTS = {
    "search": ("search", "search.list"),
    "videos": ("videos", "videos.list"),
    "channels": ("channels", "channels.list"),
    "playlist_items": ("playlistItems", "playlistItems.list"),
    "comment_threads": ("commentThreads", "commentThreads.list"),
    "comments": ("comments", "comments.list"),
    "video_categories": ("videoCategories", "videoCategories.list"),
}


def build_request_url(path: str, api_key: str, params: dict) -> str:
    """Construct the HTTPS request URL for one call.

    Parameter values are rendered the way google-api-python-client does:
    lists become comma-joined strings, booleans lowercase, ``None`` values
    are dropped.
    """
    if not api_key:
        raise ValueError("api_key must be non-empty")
    rendered: dict[str, str] = {}
    for key, value in params.items():
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            rendered[key] = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            rendered[key] = "true" if value else "false"
        else:
            rendered[key] = str(value)
    rendered["key"] = api_key
    query = urllib.parse.urlencode(sorted(rendered.items()))
    return f"{API_BASE_URL}/{path}?{query}"


def classify_http_error(status: int, body: bytes | str) -> ApiError:
    """Map an HTTP error response onto the simulator's exception types."""
    if isinstance(body, bytes):
        body = body.decode("utf-8", errors="replace")
    reason = ""
    message = body[:500]
    try:
        payload = json.loads(body)
        error = payload.get("error", {})
        message = error.get("message", message)
        errors = error.get("errors") or [{}]
        reason = errors[0].get("reason", "")
    except (json.JSONDecodeError, AttributeError, IndexError, TypeError):
        pass

    if reason == "quotaExceeded":
        return QuotaExceededError(message)
    if reason == "invalidPageToken":
        return InvalidPageTokenError(message)
    # Per-minute throttling, not the daily quota: HTTP 429, or 403 carrying
    # the rateLimitExceeded reason.  Retriable after backing off — checked
    # before the generic 403 mapping, which is terminal.
    if status == 429 or reason in ("rateLimitExceeded", "userRateLimitExceeded"):
        return RateLimitedError(message)
    if status == 403:
        return ForbiddenError(message)
    if status == 404:
        return NotFoundError(message)
    if status >= 500:
        return TransientServerError(message)
    return BadRequestError(message)


class _HttpEndpoint:
    """One live endpoint with the simulator's ``.list(**params)`` surface."""

    def __init__(self, service: "RealYouTubeService", path: str, quota_name: str) -> None:
        self._service = service
        self._path = path
        self.endpoint_name = quota_name

    def list(self, **params) -> dict:
        """Issue one live call (charges local quota first).

        The local pre-charge fails fast on budget overruns, but it means a
        call that dies *after* charging (HTTP error, network drop,
        truncated body) would stay billed and be billed again by its
        retry.  Every failure path below therefore refunds the charge
        before raising, keeping the ledger equal to completed calls — the
        reconciliation invariant ``repro chaos`` pins for the simulator.
        """
        service = self._service
        day = datetime.now(timezone.utc).date().isoformat()
        service.quota.charge(self.endpoint_name, day)
        url = build_request_url(self._path, service.api_key, params)
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(url, timeout=service.timeout) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:  # pragma: no cover - network
            service.quota.refund(self.endpoint_name, day)
            error = classify_http_error(exc.code, exc.read())
            service.observer.on_api_error(self.endpoint_name, error)
            raise error from exc
        except urllib.error.URLError as exc:  # pragma: no cover - network
            service.quota.refund(self.endpoint_name, day)
            error = TransientServerError(f"network error: {exc.reason}")
            service.observer.on_api_error(self.endpoint_name, error)
            raise error from exc
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            # A 2xx status with an unparseable body: the connection dropped
            # mid-response.  Retriable — the request itself was accepted.
            service.quota.refund(self.endpoint_name, day)
            error = MalformedResponseError(
                f"truncated or invalid JSON body from {self.endpoint_name} "
                f"({len(body)} bytes): {exc}"
            )
            service.observer.on_api_error(self.endpoint_name, error)
            raise error from exc
        now = datetime.now(timezone.utc)
        service.transport.observe(
            self.endpoint_name, now, service.quota.cost_of(self.endpoint_name)
        )
        # Real wall latency, not the transport's simulated draw.
        service.observer.on_api_call(
            self.endpoint_name,
            now,
            service.quota.cost_of(self.endpoint_name),
            (time.perf_counter() - started) * 1000.0,
        )
        return payload


class RealYouTubeService:
    """Live-API drop-in for :class:`repro.api.service.YouTubeService`.

    Carries the same endpoint attributes, a client-side quota ledger, and a
    transport log.  It has no virtual clock (the real API's behavior is
    keyed to wall time — which is the paper's entire point); campaign
    runners that ``clock.set(...)`` should use
    :class:`~repro.api.clock.VirtualClock` semantics only against the
    simulator and a cron schedule against this.
    """

    def __init__(
        self,
        api_key: str,
        quota_policy: QuotaPolicy | None = None,
        timeout: float = 30.0,
        observer: Observer | None = None,
    ) -> None:
        if not api_key:
            raise ValueError("api_key must be non-empty")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.api_key = api_key
        self.timeout = timeout
        self.observer = observer or NullObserver()
        self.quota = QuotaLedger(policy=quota_policy or QuotaPolicy())
        if self.quota.observer is None:
            self.quota.observer = self.observer
        self.transport = Transport()
        for attribute, (path, quota_name) in _ENDPOINTS.items():
            setattr(self, attribute, _HttpEndpoint(self, path, quota_name))
