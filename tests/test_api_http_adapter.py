"""Offline tests for the live-API adapter (pure parts only)."""

from __future__ import annotations

import json
import urllib.parse

import pytest

from repro.api.errors import (
    BadRequestError,
    ForbiddenError,
    InvalidPageTokenError,
    MalformedResponseError,
    NotFoundError,
    QuotaExceededError,
    RateLimitedError,
    TransientServerError,
)
from repro.api.http_adapter import (
    API_BASE_URL,
    RealYouTubeService,
    build_request_url,
    classify_http_error,
)
from repro.obs import summarize_events


class TestBuildRequestUrl:
    def test_basic(self):
        url = build_request_url("search", "KEY", {"q": "higgs boson", "maxResults": 50})
        assert url.startswith(f"{API_BASE_URL}/search?")
        parsed = urllib.parse.parse_qs(urllib.parse.urlparse(url).query)
        assert parsed["q"] == ["higgs boson"]
        assert parsed["maxResults"] == ["50"]
        assert parsed["key"] == ["KEY"]

    def test_lists_comma_joined(self):
        url = build_request_url("videos", "K", {"id": ["a", "b", "c"]})
        parsed = urllib.parse.parse_qs(urllib.parse.urlparse(url).query)
        assert parsed["id"] == ["a,b,c"]

    def test_none_dropped_bool_lowered(self):
        url = build_request_url("search", "K", {"pageToken": None, "flag": True})
        query = urllib.parse.urlparse(url).query
        assert "pageToken" not in query
        assert "flag=true" in query

    def test_url_encoding(self):
        url = build_request_url("search", "K", {"q": "a&b =c"})
        assert "a%26b" in url

    def test_requires_key(self):
        with pytest.raises(ValueError):
            build_request_url("search", "", {})


class TestClassifyHttpError:
    def _body(self, reason: str, message: str = "m") -> str:
        return json.dumps(
            {"error": {"code": 403, "message": message,
                       "errors": [{"reason": reason}]}}
        )

    def test_quota_exceeded(self):
        err = classify_http_error(403, self._body("quotaExceeded"))
        assert isinstance(err, QuotaExceededError)

    def test_invalid_page_token(self):
        err = classify_http_error(400, self._body("invalidPageToken"))
        assert isinstance(err, InvalidPageTokenError)

    def test_plain_403(self):
        err = classify_http_error(403, self._body("forbidden"))
        assert isinstance(err, ForbiddenError)
        assert not isinstance(err, QuotaExceededError)

    def test_404(self):
        assert isinstance(classify_http_error(404, "{}"), NotFoundError)

    def test_5xx_retriable(self):
        err = classify_http_error(503, b"Service Unavailable")
        assert isinstance(err, TransientServerError)
        assert err.retriable

    def test_400_default(self):
        assert isinstance(classify_http_error(400, "not even json"), BadRequestError)

    def test_message_extracted(self):
        err = classify_http_error(403, self._body("quotaExceeded", "out of juice"))
        assert "out of juice" in err.message

    def test_http_429_is_rate_limited(self):
        err = classify_http_error(429, "Too Many Requests")
        assert isinstance(err, RateLimitedError)
        assert err.retriable

    def test_403_with_rate_limit_reason_is_rate_limited(self):
        """The API reports per-minute throttling as a 403 — it must map to
        the retriable RateLimitedError, not the terminal ForbiddenError."""
        err = classify_http_error(403, self._body("rateLimitExceeded"))
        assert isinstance(err, RateLimitedError)
        assert err.retriable
        assert not isinstance(err, ForbiddenError)

    def test_user_rate_limit_reason_is_rate_limited(self):
        err = classify_http_error(403, self._body("userRateLimitExceeded"))
        assert isinstance(err, RateLimitedError)

    def test_quota_exceeded_still_wins_over_429_mapping(self):
        """quotaExceeded is checked before the throttle mapping: only a new
        quota day clears it, so it must never become retriable."""
        err = classify_http_error(403, self._body("quotaExceeded"))
        assert isinstance(err, QuotaExceededError)
        assert not err.retriable


class TestRealService:
    def test_surface_matches_simulator(self):
        service = RealYouTubeService(api_key="KEY")
        for attribute in (
            "search", "videos", "channels", "playlist_items",
            "comment_threads", "comments", "video_categories",
        ):
            endpoint = getattr(service, attribute)
            assert hasattr(endpoint, "list")
            assert endpoint.endpoint_name.endswith(".list")

    def test_quota_charged_before_network(self):
        """With a zero-ish budget the call must fail locally, offline."""
        from repro.api.quota import QuotaPolicy

        service = RealYouTubeService(api_key="KEY", quota_policy=QuotaPolicy(daily_limit=50))
        with pytest.raises(QuotaExceededError):
            service.search.list(q="anything")  # 100 > 50: no socket touched

    def test_validation(self):
        with pytest.raises(ValueError):
            RealYouTubeService(api_key="")
        with pytest.raises(ValueError):
            RealYouTubeService(api_key="K", timeout=0)


class _FakeResponse:
    """A context-managed stand-in for urllib's response object."""

    def __init__(self, body: bytes) -> None:
        self._body = body

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class TestBillingUnderFailure:
    """The adapter pre-charges; every failure path must refund.

    These monkeypatch ``urllib.request.urlopen`` so no socket is touched.
    """

    def _service(self) -> RealYouTubeService:
        from repro.obs import CampaignObserver

        return RealYouTubeService(api_key="KEY", observer=CampaignObserver())

    def test_truncated_body_raises_retriable_and_refunds(self, monkeypatch):
        service = self._service()
        monkeypatch.setattr(
            "urllib.request.urlopen",
            lambda url, timeout: _FakeResponse(b'{"items": [{"id"'),
        )
        with pytest.raises(MalformedResponseError) as excinfo:
            service.videos.list(part="snippet", id="abc")
        assert excinfo.value.retriable
        assert service.quota.total_used == 0  # charged then refunded
        assert service.transport.total_calls == 0

    def test_http_error_refunds(self, monkeypatch):
        import io
        import urllib.error

        def boom(url, timeout):
            raise urllib.error.HTTPError(
                url, 503, "Service Unavailable", {}, io.BytesIO(b"down")
            )

        service = self._service()
        monkeypatch.setattr("urllib.request.urlopen", boom)
        with pytest.raises(TransientServerError):
            service.videos.list(part="snippet", id="abc")
        assert service.quota.total_used == 0

    def test_url_error_refunds(self, monkeypatch):
        import urllib.error

        def boom(url, timeout):
            raise urllib.error.URLError("connection reset")

        service = self._service()
        monkeypatch.setattr("urllib.request.urlopen", boom)
        with pytest.raises(TransientServerError):
            service.videos.list(part="snippet", id="abc")
        assert service.quota.total_used == 0

    def test_retry_then_success_bills_exactly_once(self, monkeypatch):
        """End-to-end no-double-billing: a truncated body followed by a good
        response, driven through the client's retry loop, bills one call and
        the trace reconciles (spend - refund == ledger)."""
        from repro.api import YouTubeClient

        service = self._service()
        bodies = [b'{"items": [{"id"', b'{"items": []}']
        monkeypatch.setattr(
            "urllib.request.urlopen",
            lambda url, timeout: _FakeResponse(bodies.pop(0)),
        )
        client = YouTubeClient(service)
        assert client.videos_list(["abc"]) == []
        assert service.quota.total_used == 1  # one videos.list completed
        observer = service.observer
        spends = observer.tracer.of_type("quota.spend")
        refunds = observer.tracer.of_type("quota.refund")
        assert len(spends) == 2 and len(refunds) == 1
        net = sum(e.fields["units"] for e in spends) - sum(
            e.fields["units"] for e in refunds
        )
        assert net == service.quota.total_used
        summary = summarize_events(observer.tracer.iter_dicts())
        assert summary.net_units == service.quota.total_used
        assert len(observer.tracer.of_type("api.retry")) == 1
