"""Client-level resilience: retry wiring, pagination restarts, breaker gate.

The pagination tests drive the client over a stub service whose endpoints
fail with ``invalidPageToken`` mid-traversal — the real API's way of
saying a token series expired server-side.  Documented behavior: restart
the pagination from page one (bounded by the policy's
``max_pagination_restarts``), or surface the error cleanly past the bound.
"""

from __future__ import annotations

import pytest

from repro.api import YouTubeClient, build_service
from repro.api.errors import (
    InvalidPageTokenError,
    QuotaExceededError,
    TransientServerError,
)
from repro.api.transport import Transport
from repro.obs import CampaignObserver, summarize_events
from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    FaultSpec,
    RetryBudget,
    RetryBudgetExceededError,
    RetryPolicy,
)
from repro.world.topics import topic_by_key

SEED = 20250209


class _FlakyPages:
    """A paged endpoint that dies with invalidPageToken on chosen fetches.

    ``pages`` maps page token (None = first page) -> (items, next_token);
    ``fail_on`` lists 0-based fetch ordinals that raise instead.
    """

    def __init__(self, pages: dict, fail_on: set[int]) -> None:
        self._pages = pages
        self._fail_on = fail_on
        self.fetches = 0

    def list(self, **params):
        ordinal = self.fetches
        self.fetches += 1
        if ordinal in self._fail_on:
            raise InvalidPageTokenError("token series expired")
        items, next_token = self._pages[params.get("pageToken")]
        response = {"items": items, "pageInfo": {"totalResults": 99}}
        if next_token is not None:
            response["nextPageToken"] = next_token
        return response


class _StubService:
    """Just enough service surface for the client's paginated methods."""

    def __init__(self, endpoint: _FlakyPages) -> None:
        self.search = endpoint
        self.playlist_items = endpoint
        self.comment_threads = endpoint
        self.comments = endpoint


def _search_pages():
    return {
        None: ([{"id": {"videoId": f"a{i}"}} for i in range(50)], "T2"),
        "T2": ([{"id": {"videoId": f"b{i}"}} for i in range(10)], None),
    }


class TestPaginationRestart:
    def test_search_all_restarts_and_matches_clean_run(self):
        clean = YouTubeClient(_StubService(_FlakyPages(_search_pages(), set())))
        expected = clean.search_all(q="x")

        endpoint = _FlakyPages(_search_pages(), fail_on={1})
        observer = CampaignObserver()
        client = YouTubeClient(_StubService(endpoint), observer=observer)
        assert client.search_all(q="x") == expected
        assert endpoint.fetches == 4  # page1, dead page2, then a clean 1+2
        restarts = observer.tracer.of_type("pagination.restart")
        assert len(restarts) == 1
        assert restarts[0].fields["endpoint"] == "search.list"

    def test_search_all_surfaces_cleanly_past_the_bound(self):
        endpoint = _FlakyPages(_search_pages(), fail_on={1, 3})
        client = YouTubeClient(_StubService(endpoint))  # default: 1 restart
        with pytest.raises(InvalidPageTokenError):
            client.search_all(q="x")

    def test_restart_bound_is_configurable(self):
        endpoint = _FlakyPages(_search_pages(), fail_on={1, 3})
        client = YouTubeClient(
            _StubService(endpoint),
            retry_policy=RetryPolicy(max_pagination_restarts=2),
        )
        assert len(client.search_all(q="x")) == 60

    def test_playlist_video_ids_restarts_without_duplicates(self):
        pages = {
            None: ([{"contentDetails": {"videoId": f"v{i}"}} for i in range(50)], "T2"),
            "T2": ([{"contentDetails": {"videoId": "v50"}}], None),
        }
        endpoint = _FlakyPages(pages, fail_on={1})
        client = YouTubeClient(_StubService(endpoint))
        ids = client.playlist_video_ids("UUxx")
        assert len(ids) == 51
        assert len(set(ids)) == 51  # the restart did not double-collect

    def test_comment_threads_all_restarts(self):
        pages = {
            None: ([{"id": f"t{i}"} for i in range(50)], "T2"),
            "T2": ([{"id": "t50"}], None),
        }
        endpoint = _FlakyPages(pages, fail_on={1})
        client = YouTubeClient(_StubService(endpoint))
        threads = client.comment_threads_all("vid", include_replies=False)
        assert [t["id"] for t in threads] == [f"t{i}" for i in range(51)]

    def test_restarts_draw_from_the_retry_budget(self):
        endpoint = _FlakyPages(_search_pages(), fail_on={1})
        client = YouTubeClient(
            _StubService(endpoint),
            retry_policy=RetryPolicy(budget=RetryBudget(0)),
        )
        with pytest.raises(RetryBudgetExceededError):
            client.search_all(q="x")


class TestRetryWiring:
    def _faulted_client(self, small_world, small_specs, plan, **kwargs):
        service = build_service(
            small_world, seed=SEED, specs=small_specs,
            transport=Transport(faults=plan),
        )
        return YouTubeClient(service, **kwargs), service

    def test_legacy_max_retries_equivalence(self, small_world, small_specs):
        """max_retries=N still means N retries then raise (N+1 attempts)."""
        plan = FaultPlan([FaultSpec(start=0, count=10)])
        observer = CampaignObserver()
        client, _service = self._faulted_client(
            small_world, small_specs, plan, max_retries=2, observer=observer
        )
        spec = topic_by_key("higgs", small_specs)
        with pytest.raises(TransientServerError):
            client.search_page(q=spec.query, maxResults=5)
        assert len(observer.tracer.of_type("api.retry")) == 2
        assert len(observer.tracer.of_type("api.error")) == 1
        assert plan.tick == 3  # exactly max_retries + 1 attempts reached it

    def test_retry_budget_fails_loudly(self, small_world, small_specs):
        plan = FaultPlan([FaultSpec(start=0, count=10)])
        client, _service = self._faulted_client(
            small_world, small_specs, plan,
            retry_policy=RetryPolicy(max_attempts=10, budget=RetryBudget(2)),
        )
        spec = topic_by_key("higgs", small_specs)
        with pytest.raises(RetryBudgetExceededError):
            client.search_page(q=spec.query, maxResults=5)

    def test_quota_exceeded_is_never_retried(self, small_world, small_specs):
        plan = FaultPlan([FaultSpec(start=0, count=3, error="quotaExceeded")])
        observer = CampaignObserver()
        client, _service = self._faulted_client(
            small_world, small_specs, plan, observer=observer
        )
        spec = topic_by_key("higgs", small_specs)
        with pytest.raises(QuotaExceededError):
            client.search_page(q=spec.query, maxResults=5)
        assert len(observer.tracer.of_type("api.retry")) == 0
        assert plan.tick == 1  # one attempt, zero retries

    def test_breaker_opens_and_rejects(self, small_world, small_specs):
        plan = FaultPlan([FaultSpec(start=0, count=100)])
        breaker = CircuitBreaker(failure_threshold=3, probe_after=1000)
        client, service = self._faulted_client(
            small_world, small_specs, plan,
            max_retries=2, circuit_breaker=breaker,
        )
        spec = topic_by_key("higgs", small_specs)
        with pytest.raises(TransientServerError):
            client.search_page(q=spec.query, maxResults=5)
        # The circuit is now open: the next call never reaches the backend.
        tick_before = plan.tick
        with pytest.raises(CircuitOpenError):
            client.search_page(q=spec.query, maxResults=5)
        assert plan.tick == tick_before
        assert service.quota.total_used == 0

    def test_breaker_inherits_client_observer(self, small_world, small_specs):
        plan = FaultPlan([FaultSpec(start=0, count=3)])
        observer = CampaignObserver()
        client, _service = self._faulted_client(
            small_world, small_specs, plan,
            max_retries=5, observer=observer,
            circuit_breaker=CircuitBreaker(failure_threshold=3, probe_after=1),
        )
        spec = topic_by_key("higgs", small_specs)
        # Opens on the 3rd failure; attempt 4 is admitted as the probe and
        # succeeds, closing the circuit — all traced via the client observer.
        client.search_page(q=spec.query, maxResults=5)
        transitions = observer.tracer.of_type("circuit.transition")
        assert [e.fields["new"] for e in transitions] == [
            "open", "half_open", "closed"
        ]


class TestBillingUnderRetry:
    def test_simulator_never_bills_failed_attempts(self, small_world, small_specs):
        """Faults fire before the quota charge: a stormy run's ledger equals
        its completed calls exactly, and the trace reconciles."""
        plan = FaultPlan([
            FaultSpec(start=0, count=2, error="rateLimitExceeded"),
            FaultSpec(start=4, count=1, error="backendError"),
        ])
        observer = CampaignObserver()
        service = build_service(
            small_world, seed=SEED, specs=small_specs,
            transport=Transport(faults=plan), observer=observer,
        )
        client = YouTubeClient(service, max_retries=5)
        spec = topic_by_key("higgs", small_specs)
        for _ in range(3):
            client.search_page(q=spec.query, maxResults=5)
        assert len(plan.injected) == 3
        assert service.transport.total_calls == 3
        assert service.quota.total_used == 300
        spends = observer.tracer.of_type("quota.spend")
        assert len(spends) == service.transport.total_calls
        assert sum(e.fields["units"] for e in spends) == service.quota.total_used
        summary = summarize_events(observer.tracer.iter_dicts())
        assert summary.net_units == service.quota.total_used
