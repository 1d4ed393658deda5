"""End-to-end tests for the observability wiring across api/core layers."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import QuotaPolicy, YouTubeClient, build_service
from repro.api.errors import NotFoundError, TransientServerError
from repro.api.transport import FaultInjector, Transport
from repro.cli import main
from repro.core import paper_campaign_config, run_campaign
from repro.obs import CampaignObserver, load_trace, summarize_events

#: (events, digest) of ``repro campaign --scale 0.05 --collections 2
#: --comments --trace T`` at the default seed, per engine.
CAMPAIGN_TRACE_DIGESTS = {
    "batch": (25_017, "856b5825b082d33c"),
    "per-call": (25_005, "33edd200018ed720"),
}


def trace_digest(path) -> tuple[int, str]:
    """Event count and a short sha256 of an exported trace.

    Wall-clock fields (``wall_s``, ``wall_ms``) are dropped and ``path``
    / ``directory`` cut to their last component, so the digest repeats
    across runs and working directories.  Each event is hashed as its
    ``json.dumps(event, sort_keys=True)`` plus a newline, in ``seq``
    order; the digest is the first 16 hex digits.
    """
    digest = hashlib.sha256()
    events = load_trace(path)
    for event in events:
        event.pop("wall_s", None)
        event.pop("wall_ms", None)
        for key in ("path", "directory"):
            if key in event:
                event[key] = Path(event[key]).name
        digest.update((json.dumps(event, sort_keys=True) + "\n").encode())
    return len(events), digest.hexdigest()[:16]


def _mini_config(specs, n=2):
    cfg = paper_campaign_config(topics=specs, with_comments=False)
    return dataclasses.replace(
        cfg, n_scheduled=n, skipped_indices=frozenset(),
        comment_snapshot_indices=(),
    )


@pytest.fixture()
def observed_run(small_world, small_specs):
    """A 2-snapshot campaign with a CampaignObserver attached at the service."""
    obs = CampaignObserver()
    service = build_service(
        small_world, seed=20250209, specs=small_specs,
        quota_policy=QuotaPolicy(researcher_program=True), observer=obs,
    )
    client = YouTubeClient(service)
    campaign = run_campaign(_mini_config(small_specs), client)
    return obs, service, campaign


class TestObserverCascade:
    def test_client_and_collector_inherit_service_observer(self, small_world, small_specs):
        from repro.core.collector import SnapshotCollector

        obs = CampaignObserver()
        service = build_service(
            small_world, seed=20250209, specs=small_specs, observer=obs,
        )
        client = YouTubeClient(service)
        assert client.observer is obs
        collector = SnapshotCollector(client, small_specs)
        assert collector._observer is obs
        assert service.quota.observer is obs

    def test_explicit_observer_wins(self, small_world, small_specs):
        service_obs = CampaignObserver()
        client_obs = CampaignObserver()
        service = build_service(
            small_world, seed=20250209, specs=small_specs, observer=service_obs,
        )
        client = YouTubeClient(service, observer=client_obs)
        assert client.observer is client_obs


class TestQuotaReconciliation:
    def test_trace_units_match_ledger_exactly(self, observed_run):
        obs, service, _ = observed_run
        summary = summarize_events(obs.tracer.iter_dicts())
        assert summary.total_units == service.quota.total_used

    def test_trace_calls_match_transport(self, observed_run):
        obs, service, _ = observed_run
        summary = summarize_events(obs.tracer.iter_dicts())
        assert summary.total_calls == service.transport.total_calls

    def test_topic_attribution_sums_to_total(self, observed_run):
        obs, service, _ = observed_run
        summary = summarize_events(obs.tracer.iter_dicts())
        # Every charge in this campaign happens inside a topic sweep.
        assert sum(summary.topic_units.values()) == service.quota.total_used
        topics_seen = {e.fields["topic"] for e in obs.tracer.of_type("topic.start")}
        assert set(summary.topic_units) == topics_seen

    def test_snapshot_units_sum_to_total(self, observed_run):
        obs, service, _ = observed_run
        summary = summarize_events(obs.tracer.iter_dicts())
        assert sum(s.units for s in summary.snapshots) == service.quota.total_used

    def test_search_unit_price_visible_per_event(self, observed_run):
        obs, _, _ = observed_run
        spends = obs.tracer.of_type("quota.spend")
        search = [e for e in spends if e.fields["endpoint"] == "search.list"]
        assert search and all(e.fields["units"] == 100 for e in search)
        cheap = [e for e in spends if e.fields["endpoint"] != "search.list"]
        assert cheap and all(e.fields["units"] == 1 for e in cheap)


class TestEventStream:
    def test_snapshot_events_bracket_each_collection(self, observed_run):
        obs, _, campaign = observed_run
        starts = obs.tracer.of_type("snapshot.start")
        ends = obs.tracer.of_type("snapshot.end")
        assert len(starts) == len(ends) == campaign.n_collections
        assert [e.fields["index"] for e in starts] == [0, 1]
        for start, end in zip(starts, ends):
            assert start.seq < end.seq

    def test_topic_events_nest_inside_snapshots(self, observed_run):
        obs, _, _ = observed_run
        starts = obs.tracer.of_type("snapshot.start")
        topic_starts = obs.tracer.of_type("topic.start")
        # 6 topics per snapshot, 2 snapshots.
        assert len(topic_starts) == 12
        assert all(t.seq > starts[0].seq for t in topic_starts)

    def test_api_call_events_carry_virtual_time(self, observed_run):
        obs, _, campaign = observed_run
        calls = obs.tracer.of_type("api.call")
        days = {c.to_dict()["at"][:10] for c in calls}
        assert days == {
            snap.collected_at.date().isoformat() for snap in campaign.snapshots
        }

    def test_every_api_call_preceded_by_its_quota_spend(self, observed_run):
        obs, _, _ = observed_run
        events = list(obs.tracer.iter_dicts())
        for i, event in enumerate(events):
            if event["type"] == "api.call":
                previous = events[i - 1]
                assert previous["type"] == "quota.spend"
                assert previous["endpoint"] == event["endpoint"]

    def test_search_query_depth_recorded(self, observed_run):
        obs, _, _ = observed_run
        queries = obs.tracer.of_type("search.query")
        assert queries
        assert all(q.fields["pages"] >= 1 for q in queries)
        summary = summarize_events(obs.tracer.iter_dicts())
        assert summary.search_queries == len(queries)
        assert summary.search_pages == sum(q.fields["pages"] for q in queries)

    def test_snapshot_end_times_the_collection(
        self, small_world, small_specs, monkeypatch
    ):
        """The collector measures a snapshot's wall and virtual time."""
        from repro.core.collector import SnapshotCollector

        ticks = iter([10.0, 12.5])
        monkeypatch.setattr(
            "repro.core.collector.time",
            SimpleNamespace(perf_counter=lambda: next(ticks)),
        )
        obs = CampaignObserver()
        service = build_service(
            small_world, seed=20250209, specs=small_specs,
            quota_policy=QuotaPolicy(researcher_program=True), observer=obs,
        )
        collector = SnapshotCollector(
            YouTubeClient(service), small_specs[:1], collect_metadata=False
        )
        collector.collect(0)
        (end,) = obs.tracer.of_type("snapshot.end")
        assert end.fields["wall_s"] == 2.5
        assert end.fields["virtual_s"] == 0.0


class TestRetriesAndErrors:
    def test_transient_faults_emit_retry_events(self, small_world, small_specs):
        obs = CampaignObserver()
        service = build_service(
            small_world, seed=20250209, specs=small_specs,
            quota_policy=QuotaPolicy(researcher_program=True),
            transport=Transport(faults=FaultInjector(probability=0.2, seed=3)),
            observer=obs,
        )
        client = YouTubeClient(service, max_retries=5)
        spec = small_specs[0]
        from repro.util.timeutil import format_rfc3339

        for _ in range(30):
            client.search_page(
                q=spec.query, order="date", maxResults=10,
                publishedAfter=format_rfc3339(spec.window_start),
                publishedBefore=format_rfc3339(spec.window_end),
            )
        retries = obs.tracer.of_type("api.retry")
        assert retries, "20% fault rate over 30+ calls must retry at least once"
        assert all(e.fields["endpoint"] == "search.list" for e in retries)
        assert all(e.fields["error"] == "TransientServerError" for e in retries)
        summary = summarize_events(obs.tracer.iter_dicts())
        assert summary.endpoints["search.list"].retries == len(retries)
        # Retries are never billed: units still equal completed calls' costs.
        assert summary.total_units == service.quota.total_used

    def test_exhausted_retries_emit_error_event(self, small_world, small_specs):
        obs = CampaignObserver()
        service = build_service(
            small_world, seed=20250209, specs=small_specs,
            transport=Transport(faults=FaultInjector(probability=0.999, seed=1)),
            observer=obs,
        )
        client = YouTubeClient(service, max_retries=2)
        with pytest.raises(TransientServerError):
            client.search_page(q=small_specs[0].query, maxResults=5)
        errors = obs.tracer.of_type("api.error")
        assert len(errors) == 1
        assert errors[0].fields["error"] == "TransientServerError"
        assert len(obs.tracer.of_type("api.retry")) == 2

    def test_non_retriable_error_reported(self, small_world, small_specs):
        obs = CampaignObserver()
        service = build_service(
            small_world, seed=20250209, specs=small_specs, observer=obs,
        )
        client = YouTubeClient(service)
        with pytest.raises(NotFoundError):
            client.comment_threads_all("zzzzzzzzzzz")
        errors = obs.tracer.of_type("api.error")
        assert len(errors) == 1
        assert errors[0].fields["error"] == "NotFoundError"
        assert errors[0].fields["endpoint"] == "commentThreads.list"


class TestDeterminism:
    def test_observed_run_identical_to_unobserved(self, small_world, small_specs):
        """Attaching an observer must not perturb collected results."""
        def run(observer):
            service = build_service(
                small_world, seed=20250209, specs=small_specs,
                quota_policy=QuotaPolicy(researcher_program=True),
                observer=observer,
            )
            return run_campaign(_mini_config(small_specs), YouTubeClient(service))

        plain = run(None)  # NullObserver default
        observed = run(CampaignObserver())
        assert plain.topic_keys == observed.topic_keys
        for a, b in zip(plain.snapshots, observed.snapshots):
            assert a.collected_at == b.collected_at
            for key in plain.topic_keys:
                assert a.topic(key).hour_video_ids == b.topic(key).hour_video_ids
                assert a.topic(key).pool_sizes == b.topic(key).pool_sizes
                assert a.topic(key).video_meta == b.topic(key).video_meta

    def test_saved_campaign_bytes_identical(self, small_world, small_specs, tmp_path):
        def run_and_save(observer, name):
            service = build_service(
                small_world, seed=20250209, specs=small_specs,
                quota_policy=QuotaPolicy(researcher_program=True),
                observer=observer,
            )
            campaign = run_campaign(_mini_config(small_specs), YouTubeClient(service))
            path = tmp_path / name
            campaign.save(path)
            return path.read_bytes()

        assert run_and_save(None, "a.jsonl") == run_and_save(
            CampaignObserver(), "b.jsonl"
        )

    def test_traces_repeat_except_wall_time(self, small_world, small_specs):
        def trace():
            obs = CampaignObserver()
            service = build_service(
                small_world, seed=20250209, specs=small_specs,
                quota_policy=QuotaPolicy(researcher_program=True), observer=obs,
            )
            run_campaign(_mini_config(small_specs, n=1), YouTubeClient(service))
            return [
                {k: v for k, v in event.items() if k != "wall_s"}
                for event in obs.tracer.iter_dicts()
            ]

        assert trace() == trace()


class TestTraceExport:
    def test_export_and_reload_summarizes_identically(self, observed_run, tmp_path):
        obs, service, _ = observed_run
        path = tmp_path / "trace.jsonl"
        n = obs.export_trace(path)
        assert n == len(obs.tracer)
        reloaded = summarize_events(load_trace(path))
        live = summarize_events(obs.tracer.iter_dicts())
        assert reloaded.total_units == live.total_units == service.quota.total_used
        assert reloaded.topic_units == live.topic_units

    def test_report_renders_from_observer(self, observed_run):
        obs, service, _ = observed_run
        text = obs.report()
        assert "Quota economy per topic" in text
        assert str(service.quota.total_used) in text

    def test_observability_demo_reconciles(self, tmp_path):
        """``examples/observability_demo.py`` runs and its trace reconciles."""
        root = Path(__file__).resolve().parents[1]
        trace = tmp_path / "demo.jsonl"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, str(root / "examples" / "observability_demo.py"),
             "--trace-out", str(trace)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "quota reconciliation" in result.stdout
        summary = summarize_events(load_trace(trace))
        assert summary.total_units > 0 and summary.total_retries > 0

    def test_core_report_integration(self, observed_run):
        from repro.core import report

        obs, _, _ = observed_run
        assert report.render_observability(obs.tracer.iter_dicts()) == obs.report()


class TestTraceDigest:
    @pytest.mark.parametrize("engine", sorted(CAMPAIGN_TRACE_DIGESTS))
    def test_campaign_trace_is_pinned(self, engine, tmp_path):
        """The whole event stream of a small campaign, wall time aside."""
        trace = tmp_path / "trace.jsonl"
        assert main([
            "campaign", "--scale", "0.05", "--collections", "2", "--comments",
            "--quiet", "--engine", engine, "--trace", str(trace),
        ]) == 0
        assert trace_digest(trace) == CAMPAIGN_TRACE_DIGESTS[engine]
