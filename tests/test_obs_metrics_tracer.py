"""Unit tests for the observability primitives (metrics, tracer, report)."""

from __future__ import annotations

from datetime import datetime

import pytest

from repro.obs import (
    EVENT_TYPES,
    CampaignObserver,
    MetricsRegistry,
    NullObserver,
    Observer,
    Tracer,
    load_trace,
    render_observability,
    summarize_events,
)
from repro.obs.metrics import Histogram, series_key
from repro.util.timeutil import UTC


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("api.calls", endpoint="search.list")
        reg.inc("api.calls", 2, endpoint="search.list")
        reg.inc("api.calls", endpoint="videos.list")
        assert reg.counter_value("api.calls", endpoint="search.list") == 3
        assert reg.counter_value("api.calls", endpoint="videos.list") == 1
        assert reg.counter_value("api.calls", endpoint="never") == 0

    def test_counters_reject_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("x", -1)

    def test_label_order_is_canonical(self):
        assert series_key("m", {"a": 1, "b": 2}) == series_key("m", {"b": 2, "a": 1})
        reg = MetricsRegistry()
        reg.inc("m", a=1, b=2)
        reg.inc("m", b=2, a=1)
        assert reg.counter_value("m", a=1, b=2) == 2

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        reg.set_gauge("quota.used_on_day", 500, day="2025-02-09")
        reg.set_gauge("quota.used_on_day", 100, day="2025-02-09")
        assert reg.gauge("quota.used_on_day", day="2025-02-09").value == 100

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError, match="already a counter"):
            reg.set_gauge("x", 1)

    def test_histogram_buckets_and_stats(self):
        h = Histogram(bounds=(1.0, 5.0, 10.0))
        for v in (0.5, 2.0, 7.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # one overflow
        assert h.count == 4
        assert h.minimum == 0.5 and h.maximum == 50.0
        assert h.mean == pytest.approx(59.5 / 4)
        d = h.to_dict()
        assert d["buckets"]["+Inf"] == 1
        assert d["count"] == 4

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(5.0, 1.0))

    def test_declared_bounds_used(self):
        reg = MetricsRegistry()
        reg.declare_histogram("depth", (1.0, 2.0))
        reg.observe("depth", 2.0)
        assert reg.histogram("depth").bounds == (1.0, 2.0)

    def test_counters_with_prefix_is_family_exact(self):
        reg = MetricsRegistry()
        reg.inc("quota.units", 100, endpoint="search.list")
        reg.inc("quota.units_by_topic", 100, topic="higgs")
        family = reg.counters_with_prefix("quota.units")
        assert list(family) == ["quota.units{endpoint=search.list}"]

    def test_snapshot_is_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.inc("a", endpoint="x")
        reg.set_gauge("g", 3.5)
        reg.observe("h", 12.0)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"] == {"a{endpoint=x}": 1.0}


class TestTracer:
    def test_emit_sequences_and_fields(self):
        t = Tracer()
        at = datetime(2025, 2, 9, tzinfo=UTC)
        t.emit("api.call", at=at, endpoint="search.list", units=100)
        t.emit("api.retry", endpoint="search.list", attempt=1)
        assert len(t) == 2
        first = t.events[0].to_dict()
        assert first == {
            "seq": 0, "type": "api.call", "at": "2025-02-09T00:00:00Z",
            "endpoint": "search.list", "units": 100,
        }
        assert "at" not in t.events[1].to_dict()

    def test_strict_vocabulary(self):
        t = Tracer()
        with pytest.raises(ValueError, match="unknown event type"):
            t.emit("api.frobnicate")
        Tracer(strict=False).emit("api.frobnicate")

    def test_reserved_field_names_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            Tracer().emit("api.call", seq=99)

    def test_of_type(self):
        t = Tracer()
        t.emit("api.call", endpoint="a", units=1, latency_ms=1.0)
        t.emit("quota.spend", endpoint="a", day="d", units=1, used_on_day=1)
        t.emit("api.call", endpoint="b", units=1, latency_ms=1.0)
        assert [e.fields["endpoint"] for e in t.of_type("api.call")] == ["a", "b"]

    def test_export_roundtrip(self, tmp_path):
        t = Tracer()
        t.emit("snapshot.start", at=datetime(2025, 2, 9, tzinfo=UTC), index=0)
        t.emit("snapshot.end", index=0, units=5, calls=2, wall_s=0.1)
        path = tmp_path / "trace.jsonl"
        assert t.export(path) == 2
        events = load_trace(path)
        assert [e["type"] for e in events] == ["snapshot.start", "snapshot.end"]
        assert events[1]["units"] == 5

    def test_load_rejects_non_trace_jsonl(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "header"}\n')
        with pytest.raises(ValueError, match="not a trace"):
            load_trace(path)

    def test_vocabulary_covers_issue_events(self):
        for required in ("api.call", "api.retry", "api.error", "quota.spend",
                         "snapshot.start", "snapshot.end", "campaign.checkpoint"):
            assert required in EVENT_TYPES


class TestObserverProtocol:
    def test_null_observer_is_all_noops(self):
        obs = NullObserver()
        at = datetime(2025, 2, 9, tzinfo=UTC)
        obs.on_api_call("search.list", at, 100, 1.0)
        obs.on_api_retry("search.list", 1, RuntimeError("x"))
        obs.on_api_error("search.list", RuntimeError("x"))
        obs.on_search_query(1, 10)
        obs.on_quota_spend("search.list", "2025-02-09", 100, 100)
        obs.on_topic_start("higgs", at)
        obs.on_topic_end("higgs", at, 100, 10)
        obs.on_snapshot_start(0, at)
        obs.on_snapshot_end(0, at, 100, 1)
        obs.on_checkpoint("resume-spill", "x.spill", 1)

    def test_null_observer_is_the_base_class(self):
        assert NullObserver is Observer

    def test_campaign_observer_attributes_quota_to_topic(self):
        obs = CampaignObserver(wall_clock=lambda: 0.0)
        at = datetime(2025, 2, 9, tzinfo=UTC)
        obs.on_topic_start("higgs", at)
        obs.on_quota_spend("search.list", "2025-02-09", 100, 100)
        obs.on_topic_end("higgs", at, 100, 3)
        obs.on_quota_spend("videos.list", "2025-02-09", 1, 101)  # outside topic
        by_topic = obs.metrics.counters_with_prefix("quota.units_by_topic")
        assert by_topic == {"quota.units_by_topic{topic=higgs}": 100.0}
        spends = obs.tracer.of_type("quota.spend")
        assert spends[0].fields["topic"] == "higgs"
        assert "topic" not in spends[1].fields
        assert obs.total_quota_units == 101

    def test_campaign_observer_wall_clock_injectable(self):
        ticks = iter([10.0, 12.5])
        obs = CampaignObserver(wall_clock=lambda: next(ticks))
        at = datetime(2025, 2, 9, tzinfo=UTC)
        obs.on_snapshot_start(0, at)
        obs.on_snapshot_end(0, at, 100, 1)
        end = obs.tracer.of_type("snapshot.end")[0]
        assert end.fields["wall_s"] == pytest.approx(2.5)


class TestReport:
    def _synthetic_events(self):
        return [
            {"seq": 0, "type": "snapshot.start", "index": 0, "at": "2025-02-09T00:00:00Z"},
            {"seq": 1, "type": "topic.start", "topic": "higgs"},
            {"seq": 2, "type": "quota.spend", "endpoint": "search.list",
             "day": "2025-02-09", "units": 100, "used_on_day": 100, "topic": "higgs"},
            {"seq": 3, "type": "api.call", "endpoint": "search.list",
             "units": 100, "latency_ms": 120.0},
            {"seq": 4, "type": "search.query", "pages": 2, "results": 60},
            {"seq": 5, "type": "api.retry", "endpoint": "search.list",
             "attempt": 1, "error": "TransientServerError"},
            {"seq": 6, "type": "api.error", "endpoint": "videos.list",
             "error": "NotFoundError", "message": "gone"},
            {"seq": 7, "type": "topic.end", "topic": "higgs", "units": 100, "videos": 9},
            {"seq": 8, "type": "snapshot.end", "index": 0, "units": 100,
             "calls": 1, "wall_s": 0.25},
            {"seq": 9, "type": "campaign.checkpoint", "action": "resume-spill",
             "path": "c.spill", "snapshots": 1},
        ]

    def test_summarize(self):
        s = summarize_events(self._synthetic_events())
        assert s.total_calls == 1
        assert s.total_units == 100
        assert s.total_retries == 1
        assert s.total_errors == 1
        assert s.topic_units == {"higgs": 100}
        assert s.search_queries == 1 and s.max_page_depth == 2
        assert s.checkpoints == {"resume-spill": 1}
        assert len(s.snapshots) == 1 and s.snapshots[0].wall_s == 0.25
        assert s.days_used == {"2025-02-09": 100}

    def test_render_contains_all_sections(self):
        text = render_observability(self._synthetic_events())
        assert "Observability report" in text
        assert "Hottest endpoints" in text
        assert "Quota economy per topic" in text
        assert "Per-snapshot timings" in text
        assert "search.list" in text and "higgs" in text
        assert "| spill store resumes      | 1     |" in text

    def test_render_accepts_summary(self):
        s = summarize_events(self._synthetic_events())
        assert render_observability(s) == render_observability(
            self._synthetic_events()
        )

    def test_empty_trace_renders(self):
        text = render_observability([])
        assert "Observability report" in text
        assert "Quota economy" not in text
