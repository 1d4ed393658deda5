"""Unit tests for the observability primitives (tracer, observer, report)."""

from __future__ import annotations

import ast
from datetime import datetime
from pathlib import Path

import pytest

from repro.obs import (
    EVENT_TYPES,
    CampaignObserver,
    NullObserver,
    Observer,
    Tracer,
    load_trace,
    render_observability,
    summarize_events,
)
from repro.util.timeutil import UTC


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
        assert len(t) == 0

    def test_measured_durations_are_rounded(self):
        t = Tracer()
        t.emit("api.call", endpoint="e", units=1, latency_ms=12.3456789)
        t.emit("snapshot.end", index=0, units=1, calls=1,
               wall_s=0.123456789, virtual_s=0.123456789)
        t.emit("serve.request", route="r", key="k", status=200,
               wall_ms=1.23456, outcome="hit")
        assert t.events[0].fields["latency_ms"] == 12.346
        assert t.events[1].fields["wall_s"] == 0.123457
        assert t.events[1].fields["virtual_s"] == 0.123456789
        assert t.events[2].fields["wall_ms"] == 1.235

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


def _emit_calls() -> list[tuple[str, str, ast.Call]]:
    """Every ``<x>.emit("<type>", ...)`` call in the package's source."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                where = f"{path.relative_to(src)}:{node.lineno}"
                calls.append((where, node.args[0].value, node))
    return calls


class TestEmitters:
    """The null observer checks nothing, so check every call site here."""

    def test_every_emit_call_matches_the_schema(self):
        calls = _emit_calls()
        assert len(calls) >= len(EVENT_TYPES)
        for where, event_type, call in calls:
            assert event_type in EVENT_TYPES, where
            assert not any(isinstance(a, ast.Starred) for a in call.args), where
            assert len(call.args) - 1 == len(EVENT_TYPES[event_type]), where
            assert [k.arg for k in call.keywords] in ([], ["at"]), where

    def test_every_event_type_has_an_emitter(self):
        emitted = {event_type for _, event_type, _ in _emit_calls()}
        assert emitted == set(EVENT_TYPES)


class TestObserverProtocol:
    def test_null_observer_is_all_noops(self):
        obs = NullObserver()
        at = datetime(2025, 2, 9, tzinfo=UTC)
        assert obs.emit("api.call", "search.list", 100, 1.0, at=at) is None
        assert obs.emit("api.retry", "search.list", 1, "RuntimeError") is None
        assert obs.emit("api.error", "search.list", "RuntimeError", "x") is None
        assert obs.emit("search.query", 1, 10) is None
        assert obs.emit("quota.spend", "search.list", "2025-02-09", 100, 100) is None
        assert obs.emit("topic.start", "higgs", at=at) is None
        assert obs.emit("topic.end", "higgs", 100, 10, at=at) is None
        assert obs.emit("snapshot.start", 0, at=at) is None
        assert obs.emit("snapshot.end", 0, 100, 1, 0.5, 0.0, at=at) is None
        assert obs.emit("campaign.checkpoint", "resume-spill", "x.spill", 1) is None
        assert vars(obs) == {}

    def test_null_observer_is_the_base_class(self):
        assert NullObserver is Observer

    def test_campaign_observer_attributes_quota_to_topic(self):
        obs = CampaignObserver()
        at = datetime(2025, 2, 9, tzinfo=UTC)
        obs.emit("topic.start", "higgs", at=at)
        obs.emit("quota.spend", "search.list", "2025-02-09", 100, 100)
        obs.emit("topic.end", "higgs", 100, 3, at=at)
        obs.emit("quota.spend", "videos.list", "2025-02-09", 1, 101)  # outside topic
        summary = summarize_events(obs.tracer.iter_dicts())
        assert summary.topic_units == {"higgs": 100}
        spends = obs.tracer.of_type("quota.spend")
        assert spends[0].fields["topic"] == "higgs"
        assert "topic" not in spends[1].fields
        assert summary.total_units == 101

    def test_campaign_observer_names_values_by_schema(self):
        obs = CampaignObserver()
        at = datetime(2025, 2, 9, tzinfo=UTC)
        obs.emit("api.call", "search.list", 100, 12.5, at=at)
        (event,) = obs.tracer.events
        assert event.at == at
        assert event.fields == {
            "endpoint": "search.list", "units": 100, "latency_ms": 12.5,
        }
        assert tuple(event.fields) == EVENT_TYPES["api.call"]

    def test_campaign_observer_rejects_off_schema_events(self):
        obs = CampaignObserver()
        with pytest.raises(ValueError):
            obs.emit("search.query", 1)  # one value short
        with pytest.raises(ValueError):
            obs.emit("search.query", 1, 10, 3)  # one value too many
        with pytest.raises(KeyError):
            obs.emit("api.frobnicate")
        assert len(obs.tracer) == 0


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
