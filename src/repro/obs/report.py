"""Per-campaign observability summary: quota economy, retries, hot endpoints.

Works from the *trace*, not from live objects: the same renderer serves a
just-finished :class:`~repro.obs.observer.CampaignObserver` (via
``observer.report()``) and a JSONL trace file re-read days later (via
``python -m repro obs report trace.jsonl``).  That mirrors how the
repository separates collection from analysis — a trace is data, the
report is one view over it.

Sections, all rendered with :mod:`repro.util.tables`:

* totals — calls, quota units, retries, errors, snapshots, wall time;
* per-endpoint — call counts, units, retry/error rates, mean latency
  (the "hottest endpoints" table, sorted by units spent);
* quota economy per topic — units and share of total attributed to each
  topic's collection sweep;
* snapshots — virtual date, calls, units, and wall seconds per snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.util.tables import render_table

__all__ = ["ObsSummary", "summarize_events", "render_observability"]


@dataclass
class _EndpointStats:
    calls: int = 0
    units: int = 0
    retries: int = 0
    errors: int = 0
    latency_total_ms: float = 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_total_ms / self.calls if self.calls else 0.0


@dataclass
class _SnapshotStats:
    index: int
    at: str = ""
    calls: int = 0
    units: int = 0
    wall_s: float = 0.0


@dataclass
class ObsSummary:
    """Aggregates of one trace, ready for rendering or assertions."""

    n_events: int = 0
    endpoints: dict[str, _EndpointStats] = field(default_factory=dict)
    topic_units: dict[str, int] = field(default_factory=dict)
    snapshots: list[_SnapshotStats] = field(default_factory=list)
    checkpoints: dict[str, int] = field(default_factory=dict)
    search_queries: int = 0
    search_pages: int = 0
    max_page_depth: int = 0
    days_used: dict[str, int] = field(default_factory=dict)
    refund_units: int = 0
    pagination_restarts: int = 0
    #: (endpoint, old, new) for every circuit-breaker transition, in order.
    circuit_transitions: list[tuple[str, str, str]] = field(default_factory=list)
    degraded_events: dict[str, int] = field(default_factory=dict)
    #: flat ``world.build`` event dicts (videos/channels/threads/tokens/
    #: wall_s), in emission order.
    world_builds: list[dict] = field(default_factory=list)

    @property
    def total_calls(self) -> int:
        """Completed API calls across all endpoints."""
        return sum(s.calls for s in self.endpoints.values())

    @property
    def total_units(self) -> int:
        """Quota units spent, summed from ``quota.spend`` events.

        Matches :attr:`repro.api.quota.QuotaLedger.total_used` exactly when
        the observer saw the whole run — the acceptance invariant the
        integration tests pin.
        """
        return sum(s.units for s in self.endpoints.values())

    @property
    def total_retries(self) -> int:
        return sum(s.retries for s in self.endpoints.values())

    @property
    def total_errors(self) -> int:
        return sum(s.errors for s in self.endpoints.values())

    @property
    def total_wall_s(self) -> float:
        return sum(s.wall_s for s in self.snapshots)

    @property
    def net_units(self) -> int:
        """Spend minus refunds; reconciles with the ledger's ``total_used``."""
        return self.total_units - self.refund_units

    @property
    def total_degraded(self) -> int:
        return sum(self.degraded_events.values())


def summarize_events(events: Iterable[dict]) -> ObsSummary:
    """Fold a stream of flat event dicts into an :class:`ObsSummary`."""
    s = ObsSummary()
    open_snapshots: dict[int, _SnapshotStats] = {}
    for event in events:
        s.n_events += 1
        kind = event.get("type")
        if kind == "api.call":
            ep = s.endpoints.setdefault(event["endpoint"], _EndpointStats())
            ep.calls += 1
            ep.latency_total_ms += float(event.get("latency_ms", 0.0))
        elif kind == "api.retry":
            s.endpoints.setdefault(event["endpoint"], _EndpointStats()).retries += 1
        elif kind == "api.error":
            s.endpoints.setdefault(event["endpoint"], _EndpointStats()).errors += 1
        elif kind == "quota.spend":
            units = int(event["units"])
            s.endpoints.setdefault(event["endpoint"], _EndpointStats()).units += units
            if "topic" in event:
                s.topic_units[event["topic"]] = (
                    s.topic_units.get(event["topic"], 0) + units
                )
            day = event.get("day")
            if day is not None:
                s.days_used[day] = max(
                    s.days_used.get(day, 0), int(event.get("used_on_day", 0))
                )
        elif kind == "quota.refund":
            s.refund_units += int(event["units"])
        elif kind == "search.query":
            s.search_queries += 1
            pages = int(event.get("pages", 1))
            s.search_pages += pages
            s.max_page_depth = max(s.max_page_depth, pages)
        elif kind == "pagination.restart":
            s.pagination_restarts += 1
        elif kind == "circuit.transition":
            s.circuit_transitions.append(
                (event.get("endpoint", "?"), event.get("old", "?"),
                 event.get("new", "?"))
            )
        elif kind == "degraded":
            scope = event.get("scope", "?")
            s.degraded_events[scope] = s.degraded_events.get(scope, 0) + 1
        elif kind == "snapshot.start":
            index = int(event["index"])
            open_snapshots[index] = _SnapshotStats(
                index=index, at=event.get("at", "")
            )
        elif kind == "snapshot.end":
            index = int(event["index"])
            snap = open_snapshots.pop(index, None) or _SnapshotStats(
                index=index, at=event.get("at", "")
            )
            snap.calls = int(event.get("calls", 0))
            snap.units = int(event.get("units", 0))
            snap.wall_s = float(event.get("wall_s", 0.0))
            s.snapshots.append(snap)
        elif kind == "campaign.checkpoint":
            action = event.get("action", "?")
            s.checkpoints[action] = s.checkpoints.get(action, 0) + 1
        elif kind == "world.build":
            s.world_builds.append(
                {
                    "videos": int(event.get("videos", 0)),
                    "channels": int(event.get("channels", 0)),
                    "threads": int(event.get("threads", 0)),
                    "tokens": int(event.get("tokens", 0)),
                    "wall_s": float(event.get("wall_s", 0.0)),
                }
            )
    s.snapshots.sort(key=lambda snap: snap.index)
    return s


def render_observability(events: Iterable[dict] | ObsSummary) -> str:
    """Render the full observability report from a trace (or its summary)."""
    summary = (
        events if isinstance(events, ObsSummary) else summarize_events(events)
    )
    blocks = [_render_totals(summary), _render_endpoints(summary)]
    if summary.world_builds:
        blocks.append(_render_world_builds(summary))
    if summary.circuit_transitions or summary.degraded_events:
        blocks.append(_render_resilience(summary))
    if summary.topic_units:
        blocks.append(_render_topics(summary))
    if summary.snapshots:
        blocks.append(_render_snapshots(summary))
    return "\n\n".join(blocks)


def _render_totals(s: ObsSummary) -> str:
    rows = [
        ["events traced", s.n_events],
        ["API calls completed", s.total_calls],
        ["quota units spent", s.total_units],
        ["retries", s.total_retries],
        ["errors surfaced", s.total_errors],
        ["search queries (logical)", s.search_queries],
        ["pagination restarts", s.pagination_restarts],
        ["search pages fetched", s.search_pages],
        ["max page depth", s.max_page_depth],
        ["snapshots completed", len(s.snapshots)],
        ["spill store resumes", s.checkpoints.get("resume-spill", 0)],
        ["quota days touched", len(s.days_used)],
        ["wall time (s)", round(s.total_wall_s, 3)],
    ]
    if s.refund_units:
        rows.insert(3, ["quota units refunded", s.refund_units])
        rows.insert(4, ["quota units (net)", s.net_units])
    return render_table(["metric", "value"], rows, title="Observability report")


def _render_world_builds(s: ObsSummary) -> str:
    rows = [
        [b["videos"], b["channels"], b["threads"], b["tokens"],
         round(b["wall_s"], 3)]
        for b in s.world_builds
    ]
    return render_table(
        ["videos", "channels", "threads", "tokens", "wall s"],
        rows,
        title="World builds",
    )


def _render_resilience(s: ObsSummary) -> str:
    """Circuit-breaker activity and degraded work (only when any occurred)."""
    rows: list[list] = [
        [f"circuit {endpoint}", f"{old} -> {new}"]
        for endpoint, old, new in s.circuit_transitions
    ]
    for scope, count in sorted(s.degraded_events.items()):
        rows.append([f"degraded ({scope})", count])
    return render_table(
        ["event", "detail"], rows, title="Resilience events"
    )


def _render_endpoints(s: ObsSummary) -> str:
    rows = []
    ordered = sorted(
        s.endpoints.items(), key=lambda kv: (-kv[1].units, -kv[1].calls, kv[0])
    )
    for endpoint, ep in ordered:
        retry_rate = ep.retries / ep.calls if ep.calls else 0.0
        rows.append(
            [endpoint, ep.calls, ep.units, ep.retries, round(retry_rate, 4),
             ep.errors, round(ep.mean_latency_ms, 1)]
        )
    return render_table(
        ["endpoint", "calls", "units", "retries", "retry rate", "errors",
         "mean ms"],
        rows,
        title="Hottest endpoints (by quota units)",
    )


def _render_topics(s: ObsSummary) -> str:
    total = sum(s.topic_units.values())
    rows = []
    for topic, units in sorted(s.topic_units.items(), key=lambda kv: -kv[1]):
        share = units / total if total else 0.0
        rows.append([topic, units, f"{100 * share:.1f}%"])
    rows.append(["(all topics)", total, "100.0%"])
    return render_table(
        ["topic", "units", "share"], rows, title="Quota economy per topic"
    )


def _render_snapshots(s: ObsSummary) -> str:
    rows = [
        [snap.index, snap.at, snap.calls, snap.units, round(snap.wall_s, 3)]
        for snap in s.snapshots
    ]
    return render_table(
        ["snapshot", "virtual date", "calls", "units", "wall s"],
        rows,
        title="Per-snapshot timings",
    )
