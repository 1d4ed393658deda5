"""Per-layer metrics and the time accounting of one traced iteration."""

from __future__ import annotations

from spans import layer_self_times, layer_totals, self_times

#: Harness spans around whole workload phases.
ROOTS = ("setup", "campaign", "analysis", "orchestrate", "reload")

#: Per-layer metric -> the span name whose summed self time it reports.
SELF_TIME = {
    "world.build_s": "world.build",
    "sampling.churn_s": "sampling.churn",
    "sampling.sweep_s": "sampling.sweep",
    "sampling.execute_s": "sampling.execute",
    "api.search_sweep_s": "api.search_sweep",
    "api.metadata_s": "api.metadata",
    "api.comments_s": "api.comments",
    "collector.self_s": "collector",
    "datasets.save_s": "datasets.save",
    "datasets.load_s": "datasets.load",
    "index.build_s": "index.build",
    "index.append_s": "index.append",
    "report.render_s": "report.render",
    "stats.fit_s": "stats.fit",
    "spill.append_s": "spill.append",
    "spill.read_s": "spill.read",
    "orchestrator.journal_append_s": "orchestrator.journal_append",
    "orchestrator.compact_s": "orchestrator.compact",
    "orchestrator.record_s": "orchestrator.record",
    "serve.gateway_s": "serve.gateway",
    "serve.backend_s": "serve.backend",
    "runtime.gc_s": "runtime.gc",
}

#: Per-layer metric -> the counter the wrappers' probes keep.
COUNTS = {
    "sampling.churn_calls": "sampling.churn_calls",
    "api.search_calls": "api.search_calls",
    "api.quota_units": "api.quota_units",
    "api.videos_calls": "api.videos_calls",
    "api.channels_calls": "api.channels_calls",
    "api.comment_calls": "api.comment_calls",
    "datasets.bytes": "datasets.bytes",
    "index.appends": "index.appends",
    "spill.bytes": "spill.bytes",
    "orchestrator.journal_appends": "orchestrator.journal_appends",
    "orchestrator.compacts": "orchestrator.compacts",
    "runtime.gc_collections": "runtime.gc_collections",
}

UNITS = {"_s": "s", "_ms": "ms", "_calls": "count", "_units": "units",
         "bytes": "bytes", "appends": "count", "compacts": "count",
         "collections": "count",
         "write_amp": "ratio", "hit_ratio": "ratio", "_mb": "MB"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def per_layer(trace: dict, iteration: dict) -> dict[str, float]:
    """Every per-layer metric of one traced iteration (0 where idle)."""
    spans, counts = trace["spans"], trace["counts"]
    own = layer_self_times(spans)
    metrics = {name: own.get(span, 0.0) for name, span in SELF_TIME.items()}
    metrics.update({name: counts.get(key, 0) for name, key in COUNTS.items()})
    appended = counts.get("orchestrator.journal_bytes", 0)
    metrics["orchestrator.write_amp"] = (
        counts.get("orchestrator.compact_bytes", 0) / appended if appended else 0.0
    )
    cache = iteration.get("cache", {})
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    coalesced = cache.get("coalesced", 0)
    lookups = hits + misses + coalesced
    metrics.update({
        "serve.front_s": (
            iteration["client_s"] - layer_totals(spans, "serve.gateway")
            if "client_s" in iteration else 0.0
        ),
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.coalesced": coalesced,
        "serve.hit_ratio": (hits + coalesced) / lookups if lookups else 0.0,
        "serve.late_p99_ms": iteration.get("late_p99_ms", 0.0),
    })
    return metrics


def accounting(trace: dict, iteration: dict) -> list[tuple[str, float, float]]:
    """Per root name: (root, traced thread-seconds, summed layer self time).

    A span on another thread (the orchestrator's workers) counts toward
    the root running when it started, and the root's traced time is its
    wall time times the threads that ran spans under it, so the layers'
    self time plus the remainder (idle and unwrapped code) adds up to it.
    For ``served`` the root is the client's time on the wire, and
    ``serve.front`` is by definition the part the gateway spans miss.
    """
    spans = trace["spans"]
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def top(span):
        while span[4] is not None:
            span = by_id[span[4]]
        return span

    heads = {s[0]: top(s) for s in spans}
    if "client_s" in iteration:
        inside = sum(
            own[s[0]] for s in spans if heads[s[0]][1] == "serve.gateway"
        )
        front = iteration["client_s"] - layer_totals(spans, "serve.gateway")
        return [("requests", iteration["client_s"], inside + front)]
    totals: dict[str, list[float]] = {}
    for root in (s for s in spans if s[1] in ROOTS):
        members = [
            s for s in spans
            if s[1] not in ROOTS and (
                heads[s[0]] is root
                or (heads[s[0]][1] not in ROOTS
                    and root[2] <= heads[s[0]][2] < root[3])
            )
        ]
        threads = len({s[5] for s in members} | {root[5]})
        row = totals.setdefault(root[1], [0.0, 0.0])
        row[0] += (root[3] - root[2]) * threads
        row[1] += sum(own[s[0]] for s in members)
    return [(name, traced, inside) for name, (traced, inside) in totals.items()]
