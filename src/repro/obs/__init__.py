"""Observability: one event model and its trace, for collection runs.

The paper's campaign is a 12-week, 16-snapshot, 4,032-queries-per-snapshot
operation — long enough that quota can burn unevenly, retries can mask
degradation, and a stalled snapshot can go unnoticed.  This package is the
substrate that makes those failure modes visible:

* :mod:`repro.obs.tracer` — the event schema (:data:`EVENT_TYPES`) and the
  typed event log (:class:`Tracer`) with JSONL export;
* :mod:`repro.obs.observer` — the one call instrumented components make,
  ``observer.emit(type, *values, at=None)`` (:class:`Observer` /
  :data:`NullObserver`), and :class:`CampaignObserver`, which records
  every event in a trace;
* :mod:`repro.obs.report` — the per-campaign summary renderer behind
  ``python -m repro obs report``, which reads only the trace.

The default everywhere is :data:`NullObserver`: one no-op call per event,
zero effect on determinism.  See ``docs/OBSERVABILITY.md`` for the event
schema, and ``docs/ARCHITECTURE.md`` for where the events are emitted.
"""

from repro.obs.observer import CampaignObserver, NullObserver, Observer
from repro.obs.report import ObsSummary, render_observability, summarize_events
from repro.obs.tracer import EVENT_TYPES, TraceEvent, Tracer, load_trace

__all__ = [
    "Observer",
    "NullObserver",
    "CampaignObserver",
    "Tracer",
    "TraceEvent",
    "EVENT_TYPES",
    "load_trace",
    "ObsSummary",
    "summarize_events",
    "render_observability",
]
