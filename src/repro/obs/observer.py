"""The observer: the seam between the pipeline and the observability layer.

Every instrumented component (:class:`~repro.api.service.YouTubeService`,
:class:`~repro.api.client.YouTubeClient`, the quota ledger, the snapshot
collector, the campaign runner, the serve gateway, the orchestrator)
reports its interesting moments through one call::

    observer.emit("quota.spend", endpoint, day, units, used_on_day)

The values are the event's fields in the order
:data:`~repro.obs.tracer.EVENT_TYPES` names them, already final
(truncated, exception class names spelled out) except that measured
durations arrive unrounded: the tracer keeps them at
:data:`~repro.obs.tracer.PRECISION`.  ``at=`` carries the virtual time
for events that have one.  The base :class:`Observer`'s ``emit`` is a
no-op, so the default wiring costs one call and — crucially — cannot
perturb the simulator's determinism: emitters pass values that were
already computed, and never draw RNGs or advance clocks to feed an
event.  :data:`NullObserver` is the explicit name for that default.

:class:`CampaignObserver` records every event in a
:class:`~repro.obs.tracer.Tracer`, the run's one record, and attributes
quota spend to the topic currently being collected.

Attachment is one line at the top of the stack::

    obs = CampaignObserver()
    service = build_service(world, seed=7, observer=obs)
    client = YouTubeClient(service)            # inherits service.observer
    run_campaign(config, client)               # inherits client.observer
    obs.export_trace("trace.jsonl")
    print(obs.report())
"""

from __future__ import annotations

from datetime import datetime
from pathlib import Path

from repro.obs.tracer import EVENT_TYPES, Tracer

__all__ = ["Observer", "NullObserver", "CampaignObserver"]


class Observer:
    """No-op base: override :meth:`emit` to record events.

    An implementation must not mutate the values and must not raise on a
    known event — an observer is bookkeeping, never control flow.
    """

    def emit(self, type: str, *values, at: datetime | None = None) -> None:
        """One event of ``type``, its fields' ``values`` in schema order."""


#: The default observer: explicitly named so call sites read as intended.
NullObserver = Observer


class CampaignObserver(Observer):
    """Records every event in its :attr:`tracer`.

    Share the observer itself across components to share one trace.
    Inside a topic's sweep (between ``topic.start`` and ``topic.end``)
    each ``quota.spend`` also carries ``topic``, which is the observer's
    only state.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._topic: str | None = None

    def emit(self, type: str, *values, at: datetime | None = None) -> None:
        fields = dict(zip(EVENT_TYPES[type], values, strict=True))
        if type == "quota.spend":
            if self._topic is not None:
                fields["topic"] = self._topic
        elif type == "topic.start":
            self._topic = fields["topic"]
        elif type == "topic.end":
            self._topic = None
        self.tracer.emit(type, at, **fields)

    def export_trace(self, path: str | Path) -> int:
        """Write the trace as JSONL; returns the number of events."""
        return self.tracer.export(path)

    def report(self) -> str:
        """The per-campaign observability summary (see :mod:`repro.obs.report`)."""
        from repro.obs.report import render_observability

        return render_observability(self.tracer.iter_dicts())
