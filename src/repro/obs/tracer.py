"""Structured trace/event log with JSONL export.

A :class:`Tracer` accumulates typed :class:`TraceEvent` records — the
narrative of a collection run: every API call, retry, quota charge,
snapshot boundary, and checkpoint.  Events carry the *virtual* timestamp
(the simulator's request clock) so a trace lines up with the campaign
schedule, plus the fields their type declares; measured durations are
kept at :data:`PRECISION`.

:data:`EVENT_TYPES` is the one event schema: it names every type and
its fields, in the order emitters pass them to
:meth:`repro.obs.observer.Observer.emit`; ``docs/OBSERVABILITY.md``
documents each field, and a test keeps the two in step.  Export goes
through :mod:`repro.util.jsonio`, so traces share the repository's JSONL
conventions (sorted keys, ``.gz`` support) and can be re-read with
:func:`repro.util.jsonio.read_jsonl` or rendered with
``python -m repro obs report trace.jsonl``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterator

from repro.util.jsonio import read_jsonl, write_jsonl
from repro.util.timeutil import format_rfc3339

__all__ = ["EVENT_TYPES", "PRECISION", "TraceEvent", "Tracer", "load_trace"]

#: The event schema: each type's field names, in the order emitters pass
#: their values (see docs/OBSERVABILITY.md for what each field means).
#: ``quota.spend`` may also carry ``topic``: the observer adds it inside a
#: topic's sweep.
EVENT_TYPES: dict[str, tuple[str, ...]] = {
    "api.call": ("endpoint", "units", "latency_ms"),
    "api.retry": ("endpoint", "attempt", "error"),
    "api.error": ("endpoint", "error", "message"),
    "quota.spend": ("endpoint", "day", "units", "used_on_day"),
    "quota.refund": ("endpoint", "day", "units"),
    "search.query": ("pages", "results"),
    "collect.sweep": ("topic", "bins", "calls", "units", "videos"),
    "pagination.restart": ("endpoint", "restart", "error"),
    "circuit.transition": ("endpoint", "old", "new"),
    "degraded": ("scope", "detail"),
    "topic.start": ("topic",),
    "topic.end": ("topic", "units", "videos"),
    "snapshot.start": ("index",),
    "snapshot.end": ("index", "units", "calls", "wall_s", "virtual_s"),
    "campaign.checkpoint": ("action", "path", "snapshots"),
    "index.build": ("topics", "videos", "collections", "wall_s"),
    "index.append": ("collections", "new_videos", "wall_s"),
    "spill.write": (
        "directory", "index", "topics", "records", "data_bytes", "wall_s",
    ),
    "world.build": ("videos", "channels", "threads", "tokens", "wall_s"),
    "serve.request": ("route", "key", "status", "wall_ms", "outcome"),
    "serve.key": ("action", "key"),
    "serve.campaign": ("job", "key", "status"),
    "orch.transition": ("campaign", "old", "new", "detail"),
    "orch.admission": ("decision", "reason", "queued", "running"),
    "orch.journal": ("action", "records"),
}

#: Decimal places a trace keeps of each measured duration.  Emitters pass
#: the raw measurement and :meth:`Tracer.emit` rounds it, so an event that
#: nothing records never pays for ``round()``, which costs several times
#: the null observer's whole call; a paper campaign emits some 80,000
#: ``api.call`` events.
PRECISION = {"latency_ms": 3, "wall_ms": 3, "wall_s": 6}


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: a type, a sequence number, and typed fields."""

    seq: int
    type: str
    at: datetime | None = None
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON form: ``{"seq": ..., "type": ..., "at": ..., **fields}``."""
        out: dict = {"seq": self.seq, "type": self.type}
        if self.at is not None:
            out["at"] = format_rfc3339(self.at)
        out.update(self.fields)
        return out


class Tracer:
    """Collects :class:`TraceEvent` records in emission order.

    Event types outside :data:`EVENT_TYPES` are rejected, which keeps the
    trace schema honest.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        # seq assignment reads len(events) before appending; serialized
        # because one observer may be shared across threads: the serve
        # gateway's HTTP executor and campaign jobs, the orchestrator's
        # workers.
        self._lock = threading.Lock()

    def emit(self, type: str, at: datetime | None = None, **fields) -> TraceEvent:
        """Append one event; reserved keys ``seq``/``type``/``at`` are rejected."""
        if type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type!r}; known: {', '.join(EVENT_TYPES)}"
            )
        for reserved in ("seq", "type", "at"):
            if reserved in fields:
                raise ValueError(f"field name {reserved!r} is reserved")
        for name, places in PRECISION.items():
            if name in fields:
                fields[name] = round(fields[name], places)
        with self._lock:
            # Direct __dict__ fill instead of the frozen-dataclass __init__
            # (four object.__setattr__ calls): a paper campaign emits 150k+
            # events, all on hot collection paths.  Attribute values,
            # equality, and to_dict are identical either way.
            event = TraceEvent.__new__(TraceEvent)
            event.__dict__.update(
                seq=len(self.events), type=type, at=at, fields=fields
            )
            self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, type: str) -> list[TraceEvent]:
        """All events of one type, in emission order."""
        return [e for e in self.events if e.type == type]

    def iter_dicts(self) -> Iterator[dict]:
        """The trace as flat dicts (the JSONL line format)."""
        for event in self.events:
            yield event.to_dict()

    def export(self, path: str | Path) -> int:
        """Write the trace as JSONL; returns the number of events written."""
        return write_jsonl(path, self.iter_dicts())


def load_trace(path: str | Path) -> list[dict]:
    """Read an exported trace back as flat event dicts, sorted by ``seq``."""
    events = list(read_jsonl(path))
    for event in events:
        if "type" not in event or "seq" not in event:
            raise ValueError(f"{path}: not a trace file (missing type/seq fields)")
    return sorted(events, key=lambda e: e["seq"])
