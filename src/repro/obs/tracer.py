"""Structured trace/event log with JSONL export.

A :class:`Tracer` accumulates typed :class:`TraceEvent` records — the
narrative of a collection run: every API call, retry, quota charge,
snapshot boundary, and checkpoint.  Events carry the *virtual* timestamp
(the simulator's request clock) so a trace lines up with the campaign
schedule, plus whatever typed fields the emitter attaches.

The canonical event vocabulary lives in :data:`EVENT_TYPES`; the full
field-by-field schema is documented in ``docs/OBSERVABILITY.md``.  Export
goes through :mod:`repro.util.jsonio`, so traces share the repository's
JSONL conventions (sorted keys, ``.gz`` support) and can be re-read with
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

__all__ = ["EVENT_TYPES", "TraceEvent", "Tracer", "load_trace"]

#: The canonical event vocabulary (see docs/OBSERVABILITY.md for schemas).
EVENT_TYPES = (
    "api.call",
    "api.retry",
    "api.error",
    "quota.spend",
    "quota.refund",
    "search.query",
    "collect.sweep",
    "pagination.restart",
    "circuit.transition",
    "degraded",
    "topic.start",
    "topic.end",
    "snapshot.start",
    "snapshot.end",
    "campaign.checkpoint",
    "index.build",
    "index.append",
    "spill.write",
    "world.build",
    "serve.request",
    "serve.key",
    "serve.campaign",
    "orch.transition",
    "orch.admission",
    "orch.journal",
)


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

    ``strict`` (the default) rejects event types outside
    :data:`EVENT_TYPES`, which keeps the trace schema honest; pass
    ``strict=False`` to experiment with ad-hoc events.
    """

    def __init__(self, strict: bool = True) -> None:
        self._strict = strict
        self.events: list[TraceEvent] = []
        # seq assignment reads len(events) before appending; serialized
        # because one tracer is shared by the serve gateway's HTTP executor
        # and campaign-job threads and the orchestrator's worker threads
        # (``repro serve`` / ``repro orchestrate`` attach one observer).
        self._lock = threading.Lock()

    def emit(self, type: str, at: datetime | None = None, **fields) -> TraceEvent:
        """Append one event; reserved keys ``seq``/``type``/``at`` are rejected."""
        if self._strict and type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {type!r}; known: {', '.join(EVENT_TYPES)}"
            )
        for reserved in ("seq", "type", "at"):
            if reserved in fields:
                raise ValueError(f"field name {reserved!r} is reserved")
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
