"""The orchestrator's state model: campaigns, transitions, and the reducer.

Every fact the daemon must not lose — which campaigns exist, what state
each is in, which hour-bin queries have been issued (and therefore billed),
and what was refunded — lives in :class:`OrchestratorState`, and that state
is *only* ever produced by folding journal records through
:meth:`OrchestratorState.apply`.  The daemon never mutates it directly: it
appends a record to the :class:`~repro.orchestrator.journal.Journal` and
applies the same record to its in-memory state, so recovery (replaying the
journal into a fresh reducer) reconstructs exactly what the live process
knew at its last fsync.

The campaign lifecycle::

    submitted -> admitted -> running -> completed
                    ^          |  \\-> degraded -.      (quota exhausted)
                    |          |-> paused      -|-> admitted   (resume)
                    |          |                |
                    '----------+----------------'
         any non-terminal state ---------------------> cancelled / failed

``running`` campaigns found in a recovered journal were killed mid-flight;
recovery re-admits them (their journaled bins make the re-run re-issue
only what is missing).

Quota accounting is **per hour-bin**: each ``bin`` record carries the
units its queries cost and the virtual day they were billed on, so a
tenant's spend is an exact fold over the journal — a bin is either
journaled (it will never be re-queried, so it is billed exactly once) or
it is not (it will be re-queried and billed then).  ``refund`` records
subtract the in-flight spend of cancelled campaigns, mirroring the
gateway's failed-work-is-refunded rule.

Only the in-flight snapshot's bins are ever read back (a resume replays
them, a cancel refunds them); a finished snapshot's data lives in the
campaign result.  So once a snapshot is done — its ``snapshot`` record, or
a later ``partial-begin``, lands — its bins are folded into per-day
:attr:`CampaignState.billed` totals, and the state, and every compaction
of it, holds one snapshot's bins per campaign, not the whole campaign's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SUBMITTED", "ADMITTED", "RUNNING", "PAUSED", "DEGRADED",
    "COMPLETED", "FAILED", "CANCELLED",
    "TERMINAL_STATES", "VALID_TRANSITIONS",
    "CampaignState", "OrchestratorState",
]

SUBMITTED = "submitted"
ADMITTED = "admitted"
RUNNING = "running"
PAUSED = "paused"
DEGRADED = "degraded"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a campaign never leaves.
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})

#: old state -> states the daemon may move it to.  The reducer itself is
#: deliberately lenient (the journal is the truth, even if a future daemon
#: version journals a transition this table does not know); the *daemon*
#: validates against this table before journaling.
VALID_TRANSITIONS: dict[str, frozenset[str]] = {
    SUBMITTED: frozenset({ADMITTED, CANCELLED, FAILED}),
    ADMITTED: frozenset({RUNNING, CANCELLED, FAILED}),
    RUNNING: frozenset({PAUSED, DEGRADED, COMPLETED, CANCELLED, FAILED,
                        ADMITTED}),
    PAUSED: frozenset({ADMITTED, CANCELLED, FAILED}),
    DEGRADED: frozenset({ADMITTED, CANCELLED, FAILED}),
    COMPLETED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


@dataclass
class CampaignState:
    """Everything the journal knows about one campaign."""

    campaign_id: str
    key_id: str
    collections: int
    interval_days: int
    priority: int = 0
    state: str = SUBMITTED
    detail: str = ""
    #: Snapshots known complete (journaled ``snapshot`` records, or implied
    #: by a later ``partial-begin``).
    snapshots_done: int = 0
    #: The snapshot currently being collected, or ``None`` between them.
    partial_index: int | None = None
    #: Virtual collection time of the in-flight snapshot (RFC 3339).
    partial_collected_at: str | None = None
    #: (snapshot, topic, hour) -> {"ids", "pool", "units", "day"} — the
    #: authoritative record of every issued (and billed) hour-bin query of
    #: the snapshots not yet done.
    bins: dict[tuple[int, str, int], dict] = field(default_factory=dict)
    #: Virtual day -> units billed by the bins of finished snapshots
    #: (folded out of :attr:`bins` by :meth:`fold_finished`).
    billed: dict[str, int] = field(default_factory=dict)
    #: Refund records: [{"day": units, ...}, ...] for cancelled in-flight work.
    refunds: list[dict[str, int]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def fold_finished(self) -> None:
        """Fold the bins of finished snapshots into :attr:`billed`."""
        for key in [key for key in self.bins if key[0] < self.snapshots_done]:
            entry = self.bins.pop(key)
            self.billed[entry["day"]] = (
                self.billed.get(entry["day"], 0) + entry["units"]
            )

    def usage_by_day(self) -> dict[str, int]:
        """Gross billed units per virtual day (before refunds)."""
        out = dict(self.billed)
        for entry in self.bins.values():
            day = entry["day"]
            out[day] = out.get(day, 0) + int(entry["units"])
        return out

    def refunds_by_day(self) -> dict[str, int]:
        """Refunded units per virtual day."""
        out: dict[str, int] = {}
        for refund in self.refunds:
            for day, units in refund.items():
                out[day] = out.get(day, 0) + int(units)
        return out

    def net_usage_by_day(self) -> dict[str, int]:
        """Billed minus refunded units per virtual day (may drop to zero)."""
        usage = self.usage_by_day()
        for day, units in self.refunds_by_day().items():
            remaining = usage.get(day, 0) - units
            if remaining > 0:
                usage[day] = remaining
            else:
                usage.pop(day, None)
        return usage

    @property
    def net_units(self) -> int:
        return sum(self.net_usage_by_day().values())

    def inflight_bins(self) -> dict[tuple[int, str, int], dict]:
        """Bins of the in-flight snapshot (issued but not yet persisted)."""
        if self.partial_index is None or self.partial_index < self.snapshots_done:
            return {}
        return {
            key: entry for key, entry in self.bins.items()
            if key[0] == self.partial_index
        }

    def to_status_dict(self) -> dict:
        """The public status payload served by ``/v1/orchestrator``."""
        return {
            "campaignId": self.campaign_id,
            "keyId": self.key_id,
            "state": self.state,
            "detail": self.detail,
            "collections": self.collections,
            "intervalDays": self.interval_days,
            "priority": self.priority,
            "snapshotsDone": self.snapshots_done,
            "quotaUnits": self.net_units,
        }

    # -- compaction ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "key_id": self.key_id,
            "collections": self.collections,
            "interval_days": self.interval_days,
            "priority": self.priority,
            "state": self.state,
            "detail": self.detail,
            "snapshots_done": self.snapshots_done,
            "partial_index": self.partial_index,
            "partial_collected_at": self.partial_collected_at,
            "billed": dict(self.billed),
            "bins": [
                {"snapshot": s, "topic": t, "hour": h, **entry}
                for (s, t, h), entry in sorted(self.bins.items())
            ],
            "refunds": self.refunds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignState":
        """Load a compacted campaign; older snapshots kept finished bins,
        which are folded here."""
        state = cls(
            campaign_id=str(data["campaign_id"]),
            key_id=str(data["key_id"]),
            collections=int(data["collections"]),
            interval_days=int(data["interval_days"]),
            priority=int(data.get("priority", 0)),
            state=str(data["state"]),
            detail=str(data.get("detail", "")),
            snapshots_done=int(data.get("snapshots_done", 0)),
            partial_index=data.get("partial_index"),
            partial_collected_at=data.get("partial_collected_at"),
            refunds=[dict(r) for r in data.get("refunds", [])],
            billed={
                str(day): int(units)
                for day, units in data.get("billed", {}).items()
            },
        )
        for bin_entry in data.get("bins", ()):
            key = (
                int(bin_entry["snapshot"]),
                str(bin_entry["topic"]),
                int(bin_entry["hour"]),
            )
            state.bins[key] = {
                "ids": list(bin_entry["ids"]),
                "pool": int(bin_entry["pool"]),
                "units": int(bin_entry["units"]),
                "day": str(bin_entry["day"]),
            }
        state.fold_finished()
        return state


class OrchestratorState:
    """The reducer: ``state = fold(apply, journal records)``.

    Records carry a monotonically increasing ``seq`` stamped by the
    journal; :meth:`apply` skips any record at or below :attr:`last_seq`,
    which makes replay idempotent — the window where a compaction snapshot
    was written but the journal not yet truncated replays harmlessly.
    """

    def __init__(self) -> None:
        self.campaigns: dict[str, CampaignState] = {}
        self.last_seq = 0

    def apply(self, record: dict) -> None:
        """Fold one journal record into the state (idempotent by ``seq``)."""
        seq = int(record.get("seq", 0))
        if seq <= self.last_seq:
            return
        self.last_seq = seq
        kind = record["kind"]
        if kind == "submit":
            cid = record["campaign"]
            self.campaigns[cid] = CampaignState(
                campaign_id=cid,
                key_id=record["key"],
                collections=int(record["collections"]),
                interval_days=int(record["interval_days"]),
                priority=int(record.get("priority", 0)),
            )
            return
        campaign = self.campaigns.get(record.get("campaign", ""))
        if campaign is None:
            return  # a record for a campaign compacted away or unknown
        if kind == "transition":
            campaign.state = record["to"]
            campaign.detail = str(record.get("detail", ""))
        elif kind == "partial-begin":
            campaign.partial_index = int(record["snapshot"])
            campaign.partial_collected_at = record.get("collected_at")
            # Starting snapshot k implies snapshots 0..k-1 are persisted.
            campaign.snapshots_done = max(
                campaign.snapshots_done, int(record["snapshot"])
            )
            campaign.fold_finished()
        elif kind == "bin":
            key = (
                int(record["snapshot"]), str(record["topic"]),
                int(record["hour"]),
            )
            campaign.bins[key] = {
                "ids": list(record["ids"]),
                "pool": int(record["pool"]),
                "units": int(record["units"]),
                "day": str(record["day"]),
            }
        elif kind == "snapshot":
            campaign.snapshots_done = max(
                campaign.snapshots_done, int(record["snapshot"]) + 1
            )
            campaign.fold_finished()
        elif kind == "refund":
            campaign.refunds.append(
                {str(d): int(u) for d, u in record["units_by_day"].items()}
            )
        # Unknown kinds are ignored: the journal outlives daemon versions.

    # -- queries ---------------------------------------------------------------

    def usage_for_key(self, key_id: str) -> dict[str, int]:
        """A tenant's exact net spend per virtual day, folded from billing."""
        out: dict[str, int] = {}
        for campaign in self.campaigns.values():
            if campaign.key_id != key_id:
                continue
            for day, units in campaign.net_usage_by_day().items():
                out[day] = out.get(day, 0) + units
        return {day: units for day, units in out.items() if units}

    def active_for_key(self, key_id: str) -> int:
        """Non-terminal campaigns a tenant currently has in the system."""
        return sum(
            1 for c in self.campaigns.values()
            if c.key_id == key_id and not c.terminal
        )

    def next_campaign_number(self) -> int:
        """The next free numeric suffix for a ``c%04d`` campaign id."""
        highest = 0
        for cid in self.campaigns:
            digits = cid.lstrip("c")
            if digits.isdigit():
                highest = max(highest, int(digits))
        return highest + 1

    # -- compaction ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "last_seq": self.last_seq,
            "campaigns": [
                c.to_dict() for _, c in sorted(self.campaigns.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OrchestratorState":
        state = cls()
        state.last_seq = int(data.get("last_seq", 0))
        for entry in data.get("campaigns", ()):
            campaign = CampaignState.from_dict(entry)
            state.campaigns[campaign.campaign_id] = campaign
        return state
