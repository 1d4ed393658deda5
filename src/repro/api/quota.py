"""Quota accounting.

The Data API charges every call against a per-project daily quota:

* ``Search:list`` costs 100 units — the paper stresses how expensive this
  makes time-split collection (4,032 searches/snapshot = 403,200 units);
* ID-based list endpoints cost 1 unit;
* a new client gets 10,000 units/day; the researcher program grants more.

The ledger buckets usage by the *virtual* day and raises
``QuotaExceededError`` exactly when a charge would cross the limit, so
collection strategies can be compared on real token economics.

An optional observer (see :mod:`repro.obs.observer`) hears every accepted
charge as a ``quota.spend`` event; rejected charges are not reported
because they were never billed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.api.errors import QuotaExceededError

__all__ = ["QuotaPolicy", "QuotaLedger", "UNIT_COSTS"]

#: Per-endpoint unit costs (matching the official pricing table).
UNIT_COSTS = {
    "search.list": 100,
    "videos.list": 1,
    "channels.list": 1,
    "playlistItems.list": 1,
    "commentThreads.list": 1,
    "comments.list": 1,
    "videoCategories.list": 1,
}


@dataclass(frozen=True)
class QuotaPolicy:
    """Daily quota configuration."""

    daily_limit: int = 10_000
    researcher_program: bool = False
    researcher_limit: int = 1_000_000

    def __post_init__(self) -> None:
        if self.daily_limit <= 0 or self.researcher_limit <= 0:
            raise ValueError("quota limits must be positive")

    @property
    def effective_limit(self) -> int:
        """The limit in force given the researcher-program flag."""
        return self.researcher_limit if self.researcher_program else self.daily_limit


@dataclass
class QuotaLedger:
    """Tracks unit consumption per virtual day."""

    policy: QuotaPolicy = field(default_factory=QuotaPolicy)
    #: Where charges are reported (``repro.obs.Observer``); ``None`` means silent.
    observer: object | None = field(default=None, repr=False, compare=False)
    _usage: dict[str, int] = field(default_factory=dict)
    _total: int = 0
    # Charges/refunds are check-then-mutate, and a serve tenant's ledger
    # (``SimulatorGateway.ledger_for``) is charged and refunded by
    # concurrent HTTP executor threads while campaign-job threads absorb
    # into it, so they must serialize or two charges could both pass the
    # limit check.  Observer callbacks fire inside the lock so the
    # reported running totals stay monotonic.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def cost_of(self, endpoint: str) -> int:
        """Unit cost of an endpoint; unknown endpoints cost 1."""
        return UNIT_COSTS.get(endpoint, 1)

    def charge(self, endpoint: str, day: str) -> int:
        """Charge one call on ``day``; returns the day's new usage.

        Raises
        ------
        QuotaExceededError
            If the charge would exceed the daily limit.  The failed call is
            *not* charged (matching the real API, which rejects before
            executing).
        """
        cost = self.cost_of(endpoint)
        with self._lock:
            used = self._usage.get(day, 0)
            limit = self.policy.effective_limit
            if used + cost > limit:
                raise QuotaExceededError(
                    f"daily quota of {limit} units exceeded for {day} "
                    f"(used {used}, {endpoint} costs {cost})"
                )
            self._usage[day] = used + cost
            self._total += cost
            if self.observer is not None:
                self.observer.emit(
                    "quota.spend", endpoint, day, cost, self._usage[day]
                )
            return self._usage[day]

    def charge_many(
        self,
        endpoint: str,
        day: str,
        calls: int,
        after_each=None,
    ) -> int:
        """Charge ``calls`` identical calls on ``day`` as one transaction.

        The batched collection path bills a whole sweep's pages through a
        single lock acquisition instead of one per page.  Accounting is
        call-by-call and therefore *identical* to ``calls`` sequential
        :meth:`charge` invocations: each call is limit-checked before it
        is billed, ``quota.spend`` is emitted per call with the running
        total, and the charge that would cross the limit raises the same
        ``QuotaExceededError`` message — leaving the prior calls billed,
        exactly as a per-call loop would.

        ``after_each``, when given, is invoked once after each accepted
        charge (still inside the lock): the service layer uses it to emit
        the matching ``api.call`` so traces interleave quota.spend and
        api.call events exactly as the per-call path does.

        Returns the day's usage after the last accepted charge.
        """
        if calls < 0:
            raise ValueError("calls must be non-negative")
        cost = self.cost_of(endpoint)
        with self._lock:
            limit = self.policy.effective_limit
            for _ in range(calls):
                used = self._usage.get(day, 0)
                if used + cost > limit:
                    raise QuotaExceededError(
                        f"daily quota of {limit} units exceeded for {day} "
                        f"(used {used}, {endpoint} costs {cost})"
                    )
                self._usage[day] = used + cost
                self._total += cost
                if self.observer is not None:
                    self.observer.emit(
                        "quota.spend", endpoint, day, cost, self._usage[day]
                    )
                if after_each is not None:
                    after_each()
            return self._usage.get(day, 0)

    def refund(self, endpoint: str, day: str) -> int:
        """Reverse one call's charge on ``day``; returns the day's new usage.

        Used by the live adapter when a call fails *after* its local
        pre-charge (network error, truncated body): the retry will charge
        again, and without the refund the ledger would double-bill a call
        that completed exactly once.  The simulator never needs this — its
        fault gate fires before billing.  Refunding below zero is a
        bookkeeping bug and raises.
        """
        cost = self.cost_of(endpoint)
        with self._lock:
            used = self._usage.get(day, 0)
            if used < cost or self._total < cost:
                raise ValueError(
                    f"cannot refund {cost} units for {endpoint} on {day}: only "
                    f"{used} recorded"
                )
            self._usage[day] = used - cost
            self._total -= cost
            if self.observer is not None:
                self.observer.emit("quota.refund", endpoint, day, cost)
            return self._usage[day]

    def absorb(self, usage: dict[str, int], endpoint: str = "search.list") -> int:
        """Fold another ledger's per-day spend into this ledger.

        A serve campaign job bills an isolated sub-ledger and the gateway
        absorbs its usage into the tenant's ledger when the job ends; the
        orchestrator absorbs a resumed campaign's journaled spend into the
        fresh service's ledger.  Unlike :meth:`charge`, the spend is
        recorded *before* the limit check — it was already spent, and
        reconciliation must not hide real consumption — so after a raising
        absorb the ledger shows the actual (over-limit) usage.  Raises
        ``QuotaExceededError`` naming the first (sorted) day whose combined
        usage crossed the limit.  Returns the units absorbed.
        """
        with self._lock:
            exceeded: tuple[str, int] | None = None
            absorbed = 0
            limit = self.policy.effective_limit
            for day in sorted(usage):
                units = int(usage[day])
                if units < 0:
                    raise ValueError(f"cannot absorb {units} units for {day}")
                if units == 0:
                    continue
                used = self._usage.get(day, 0) + units
                self._usage[day] = used
                self._total += units
                absorbed += units
                if self.observer is not None:
                    self.observer.emit("quota.spend", endpoint, day, units, used)
                if used > limit and exceeded is None:
                    exceeded = (day, used)
            if exceeded is not None:
                day, used = exceeded
                raise QuotaExceededError(
                    f"daily quota of {limit} units exceeded for {day} "
                    f"(used {used} after absorbing worker spend)"
                )
            return absorbed

    def used_on(self, day: str) -> int:
        """Units consumed on a given day."""
        return self._usage.get(day, 0)

    def usage_by_day(self) -> dict[str, int]:
        """A snapshot copy of per-day usage (day -> units), sorted by day.

        The serve layer's quota-report route and campaign-job absorb both
        need the whole ledger at once; handing out a copy keeps the
        internal dict lock-protected.
        """
        with self._lock:
            return {day: self._usage[day] for day in sorted(self._usage)}

    def remaining_on(self, day: str) -> int:
        """Units still available on a given day."""
        return self.policy.effective_limit - self.used_on(day)

    @property
    def total_used(self) -> int:
        """Units consumed over the ledger's lifetime."""
        return self._total

    def reset(self) -> None:
        """Clear all usage (a fresh project)."""
        with self._lock:
            self._usage.clear()
            self._total = 0
