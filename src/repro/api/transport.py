"""Request logging, latency modelling, and fault injection.

The transport layer sits underneath every endpoint call.  It gives the
repository three things a real measurement pipeline has to contend with:

* a complete request log (endpoint, virtual timestamp, quota units) for
  cost accounting and methodological bookkeeping — kept as four columns
  and read through :class:`RequestLog`, a read-only sequence of
  :class:`RequestRecord` values built on access, so a paper-scale
  campaign's 73k calls are four lists, not 73k objects the garbage
  collector walks;
* a latency model, so strategies can also be compared on wall-clock cost
  (simulated — nothing sleeps);
* optional transient fault injection to exercise client retry logic.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from repro.api.errors import TransientServerError
from repro.util.rng import SeedBank

__all__ = [
    "RequestRecord", "RequestLog", "Transport", "LatencyModel", "FaultInjector",
]


@dataclass(frozen=True)
class RequestRecord:
    """One API call, as the transport saw it."""

    sequence: int
    endpoint: str
    at: datetime
    units: int
    latency_ms: float


class LatencyModel:
    """Lognormal per-call latency (simulated milliseconds)."""

    def __init__(self, median_ms: float = 120.0, sigma: float = 0.35, seed: int = 0) -> None:
        if median_ms <= 0:
            raise ValueError("median_ms must be positive")
        self._median = median_ms
        self._sigma = sigma
        self._rng = SeedBank(seed).generator("transport/latency")

    def draw(self) -> float:
        """One latency sample in milliseconds."""
        return float(self._median * np.exp(self._sigma * self._rng.standard_normal()))

    def draw_many(self, n: int) -> np.ndarray:
        """``n`` latency samples in one vectorized draw.

        Bit-identical to ``n`` successive :meth:`draw` calls: numpy
        Generators fill arrays from the same bit stream the scalar path
        consumes, and the lognormal transform applies the same ufuncs
        elementwise.  The batched collection path relies on this so sweep
        request records match the per-call oracle byte for byte.
        """
        return self._median * np.exp(self._sigma * self._rng.standard_normal(n))


class FaultInjector:
    """Injects transient 500s with a fixed probability."""

    def __init__(self, probability: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError("probability must be in [0, 1)")
        self._probability = probability
        self._rng = SeedBank(seed).generator("transport/faults")
        self._lock = threading.Lock()

    @property
    def probability(self) -> float:
        """The configured fault probability (0 = faults disabled)."""
        return self._probability

    def maybe_fail(self, endpoint: str) -> None:
        """Raise ``TransientServerError`` with the configured probability."""
        if self._probability <= 0:
            return
        with self._lock:
            fail = self._rng.random() < self._probability
        if fail:
            raise TransientServerError(f"transient backend error on {endpoint}")


# numpy Generators are not thread-safe, so the observe/fail paths are
# serialized.  The one transport several threads reach is the serve
# gateway's warm service (HTTP executor threads), and SimulatorGateway
# already calls it under its backend lock, so no in-repo caller relies on
# these locks today; they keep a shared transport safe if that changes.
# Latency never feeds collected data, only the simulated wall clock.


class RequestLog(Sequence):
    """Read-only view of a transport's request log.

    Supports ``len``, indexing (negative indices too) and iteration;
    each item is a :class:`RequestRecord` built from the transport's
    columns on access.  A row is complete once its latency, the column
    appended last, is in place, so ``len`` reads that column and a
    reader never sees a half-appended row.
    """

    __slots__ = ("_transport",)

    def __init__(self, transport: "Transport") -> None:
        self._transport = transport

    def __len__(self) -> int:
        return len(self._transport._latencies)

    def __getitem__(self, index: int) -> RequestRecord:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("request log index out of range")
        t = self._transport
        return RequestRecord(
            index, t._endpoints[index], t._ats[index], t._units[index],
            t._latencies[index],
        )

    def __iter__(self):
        t = self._transport
        # zip stops at the latency column, so rows are always complete.
        rows = zip(t._endpoints, t._ats, t._units, t._latencies)
        for sequence, (endpoint, at, units, latency) in enumerate(rows):
            yield RequestRecord(sequence, endpoint, at, units, latency)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RequestLog, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


@dataclass
class Transport:
    """Collects request records and applies latency/fault models."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    faults: FaultInjector = field(default_factory=FaultInjector)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        # The request log, one column per RequestRecord field; the sequence
        # number is the row index.  Appends fill _latencies last.
        self._endpoints: list[str] = []
        self._ats: list[datetime] = []
        self._units: list[int] = []
        self._latencies: list[float] = []

    @property
    def records(self) -> RequestLog:
        """Every completed call, in order (a read-only view)."""
        return RequestLog(self)

    def observe(self, endpoint: str, at: datetime, units: int) -> RequestRecord:
        """Record one call (after fault injection has passed)."""
        with self._lock:
            sequence = len(self._latencies)
            latency = self.latency.draw()
            self._endpoints.append(endpoint)
            self._ats.append(at)
            self._units.append(units)
            self._latencies.append(latency)
        return RequestRecord(sequence, endpoint, at, units, latency)

    def observe_many(
        self, endpoint: str, at: datetime, units: int, count: int
    ) -> list[float]:
        """Record ``count`` identical calls under one lock acquisition.

        The batched sweep path knows its page count up front; appending
        the rows in bulk produces the same sequence numbers, latencies
        (see :meth:`LatencyModel.draw_many`), and timestamps as ``count``
        :meth:`observe` calls would on the serial path, where nothing can
        interleave between them.  Returns the calls' latencies, in order.
        """
        with self._lock:
            latencies = self.latency.draw_many(count).tolist()
            self._endpoints.extend([endpoint] * count)
            self._ats.extend([at] * count)
            self._units.extend([units] * count)
            self._latencies.extend(latencies)
        return latencies

    @property
    def total_calls(self) -> int:
        """Number of calls that completed."""
        return len(self._latencies)

    @property
    def total_latency_ms(self) -> float:
        """Sum of simulated latencies (sequential-execution wall clock)."""
        return sum(self._latencies)

    def calls_by_endpoint(self) -> dict[str, int]:
        """Histogram of completed calls per endpoint."""
        n = len(self._latencies)
        return dict(Counter(self._endpoints[:n]))
