"""Request logging, latency modelling, and fault injection.

The transport layer sits underneath every endpoint call.  It gives the
repository three things a real measurement pipeline has to contend with:

* a complete request log (endpoint, virtual timestamp, quota units) for
  cost accounting and methodological bookkeeping;
* a latency model, so strategies can also be compared on wall-clock cost
  (simulated — nothing sleeps);
* optional transient fault injection to exercise client retry logic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from repro.api.errors import TransientServerError
from repro.util.rng import SeedBank

__all__ = ["RequestRecord", "Transport", "LatencyModel", "FaultInjector"]


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


@dataclass
class Transport:
    """Collects request records and applies latency/fault models."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    faults: FaultInjector = field(default_factory=FaultInjector)
    records: list[RequestRecord] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def observe(self, endpoint: str, at: datetime, units: int) -> RequestRecord:
        """Record one call (after fault injection has passed)."""
        with self._lock:
            record = RequestRecord(
                sequence=len(self.records),
                endpoint=endpoint,
                at=at,
                units=units,
                latency_ms=self.latency.draw(),
            )
            self.records.append(record)
            return record

    def observe_many(
        self, endpoint: str, at: datetime, units: int, count: int
    ) -> list[RequestRecord]:
        """Record ``count`` identical calls under one lock acquisition.

        The batched sweep path knows its page count up front; appending
        the records in bulk produces the same sequence numbers, latencies
        (see :meth:`LatencyModel.draw_many`), and timestamps as ``count``
        :meth:`observe` calls would on the serial path, where nothing can
        interleave between them.
        """
        with self._lock:
            # tolist() yields Python floats directly, skipping one
            # np.float64 box + float() call per record.
            latencies = self.latency.draw_many(count).tolist()
            base = len(self.records)
            # Bulk allocation bypasses the frozen-dataclass __init__ (five
            # object.__setattr__ calls per record, ~2x the cost of filling
            # __dict__ directly); field values, equality, hash, and repr
            # are exactly what the constructor produces.
            new_record = RequestRecord.__new__
            new: list[RequestRecord] = []
            append = new.append
            for i, latency in enumerate(latencies):
                record = new_record(RequestRecord)
                record.__dict__.update(
                    sequence=base + i,
                    endpoint=endpoint,
                    at=at,
                    units=units,
                    latency_ms=latency,
                )
                append(record)
            self.records.extend(new)
            return new

    @property
    def total_calls(self) -> int:
        """Number of calls that completed."""
        return len(self.records)

    @property
    def total_latency_ms(self) -> float:
        """Sum of simulated latencies (sequential-execution wall clock)."""
        return sum(r.latency_ms for r in self.records)

    def calls_by_endpoint(self) -> dict[str, int]:
        """Histogram of completed calls per endpoint."""
        out: dict[str, int] = {}
        for record in self.records:
            out[record.endpoint] = out.get(record.endpoint, 0) + 1
        return out
