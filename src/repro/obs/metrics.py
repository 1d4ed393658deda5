"""Counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the observability layer (the
:mod:`repro.obs.tracer` event log is the narrative half).  It is
deliberately small and dependency-free: instruments are created lazily on
first touch, labels are plain keyword arguments, and a snapshot is an
ordinary JSON-serializable dict — so a metrics dump can ride in the same
JSONL trace file as the events it summarizes.

Design points:

* **Labels** are sorted into the series key, so ``inc("x", a=1, b=2)`` and
  ``inc("x", b=2, a=1)`` hit the same series.
* **Histograms** use fixed upper-bound buckets declared at registration
  (or a default set); observations above the last bound land in a
  ``+Inf`` overflow bucket.  Count/sum/min/max ride along so means are
  recoverable without the raw stream.
* Nothing here reads wall clocks or RNGs — recording a metric can never
  perturb the simulator's determinism.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "series_key"]

#: Default histogram bounds (wide enough for latencies in ms and page depths).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def series_key(name: str, labels: dict[str, object]) -> str:
    """Canonical series identity: ``name`` or ``name{k=v,...}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        return self.value


@dataclass
class Gauge:
    """A value that can move in either direction."""

    value: float = 0.0

    def set(self, value: float) -> float:
        self.value = value
        return self.value


@dataclass
class Histogram:
    """Fixed-bucket histogram with count/sum/min/max sidecars."""

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)  # last = overflow

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (bounds rendered with an ``+Inf`` overflow)."""
        return {
            "buckets": {
                **{str(b): c for b, c in zip(self.bounds, self.counts)},
                "+Inf": self.counts[-1],
            },
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Named, labeled instruments created lazily on first use.

    A name must keep one instrument kind for the registry's lifetime;
    re-using ``api.calls`` as both counter and gauge raises.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._histogram_bounds: dict[str, tuple[float, ...]] = {}
        # Instrument creation and the read-modify-write verbs are serialized
        # so threads sharing one observer (the serve gateway's HTTP executor
        # and campaign-job threads, the orchestrator's workers) can't lose
        # updates.
        self._lock = threading.RLock()

    # -- instrument access ----------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """The counter for (name, labels), created on first touch."""
        with self._lock:
            self._claim(name, "counter")
            key = series_key(name, labels)
            return self._counters.setdefault(key, Counter())

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for (name, labels), created on first touch."""
        with self._lock:
            self._claim(name, "gauge")
            key = series_key(name, labels)
            return self._gauges.setdefault(key, Gauge())

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram for (name, labels); bounds from :meth:`declare_histogram`."""
        with self._lock:
            self._claim(name, "histogram")
            key = series_key(name, labels)
            if key not in self._histograms:
                bounds = self._histogram_bounds.get(name, DEFAULT_BUCKETS)
                self._histograms[key] = Histogram(bounds=bounds)
            return self._histograms[key]

    def declare_histogram(self, name: str, bounds: tuple[float, ...]) -> None:
        """Fix a histogram family's bucket bounds before first observation."""
        with self._lock:
            self._claim(name, "histogram")
            self._histogram_bounds[name] = tuple(bounds)

    # -- convenience verbs -----------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels) -> float:
        """Increment a counter series."""
        with self._lock:
            return self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> float:
        """Set a gauge series."""
        with self._lock:
            return self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one histogram observation."""
        with self._lock:
            self.histogram(name, **labels).observe(value)

    # -- reading back ----------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        """A counter's current value (0.0 if the series never fired)."""
        series = self._counters.get(series_key(name, labels))
        return series.value if series else 0.0

    def counters_with_prefix(self, name: str) -> dict[str, float]:
        """All counter series of one family: full series key -> value."""
        return {
            key: c.value
            for key, c in self._counters.items()
            if key == name or key.startswith(name + "{")
        }

    def snapshot(self) -> dict:
        """Everything, as one JSON-serializable document (keys sorted)."""
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].to_dict() for k in sorted(self._histograms)
            },
        }

    # -- internals -------------------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        held = self._kinds.setdefault(name, kind)
        if held != kind:
            raise ValueError(f"metric {name!r} is already a {held}, not a {kind}")
