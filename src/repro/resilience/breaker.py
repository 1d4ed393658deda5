"""Per-endpoint circuit breaker: stop burning attempts on a dead backend.

During a hard outage every retry is a doomed call; at 100 units per
``Search:list`` page the waste is also quota-shaped (against the real API,
failed requests still count).  The breaker watches consecutive failures
per endpoint and trips *open* at a threshold; open circuits reject calls
locally with :class:`CircuitOpenError` before they reach the transport.

States follow the classic closed → open → half-open machine:

* **closed** — normal operation; consecutive failures are counted,
  successes reset the count;
* **open** — calls are rejected without touching the backend;
* **half-open** — one probe call is allowed through; success closes the
  circuit, failure reopens it.

Recovery is double-keyed because the simulator's clock is virtual and does
not advance during a snapshot: the circuit moves to half-open either after
``cooldown_s`` seconds on the injected ``clock`` (a live run passes
``time.monotonic``) or after ``probe_after`` rejected calls, whichever
comes first.  With no clock injected only the rejection count applies.

Transitions are emitted through the standard
:class:`~repro.obs.observer.Observer` protocol (``circuit.transition``
trace events), so ``repro obs report`` shows when and where circuits
tripped.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.observer import NullObserver, Observer

__all__ = ["CircuitState", "CircuitOpenError", "CircuitBreaker"]


class CircuitState(enum.Enum):
    """The three positions of one endpoint's circuit."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitOpenError(Exception):
    """Raised instead of calling an endpoint whose circuit is open.

    Not an :class:`~repro.api.errors.ApiError`: the request never left the
    client, so no API-shaped envelope exists.  Collection code that
    tolerates degraded snapshots treats it like an exhausted retry.
    """

    def __init__(self, endpoint: str, failures: int) -> None:
        super().__init__(
            f"circuit for {endpoint} is open after {failures} consecutive "
            f"failures; rejecting the call locally"
        )
        self.endpoint = endpoint
        self.failures = failures


@dataclass
class _Circuit:
    """Mutable per-endpoint state."""

    state: CircuitState = CircuitState.CLOSED
    consecutive_failures: int = 0
    rejections_since_open: int = 0
    opened_at: float | None = None


class CircuitBreaker:
    """Tracks one circuit per endpoint and gates calls through them.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (per endpoint) that trip the circuit open.
    probe_after:
        Rejected calls after which an open circuit allows a half-open
        probe.  This is the virtual-time recovery path: the simulator's
        clock stands still inside a snapshot, so recovery must be keyed to
        traffic, not time.
    cooldown_s, clock:
        Wall-clock recovery: with a ``clock`` (monotonic seconds, e.g.
        ``time.monotonic``), an open circuit also half-opens once
        ``cooldown_s`` seconds have elapsed since it tripped.
    observer:
        Where transitions are reported, as ``circuit.transition`` events.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        probe_after: int = 10,
        cooldown_s: float | None = None,
        clock: Callable[[], float] | None = None,
        observer: Observer | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if probe_after < 1:
            raise ValueError("probe_after must be at least 1")
        if cooldown_s is not None and cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.probe_after = probe_after
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.observer = observer or NullObserver()
        self._circuits: dict[str, _Circuit] = {}
        #: Total calls rejected locally, per endpoint (quota/attempts saved).
        self.rejected: dict[str, int] = {}
        # State transitions are read-modify-write on _Circuit; one breaker
        # is shared by the orchestrator's worker threads and the serve
        # gateway's HTTP executor threads (``SimulatorGateway.breaker``).
        self._lock = threading.RLock()

    def state(self, endpoint: str) -> CircuitState:
        """The endpoint's current circuit state (CLOSED if never touched)."""
        with self._lock:
            return self._circuit(endpoint).state

    def _circuit(self, endpoint: str) -> _Circuit:
        return self._circuits.setdefault(endpoint, _Circuit())

    def _transition(self, endpoint: str, circuit: _Circuit, new: CircuitState) -> None:
        old = circuit.state
        if old is new:
            return
        circuit.state = new
        if new is CircuitState.OPEN:
            circuit.rejections_since_open = 0
            circuit.opened_at = self._clock() if self._clock is not None else None
        self.observer.emit("circuit.transition", endpoint, old.value, new.value)

    # -- the gate --------------------------------------------------------------

    def before_call(self, endpoint: str) -> None:
        """Admit or reject one call; raises :class:`CircuitOpenError` if open.

        An open circuit counts the rejection and checks both recovery
        conditions; when either fires, the circuit half-opens and the
        *current* call is admitted as the probe.
        """
        with self._lock:
            circuit = self._circuit(endpoint)
            if circuit.state is not CircuitState.OPEN:
                return
            circuit.rejections_since_open += 1
            cooled = (
                self.cooldown_s is not None
                and self._clock is not None
                and circuit.opened_at is not None
                and self._clock() - circuit.opened_at >= self.cooldown_s
            )
            if cooled or circuit.rejections_since_open >= self.probe_after:
                self._transition(endpoint, circuit, CircuitState.HALF_OPEN)
                return  # this call is the probe
            self.rejected[endpoint] = self.rejected.get(endpoint, 0) + 1
            raise CircuitOpenError(endpoint, circuit.consecutive_failures)

    def record_success(self, endpoint: str) -> None:
        """A call completed; a half-open probe success closes the circuit."""
        with self._lock:
            circuit = self._circuit(endpoint)
            circuit.consecutive_failures = 0
            if circuit.state is not CircuitState.CLOSED:
                self._transition(endpoint, circuit, CircuitState.CLOSED)

    def record_failure(self, endpoint: str) -> None:
        """A retriable call attempt failed; may trip the circuit open."""
        with self._lock:
            circuit = self._circuit(endpoint)
            circuit.consecutive_failures += 1
            if circuit.state is CircuitState.HALF_OPEN:
                self._transition(endpoint, circuit, CircuitState.OPEN)
            elif (
                circuit.state is CircuitState.CLOSED
                and circuit.consecutive_failures >= self.failure_threshold
            ):
                self._transition(endpoint, circuit, CircuitState.OPEN)

    @property
    def total_rejected(self) -> int:
        """Calls rejected locally across all endpoints."""
        return sum(self.rejected.values())
