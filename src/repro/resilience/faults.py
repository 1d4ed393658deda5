"""Scripted fault scenarios: every failure shape the real Data API exhibits.

The transport's original :class:`~repro.api.transport.FaultInjector` can
model exactly one thing — i.i.d. transient 500s.  Real collection
campaigns die in richer ways: correlated error *bursts*,
``rateLimitExceeded`` storms, mid-day quota exhaustion, truncated JSON
bodies, and page-token series that expire mid-pagination.  A
:class:`FaultPlan` scripts those shapes deterministically.

The plan is keyed to the **attempt counter** — every call attempt that
reaches the transport's fault gate advances one tick, including the
attempts the plan itself fails.  A burst of three 500s therefore consumes
three ticks while a retrying client works through it, exactly like a
backend that is down for "three requests' worth" of time.  Being
counter-keyed (not RNG-keyed) makes scenarios exactly reproducible and
lets tests pin which call fails.

``FaultPlan`` is duck-type-compatible with ``FaultInjector`` (the
transport only calls ``maybe_fail(endpoint)``), so it drops into
``Transport(faults=...)`` unchanged.

:data:`SCENARIOS` names the ready-made scenarios the ``repro chaos`` CLI
runs; see :mod:`repro.resilience.chaos` for the invariants each asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.errors import (
    ApiError,
    InvalidPageTokenError,
    MalformedResponseError,
    QuotaExceededError,
    RateLimitedError,
    TransientServerError,
)

__all__ = [
    "SimulatedCrashError",
    "FaultSpec",
    "FaultPlan",
    "ChaosScenario",
    "SCENARIOS",
    "crash_at_snapshot",
]


class SimulatedCrashError(Exception):
    """The process "dies" here: an injected crash, not an API failure.

    Deliberately *not* an :class:`~repro.api.errors.ApiError`: the retry
    policy classifies only API errors, so a simulated crash propagates
    straight through client, collector, and campaign exactly as an
    uncaught fatal would — nothing downstream handles it, nothing is
    retried, and whatever was journaled or spilled at that instant is
    what a restart finds.  Both ``repro chaos`` (the ``boundary-crash``
    scenario) and the orchestrator kill-resume tests use it to place a
    deterministic, in-process stand-in for ``kill -9`` at an exact attempt
    tick; ``tools/orchestrator_smoke.py`` complements it with the real
    signal.
    """


#: reason string -> exception factory, mirroring the API's error vocabulary
#: plus the ``processCrash`` kind (a fatal non-API failure, see
#: :class:`SimulatedCrashError`).
ERROR_FACTORIES: dict[str, type[Exception]] = {
    "backendError": TransientServerError,
    "rateLimitExceeded": RateLimitedError,
    "quotaExceeded": QuotaExceededError,
    "invalidPageToken": InvalidPageTokenError,
    "malformedResponse": MalformedResponseError,
    "processCrash": SimulatedCrashError,
}


def crash_at_snapshot(queries_per_snapshot: int, snapshot_index: int) -> FaultSpec:
    """A ``processCrash`` spec at an exact snapshot boundary.

    Tick ``queries_per_snapshot * snapshot_index`` is the *first* search
    attempt of that snapshot — i.e. the process dies right at the boundary,
    after snapshot ``snapshot_index - 1`` was spilled and its partial
    sidecar cleared.  Exact when every hour bin resolves in one page and
    the campaign skips the metadata sweep (the chaos mini-config and the
    orchestrator's config both do); with multi-page bins the crash still
    lands deterministically, just inside the snapshot.
    """
    return FaultSpec(
        start=queries_per_snapshot * snapshot_index, count=1, error="processCrash"
    )


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault window: ``count`` consecutive ticks of one error.

    ``endpoint`` restricts the window to one endpoint; attempts against
    other endpoints still advance the tick counter (the backend's clock
    does not care who is calling) but pass unharmed.
    """

    start: int
    count: int = 1
    error: str = "backendError"
    endpoint: str | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start tick must be non-negative")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.error not in ERROR_FACTORIES:
            raise ValueError(
                f"unknown error reason {self.error!r}; known: "
                f"{', '.join(sorted(ERROR_FACTORIES))}"
            )

    def matches(self, tick: int, endpoint: str) -> bool:
        """Whether this window fails the attempt at ``tick``."""
        if not self.start <= tick < self.start + self.count:
            return False
        return self.endpoint is None or self.endpoint == endpoint


class FaultPlan:
    """Deterministic, scripted drop-in for ``Transport.faults``.

    Every ``maybe_fail`` call advances one tick; the first matching
    :class:`FaultSpec` window raises its error.  ``injected`` logs what
    actually fired, so a chaos harness can assert the scenario was
    exercised rather than silently missed.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()) -> None:
        self.specs = tuple(specs)
        self._tick = 0
        #: (tick, endpoint, reason) for every fault actually raised.
        self.injected: list[tuple[int, str, str]] = []

    @property
    def tick(self) -> int:
        """Attempts seen so far (failed and passed)."""
        return self._tick

    def maybe_fail(self, endpoint: str) -> None:
        """Advance one tick; raise the scripted error if a window matches."""
        tick = self._tick
        self._tick += 1
        for spec in self.specs:
            if spec.matches(tick, endpoint):
                self.injected.append((tick, endpoint, spec.error))
                raise ERROR_FACTORIES[spec.error](
                    f"injected {spec.error} on {endpoint} (tick {tick})"
                )

    def reset(self) -> None:
        """Rewind the tick counter and the injection log (a fresh run)."""
        self._tick = 0
        self.injected.clear()


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault script plus the client posture it is meant to stress.

    ``expect_identical`` declares the scenario's headline invariant: the
    faulted campaign's persisted result must be byte-identical to an
    unfaulted run with the same seed (retries, restarts, and resumes are
    invisible to the data).  Scenarios that deliberately degrade
    (``tolerate_failures``) or abort (``expect_interruption``) assert
    different invariants — see :mod:`repro.resilience.chaos`.
    """

    name: str
    description: str
    specs: tuple[FaultSpec, ...]
    max_retries: int = 5
    retry_budget: int | None = None
    use_breaker: bool = False
    tolerate_failures: bool = False
    expect_identical: bool = True
    expect_interruption: bool = False
    #: The scenario kills the process (``processCrash``): the harness
    #: simulates a restart — fresh service, client, and fault plan — and
    #: resumes from the spill store + partial sidecar on disk.
    expect_crash: bool = False

    def plan(self) -> FaultPlan:
        """A fresh :class:`FaultPlan` for one run of this scenario."""
        return FaultPlan(self.specs)


def _scenarios() -> dict[str, ChaosScenario]:
    burst = ChaosScenario(
        name="burst-500s",
        description="two bursts of three consecutive backend 500s; retries "
        "with backoff must absorb both",
        specs=(
            FaultSpec(start=5, count=3, error="backendError"),
            FaultSpec(start=40, count=3, error="backendError"),
        ),
    )
    storm = ChaosScenario(
        name="ratelimit-storm",
        description="rateLimitExceeded storms (4 then 3 consecutive "
        "rejections); retriable, unlike daily quota exhaustion",
        specs=(
            FaultSpec(start=10, count=4, error="rateLimitExceeded"),
            FaultSpec(start=30, count=3, error="rateLimitExceeded"),
        ),
    )
    malformed = ChaosScenario(
        name="malformed-json",
        description="two truncated/garbled response bodies; wrapped as "
        "retriable MalformedResponseError",
        specs=(
            FaultSpec(start=7, count=1, error="malformedResponse"),
            FaultSpec(start=22, count=1, error="malformedResponse"),
        ),
    )
    bad_token = ChaosScenario(
        name="invalid-page-token",
        description="page-token series dies mid-pagination; the hour-bin "
        "query restarts from page one",
        specs=(
            FaultSpec(start=9, count=1, error="invalidPageToken",
                      endpoint="search.list"),
        ),
    )
    quota_cliff = ChaosScenario(
        name="quota-cliff",
        description="quota exhausted mid-snapshot; the spill store's "
        "partial sidecar keeps the completed hour bins, the campaign stops, "
        "and resumes without re-querying them",
        specs=(
            FaultSpec(start=25, count=1, error="quotaExceeded"),
        ),
        expect_interruption=True,
    )
    outage = ChaosScenario(
        name="hard-outage",
        description="a 40-attempt outage with small retries; the circuit "
        "breaker opens, hour bins degrade, collection survives",
        specs=(
            FaultSpec(start=10, count=40, error="backendError"),
        ),
        max_retries=2,
        use_breaker=True,
        tolerate_failures=True,
        expect_identical=False,
    )
    # The chaos mini-campaign is one topic with a 1-day window: 48 hour
    # bins (focal date ± 1 day) per snapshot, one page per bin, no
    # metadata sweep — so tick 48 is exactly the snapshot 0/1 boundary.
    boundary_crash = ChaosScenario(
        name="boundary-crash",
        description="the process dies at the snapshot 0/1 boundary (first "
        "attempt after snapshot 0 spilled); the restart resumes from the "
        "spill store and stays byte-identical",
        specs=(crash_at_snapshot(48, 1),),
        expect_crash=True,
    )
    midsnapshot_crash = ChaosScenario(
        name="midsnapshot-crash",
        description="the process dies 22 bins into snapshot 1; the restart "
        "replays the recorded bins from the spill store's partial.jsonl "
        "sidecar, re-issues only the missing ones, and stays "
        "byte-identical",
        specs=(FaultSpec(start=70, count=1, error="processCrash"),),
        expect_crash=True,
    )
    return {s.name: s for s in (
        burst, storm, malformed, bad_token, quota_cliff, outage,
        boundary_crash, midsnapshot_crash,
    )}


#: The ready-made scenario registry consumed by ``repro chaos``.
SCENARIOS: dict[str, ChaosScenario] = _scenarios()
