"""Retry policy: who gets retried, how long to wait, and when to give up.

The seed client retried exactly one exception type with a no-op backoff.
A 12-week campaign needs more nuance, and the real Data API exhibits more
failure shapes:

* 5xx (``backendError``) and ``rateLimitExceeded`` are worth retrying,
  with exponential backoff so a struggling backend is not hammered;
* ``badRequest``-family errors (including ``invalidPageToken``) must never
  be retried verbatim — the identical request will fail identically;
* ``quotaExceeded`` is not an error at all but a *scheduling event*: no
  amount of retrying conjures quota before the next quota day, so the
  policy classifies it as :data:`Action.SCHEDULE` and the campaign layer
  checkpoints and stops cleanly instead of looping.

Backoff is **deterministic**: jitter draws come from a
:class:`~repro.util.rng.SeedBank` stream, so two runs with the same seed
produce the same delay schedule, and tests can pin delays exactly.  Delays
are *computed* here but *spent* by whatever sleeper the caller injects —
the simulator's default sleeper is a no-op because its time is virtual;
nothing in this module ever blocks.

A :class:`RetryBudget` caps total retries across a whole campaign: a
flapping backend exhausts the budget and fails loudly with
:class:`RetryBudgetExceededError` instead of grinding forever.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable

from repro.api.errors import ApiError, QuotaExceededError
from repro.util.rng import SeedBank

__all__ = [
    "Action",
    "RetryBudget",
    "RetryBudgetExceededError",
    "RetryPolicy",
]


class Action(enum.Enum):
    """What the policy wants done with a failed call."""

    RETRY = "retry"  #: reissue the identical request after backing off
    FAIL = "fail"  #: surface immediately; retrying cannot help
    SCHEDULE = "schedule"  #: quota exhausted — checkpoint and wait for a new day


class RetryBudgetExceededError(Exception):
    """The per-campaign retry budget ran out; the backend is flapping.

    Carries the last underlying error as ``__cause__`` so operators see
    *why* retries were being spent, not just that they ran out.
    """


class RetryBudget:
    """A shared, mutable cap on total retries across one campaign.

    One budget instance is typically shared by every client in a run, so
    the cap is global: a backend that fails a little everywhere is just as
    detectable as one that fails a lot in one place.
    """

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("retry budget limit must be non-negative")
        self.limit = limit
        self.used = 0
        # spend() is check-then-increment, so it must be atomic if the
        # budget is shared across threads.  No in-repo caller does so
        # today: the orchestrator and the chaos runner each give one
        # campaign its own budget, driven from one thread.
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        """Retries still available."""
        return self.limit - self.used

    def spend(self) -> bool:
        """Consume one retry; returns False when the budget is exhausted."""
        with self._lock:
            if self.used >= self.limit:
                return False
            self.used += 1
            return True


class RetryPolicy:
    """Exponential backoff with deterministic jitter and per-class rules.

    Parameters
    ----------
    max_attempts:
        Total attempts per call (the first try plus retries); must be >= 1.
    base_delay_s, multiplier, max_delay_s:
        Backoff schedule: attempt *n*'s nominal delay is
        ``base_delay_s * multiplier**(n-1)``, capped at ``max_delay_s``.
    jitter:
        Fraction of each delay that is randomized downward ("equal jitter"
        shape): the delay is drawn uniformly from
        ``[d * (1 - jitter), d]``.  Zero disables jitter entirely.
    seed:
        Root for the jitter stream (a dedicated SeedBank fork), making the
        full delay schedule reproducible.
    budget:
        Optional shared :class:`RetryBudget`; ``None`` means unlimited.
    max_pagination_restarts:
        How many times a paginated loop may restart from page one after an
        ``invalidPageToken`` (the token series died server-side; the only
        safe recovery is a fresh tokenless request).
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 1.0,
        multiplier: float = 2.0,
        max_delay_s: float = 64.0,
        jitter: float = 0.5,
        seed: int = 0,
        budget: RetryBudget | None = None,
        max_pagination_restarts: int = 1,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if max_pagination_restarts < 0:
            raise ValueError("max_pagination_restarts must be non-negative")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.seed = seed
        self.budget = budget
        self.max_pagination_restarts = max_pagination_restarts
        self._rng = SeedBank(seed).generator("resilience/retry-jitter")
        # The jitter generator is stateful; the lock keeps a policy safe to
        # share across threads.  No in-repo caller does so today: each
        # client (one per orchestrator campaign) owns its policy.
        self._rng_lock = threading.Lock()

    # -- classification --------------------------------------------------------

    def classify(self, error: Exception) -> Action:
        """Map an exception onto the action the caller should take.

        Order matters: ``quotaExceeded`` subclasses the non-retriable 403
        family but is a scheduling event, so it is checked first.
        """
        if isinstance(error, QuotaExceededError):
            return Action.SCHEDULE
        if isinstance(error, ApiError) and error.retriable:
            return Action.RETRY
        return Action.FAIL

    # -- backoff ---------------------------------------------------------------

    def delay_s(self, attempt: int) -> float:
        """The backoff before retry ``attempt`` (1-based), jittered.

        Consumes one draw from the policy's jitter stream, so calling this
        is what advances the deterministic schedule.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        nominal = min(
            self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s
        )
        if self.jitter == 0.0 or nominal == 0.0:
            return nominal
        with self._rng_lock:
            draw = float(self._rng.random())
        return nominal * (1.0 - self.jitter * draw)

    # -- budget ----------------------------------------------------------------

    def spend_retry(self, endpoint: str, error: Exception) -> None:
        """Charge one retry against the budget (if any), failing loudly.

        Raises
        ------
        RetryBudgetExceededError
            When the campaign-wide budget is exhausted; chains ``error`` as
            the cause so the flapping failure is visible.
        """
        if self.budget is not None and not self.budget.spend():
            raise RetryBudgetExceededError(
                f"campaign retry budget of {self.budget.limit} exhausted at "
                f"{endpoint} (last error: {type(error).__name__}: {error})"
            ) from error

    def make_sleeper(self, sleep: Callable[[float], None]) -> Callable[[int], None]:
        """Bind a real sleeper (e.g. ``time.sleep``) to this schedule.

        Returns a callable taking the 1-based attempt number — the shape
        :class:`~repro.api.client.YouTubeClient` expects for ``backoff``.
        The simulator never needs this (its default backoff is a no-op);
        a live run against :class:`~repro.api.http_adapter.RealYouTubeService`
        passes ``policy.make_sleeper(time.sleep)``.
        """
        return lambda attempt: sleep(self.delay_s(attempt))
