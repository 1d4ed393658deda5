"""Resilience: retry policies, circuit breaking, checkpoints, and chaos.

A 12-week collection campaign meets every failure the Data API can serve:
transient 5xx bursts, ``rateLimitExceeded`` storms, daily quota cliffs,
page-token series dying mid-pagination, and truncated JSON bodies.  This
package makes the pipeline survive all of them *without changing the
data*: the simulator's determinism means retries, pagination restarts, and
mid-snapshot resumes must be byte-invisible in the persisted campaign —
and the chaos harness (``repro chaos``) proves that they are.

Modules:

* :mod:`~repro.resilience.policy` — retry classification, deterministic
  exponential backoff, campaign-wide retry budgets;
* :mod:`~repro.resilience.breaker` — per-endpoint circuit breaker wired
  into the observability layer;
* :mod:`~repro.resilience.checkpoint` — query-level (hour-bin) snapshot
  checkpointing via an append-only sidecar file inside the campaign's
  spill directory;
* :mod:`~repro.resilience.faults` — scripted fault plans and the named
  chaos scenarios;
* :mod:`~repro.resilience.chaos` — the harness that runs a scenario and
  asserts the invariants.

See ``docs/RESILIENCE.md`` for the full design.
"""

from repro.resilience.breaker import CircuitBreaker, CircuitOpenError, CircuitState
from repro.resilience.chaos import ChaosCheck, ChaosReport, run_scenario
from repro.resilience.checkpoint import PartialSnapshot, PartialSnapshotStore
from repro.resilience.faults import SCENARIOS, ChaosScenario, FaultPlan, FaultSpec
from repro.resilience.policy import (
    Action,
    RetryBudget,
    RetryBudgetExceededError,
    RetryPolicy,
)

__all__ = [
    "Action",
    "RetryBudget",
    "RetryBudgetExceededError",
    "RetryPolicy",
    "CircuitState",
    "CircuitOpenError",
    "CircuitBreaker",
    "FaultSpec",
    "FaultPlan",
    "ChaosScenario",
    "SCENARIOS",
    "PartialSnapshot",
    "PartialSnapshotStore",
    "ChaosCheck",
    "ChaosReport",
    "run_scenario",
]
