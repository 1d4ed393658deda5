"""Batched collection: whole-topic sweep plans over the vectorized engine.

The paper's time-split design issues one ``Search:list`` call per hour bin
— 672 per topic per snapshot — and after the PR 3/5/8 fast paths the
*selection* work per bin is already two binary searches.  What remains is
pure per-call toll: fault gate, quota lock, latency draw, record append,
pagination, envelope assembly, ``fields`` projection.  The batch engine
collapses a topic's whole sweep into

* one :meth:`~repro.sampling.engine.SearchBehaviorEngine.execute_sweep`
  pass (a single ``searchsorted`` over the merged publish-epoch array),
* one :meth:`~repro.api.service.YouTubeService.begin_sweep` transaction
  (bulk request records + ``QuotaLedger.charge_many`` billing), and
* direct :class:`~repro.core.datasets.TopicSnapshot` assembly from the
  per-bin ID slices — no envelope dicts on the hot path.

The per-call path stays byte-for-byte intact as the oracle, and the
collector falls back to it automatically whenever per-call semantics are
observable.  The fallback matrix (also in ``docs/PERFORMANCE.md``):

=====================================  =======================================
Condition                              Why batch would diverge
=====================================  =======================================
``engine="per-call"``                  Explicit opt-out (chaos/reference runs)
``tolerate_failures=True``             Degradation is decided per bin
resumed bins in a partial checkpoint   Only the *remaining* bins may bill
active fault plan / injector           Faults fire per call, before billing
circuit breaker not CLOSED             Probe/trip decisions are per call
sweep exceeds the day's remaining      Per-call path bills page by page up to
quota (``SweepQuotaShortfall``)        the exact crossing call
=====================================  =======================================

Every row falls back *before* anything is billed, so a fallback run is
indistinguishable from a campaign that never had a batch engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.client import YouTubeClient
from repro.api.errors import SweepQuotaShortfall
from repro.api.search import SweepBin
from repro.resilience.breaker import CircuitState

__all__ = [
    "ENGINES",
    "SweepEligibility",
    "transport_fault_free",
    "sweep_eligibility",
    "run_topic_sweep",
]

#: Collection engines (see ``SnapshotCollector``'s ``engine`` parameter).
ENGINES = ("batch", "per-call")


@dataclass(frozen=True)
class SweepEligibility:
    """Whether a topic may take the batch path, and why not if not."""

    eligible: bool
    reason: str


def transport_fault_free(faults: object) -> bool:
    """Whether the transport's fault gate is provably inert.

    Recognizes the two in-repo shapes: a
    :class:`~repro.api.transport.FaultInjector` with zero probability, and
    a :class:`~repro.resilience.faults.FaultPlan` with no specs.  A plan
    with specs is never eligible — even an exhausted one keeps advancing
    its attempt counter per call, which the batch path would not tick.
    Unknown duck-typed injectors are conservatively treated as armed.
    """
    probability = getattr(faults, "probability", None)
    if probability is not None:
        return probability <= 0
    specs = getattr(faults, "specs", None)
    if specs is not None:
        return len(specs) == 0
    return False


def sweep_eligibility(
    client: YouTubeClient,
    *,
    engine: str,
    tolerate_failures: bool,
    resumed_bins: bool,
) -> SweepEligibility:
    """Evaluate the fallback matrix for one topic (see the module docstring).

    Pure and cheap — a handful of attribute reads — so the collector calls
    it per topic per snapshot without caching.
    """
    if engine != "batch":
        return SweepEligibility(False, "engine=per-call")
    if tolerate_failures:
        return SweepEligibility(False, "tolerate_failures")
    if resumed_bins:
        return SweepEligibility(False, "partial-resume")
    if not transport_fault_free(client.service.transport.faults):
        return SweepEligibility(False, "fault plan armed")
    breaker = client.circuit_breaker
    if breaker is not None and breaker.state("search.list") is not CircuitState.CLOSED:
        return SweepEligibility(False, "circuit not closed")
    return SweepEligibility(True, "")


def run_topic_sweep(
    client: YouTubeClient,
    query: str,
    bounds: list[tuple[str, str]],
) -> list[SweepBin] | None:
    """Execute one topic's full hour-bin sweep as a single batched plan.

    Parameters mirror the collector's per-bin query exactly (50 results
    per page, ``order="date"``, videos only).  Returns ``None`` when the
    sweep does not fit in the day's remaining quota — nothing was billed,
    and the caller replays the topic through the per-call path so partial
    billing and the mid-topic ``QuotaExceededError`` land exactly where
    an unbatched run would put them.
    """
    try:
        return client.search_sweep(
            q=query,
            bounds=bounds,
            maxResults=50,
            order="date",
            safeSearch="none",
            type="video",
        )
    except SweepQuotaShortfall:
        return None
