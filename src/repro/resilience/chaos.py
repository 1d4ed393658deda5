"""The chaos harness behind ``repro chaos``: prove the invariants hold.

Each run executes the same miniature campaign twice over one deterministic
world — once clean, once under a scripted
:class:`~repro.resilience.faults.FaultPlan` — and asserts the resilience
layer's headline invariants:

* **faults actually fired** — a scenario that never injects proves nothing;
* **quota reconciles** — the trace's summed ``quota.spend`` (minus
  refunds) equals the ledger's ``total_used``;
* **no double-billing** — every completed call is billed exactly once:
  ``quota.spend`` events == completed transport calls == ``api.call``
  events.  Failed attempts are never billed (the simulator's fault gate
  fires before its quota charge), so retries cannot inflate the bill;
* **byte-identical results** — for scenarios the retry layer should fully
  absorb, the faulted campaign's spill store serializes to the clean
  run's saved JSONL byte for byte, *and* it completed the same number of
  API calls: retries, pagination restarts, and mid-snapshot resumes are
  invisible to the data;
* **interruption & resume** — the quota-cliff scenario aborts mid-snapshot
  (a scheduling event), then a second ``run_campaign`` over the same
  spill directory resumes from its ``partial.jsonl`` sidecar, re-issues
  only the missing hour bins, and still matches the clean bytes;
* **graceful degradation** — the hard-outage scenario must trip the
  circuit breaker, mark the skipped hour bins on the spilled snapshots,
  and finish anyway.

The faulted campaign always runs over a spill directory, the campaign's
one durable store, so the crash scenarios resume exactly as a restarted
``repro campaign --spill`` would.  The mini-campaign uses the smallest
paper topic with a 1-day window (48 hour bins per snapshot) and no
metadata sweep, so a scenario runs in well under a second while still
exercising pagination, the spill store with its sidecar, and the full
observer stack.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.api.errors import QuotaExceededError
from repro.api.quota import QuotaPolicy
from repro.obs.observer import CampaignObserver
from repro.obs.report import summarize_events
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import SCENARIOS, ChaosScenario, SimulatedCrashError
from repro.resilience.policy import RetryBudget, RetryPolicy
from repro.util.tables import render_table

__all__ = ["ChaosCheck", "ChaosReport", "run_scenario"]


@dataclass(frozen=True)
class ChaosCheck:
    """One asserted invariant and what the run actually showed."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport:
    """The outcome of one scenario run, renderable and assertable."""

    scenario: str
    description: str
    checks: list[ChaosCheck]
    faults_injected: int
    retries: int
    quota_units: int

    @property
    def passed(self) -> bool:
        """Whether every invariant held."""
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        """A verdict table for the CLI."""
        rows = [
            [check.name, "pass" if check.passed else "FAIL", check.detail]
            for check in self.checks
        ]
        rows.append(["(faults injected)", self.faults_injected, ""])
        rows.append(["(retries spent)", self.retries, ""])
        rows.append(["(quota units)", self.quota_units, ""])
        verdict = "PASSED" if self.passed else "FAILED"
        return render_table(
            ["invariant", "result", "detail"],
            rows,
            title=f"chaos {self.scenario}: {verdict}",
        )


def _chaos_config(scale: float, collections: int):
    """A one-topic, 48-bin campaign config: fast but structurally complete."""
    from repro.core.experiments import paper_campaign_config
    from repro.world.corpus import scale_topic
    from repro.world.topics import paper_topics

    smallest = min(paper_topics(), key=lambda spec: spec.n_videos)
    spec = dataclasses.replace(scale_topic(smallest, scale), window_days=1)
    config = paper_campaign_config(
        topics=(spec,), collect_metadata=False, with_comments=False
    )
    return dataclasses.replace(
        config, n_scheduled=collections, skipped_indices=frozenset()
    )


def _build(config, seed: int, world=None, observer=None):
    """A pristine (world, service, ledger) stack for one campaign run."""
    from repro.api.service import build_service
    from repro.world.corpus import build_world

    if world is None:
        world = build_world(config.topics, seed=seed, with_comments=False)
    service = build_service(
        world, seed=seed, specs=config.topics,
        quota_policy=QuotaPolicy(researcher_program=True),
        observer=observer,
    )
    return world, service


def run_scenario(
    scenario: ChaosScenario | str,
    workdir: str | Path,
    seed: int = 7,
    scale: float = 0.05,
    collections: int = 2,
    trace_path: str | Path | None = None,
) -> ChaosReport:
    """Run one scenario end to end and assert its invariants.

    ``workdir`` receives the clean result (``clean.jsonl``) and the
    faulted campaign's spill directory (``faulted.spill/``, with its
    transient ``partial.jsonl`` sidecar); pass a temp directory from the
    CLI.
    """
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise ValueError(
                f"unknown scenario {scenario!r}; known: "
                f"{', '.join(sorted(SCENARIOS))}"
            ) from None
    from repro.api.client import YouTubeClient
    from repro.core.campaign import run_campaign
    from repro.core.spill import SpillStore

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = _chaos_config(scale, collections)

    # -- the control: the same campaign with no faults ----------------------
    world, clean_service = _build(config, seed)
    clean_result = run_campaign(config, YouTubeClient(clean_service))
    clean_path = workdir / "clean.jsonl"
    clean_result.save(clean_path)
    clean_calls = clean_service.transport.total_calls

    # -- the experiment: same seed, scripted faults -------------------------
    observer = CampaignObserver()
    plan = scenario.plan()
    _world, service = _build(config, seed, world=world, observer=observer)
    service.transport.faults = plan
    policy = RetryPolicy(
        max_attempts=scenario.max_retries + 1,
        seed=seed,
        budget=(
            RetryBudget(scenario.retry_budget)
            if scenario.retry_budget is not None
            else None
        ),
    )
    breaker = (
        CircuitBreaker(failure_threshold=3, probe_after=8, observer=observer)
        if scenario.use_breaker
        else None
    )
    client = YouTubeClient(
        service, observer=observer, retry_policy=policy, circuit_breaker=breaker
    )
    spill = workdir / "faulted.spill"
    interrupted = False
    crashed = False
    pre_crash_units = 0
    pre_crash_calls = 0
    try:
        run_campaign(
            config, client, spill=spill,
            tolerate_failures=scenario.tolerate_failures,
        )
    except QuotaExceededError:
        interrupted = True
        # The scheduling event: the operator waits for a new quota day,
        # then reruns the identical command; the spill store and its
        # partial sidecar make the rerun re-issue only what is missing.
        run_campaign(
            config, client, spill=spill,
            tolerate_failures=scenario.tolerate_failures,
        )
    except SimulatedCrashError:
        # The process "died": everything in memory — ledger, fault plan,
        # transport counters — is gone; only the spill directory and its
        # partial sidecar survive.  Simulate the restart with a fresh
        # service and client over the same world (the observer persists,
        # like a trace file spanning both processes), and resume.
        crashed = True
        pre_crash_units = service.quota.total_used
        pre_crash_calls = service.transport.total_calls
        _world, service = _build(config, seed, world=world, observer=observer)
        client = YouTubeClient(
            service, observer=observer, retry_policy=policy,
            circuit_breaker=breaker,
        )
        run_campaign(
            config, client, spill=spill,
            tolerate_failures=scenario.tolerate_failures,
        )
    store = SpillStore.open(spill)

    if trace_path is not None:
        observer.export_trace(trace_path)

    # -- invariants ----------------------------------------------------------
    # Crash scenarios span two "processes"; billing and call counts are the
    # sum of both — every bin is still queried and billed exactly once.
    summary = summarize_events(observer.tracer.iter_dicts())
    spend_events = len(observer.tracer.of_type("quota.spend"))
    call_events = len(observer.tracer.of_type("api.call"))
    completed_calls = pre_crash_calls + service.transport.total_calls
    ledger_units = pre_crash_units + service.quota.total_used
    checks = [
        ChaosCheck(
            "faults-injected",
            len(plan.injected) > 0,
            f"{len(plan.injected)} faults over {plan.tick} attempts",
        ),
        ChaosCheck(
            "quota-reconciles",
            summary.net_units == ledger_units,
            f"trace {summary.net_units} vs ledger {ledger_units}",
        ),
        ChaosCheck(
            "no-double-billing",
            spend_events == completed_calls == call_events,
            f"{spend_events} charges / {completed_calls} completed calls / "
            f"{call_events} call events",
        ),
    ]
    if scenario.expect_identical:
        identical = store.sha256() == hashlib.sha256(
            clean_path.read_bytes()
        ).hexdigest()
        checks.append(
            ChaosCheck(
                "byte-identical-result",
                identical,
                "faulted spill store equals clean save"
                if identical
                else "faulted spill store DIFFERS from clean save",
            )
        )
        checks.append(
            ChaosCheck(
                "no-redundant-queries",
                completed_calls == clean_calls,
                f"{completed_calls} completed calls vs {clean_calls} clean",
            )
        )
    if scenario.expect_interruption:
        checks.append(
            ChaosCheck(
                "interrupted-then-resumed",
                interrupted and summary.checkpoints.get("resume-partial", 0) > 0,
                f"interrupted={interrupted}, partial resumes="
                f"{summary.checkpoints.get('resume-partial', 0)}",
            )
        )
    if scenario.expect_crash:
        resumes = sum(
            summary.checkpoints.get(action, 0)
            for action in ("resume-spill", "resume-partial")
        )
        checks.append(
            ChaosCheck(
                "crashed-then-resumed",
                crashed and resumes > 0,
                f"crashed={crashed}, store resumes={resumes}",
            )
        )
    if scenario.tolerate_failures:
        degraded_snaps = [
            snap.index for snap in store.iter_snapshots() if snap.degraded
        ]
        checks.append(
            ChaosCheck(
                "degraded-not-dead",
                bool(degraded_snaps) and store.n_snapshots == collections,
                f"campaign completed with degraded snapshots {degraded_snaps}",
            )
        )
    if scenario.use_breaker:
        opened = any(new == "open" for _, _, new in summary.circuit_transitions)
        checks.append(
            ChaosCheck(
                "breaker-opened",
                opened,
                f"{len(summary.circuit_transitions)} circuit transitions",
            )
        )
    return ChaosReport(
        scenario=scenario.name,
        description=scenario.description,
        checks=checks,
        faults_injected=len(plan.injected),
        retries=summary.total_retries,
        quota_units=int(service.quota.total_used),
    )
