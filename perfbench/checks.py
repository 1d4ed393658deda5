"""Output checks.  Each returns a list of failures; empty means it passed.

Checks against a recorded reference apply when ``references.json`` holds
one for the run's shape and seed.  The rest hold at every seed: quota
ledgers equal calls times unit cost, served bytes equal an independent
in-process service's, and identical campaigns have identical digests.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Data API v3 unit costs: ``search.list`` 100, every ID endpoint 1.
SEARCH_COST = 100


def cost(endpoint: str) -> int:
    return SEARCH_COST if endpoint == "search.list" else 1


def load_reference(shape: str, seed: int, workload: str):
    """The recorded reference outputs for this run, or ``None``."""
    if not REFERENCES.exists():
        return None
    recorded = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return recorded.get(shape, {}).get(str(seed), {}).get(workload)


def _differ(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got!r}, want {want!r}"]


def check_paper(outputs: dict, reference: dict | None) -> list[str]:
    failures = _differ(
        "collections", outputs["collections"], outputs["expected_collections"]
    )
    usage = outputs["usage_by_day"]
    failures += _differ(
        "ledger vs request records", usage, outputs["transport_units_by_day"]
    )
    billed = sum(
        n * cost(endpoint) for endpoint, n in outputs["calls_by_endpoint"].items()
    )
    failures += _differ("ledger total vs calls x cost", sum(usage.values()), billed)
    if reference is not None:
        for key in ("campaign_sha256", "usage_by_day", "calls_by_endpoint"):
            failures += _differ(key, outputs[key], reference[key])
    return failures


def check_durable(outputs: dict, reference: dict | None) -> list[str]:
    failures = []
    if not outputs["settled"]:
        failures.append("campaigns did not settle in time")
    failures += [
        f"campaign {i}: state {state!r}, want 'completed'"
        for i, state in enumerate(outputs["states"])
        if state != "completed"
    ]
    digests = outputs["result_sha256"]
    if len(set(digests)) != 1:
        failures.append(f"tenants' result digests differ: {digests}")
    for i, (got, want) in enumerate(
        zip(outputs["usage_by_key"], outputs["expected_usage_by_key"])
    ):
        failures += _differ(f"tenant {i} ledger vs spilled bins", got, want)
    if reference is not None:
        failures += _differ(
            "result_sha256", digests[0], reference["result_sha256"]
        )
    return failures


def check_served(iteration: dict) -> list[str]:
    """Per-iteration checks: no failed request, exact per-key ledgers."""
    failures = []
    if iteration["failed"]:
        failures.append(f"{iteration['failed']} requests failed")
    if iteration["unstable_bodies"]:
        failures.append(
            f"{iteration['unstable_bodies']} repeated requests got other bytes"
        )
    for tenant, (ledger, sent) in enumerate(
        zip(iteration["ledgers"], iteration["sent"])
    ):
        billed = sum(n * cost(endpoint) for endpoint, n in sent.items())
        failures += _differ(f"tenant {tenant} ledger vs 200 responses", ledger, billed)
    return failures


def check_bodies(served: dict[str, str], oracle: dict[str, str]) -> list[str]:
    """Every served body's digest against the in-process oracle's."""
    wrong = [key for key, digest in served.items() if oracle.get(key) != digest]
    if not wrong:
        return []
    return [f"{len(wrong)} of {len(served)} served bodies differ from the "
            f"oracle, first: {wrong[0][:160]}"]


def check_same(name: str, first, second) -> list[str]:
    """Outputs that must not depend on the run (iteration, tracing)."""
    return [] if first == second else [f"{name} differ between runs"]
