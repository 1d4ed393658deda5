#!/usr/bin/env python
"""Coverage gate: run the test suite under pytest-cov and enforce a floor.

Usage::

    python tools/coverage_gate.py          # full suite, >= 80% line coverage
    python tools/coverage_gate.py --fast   # skip the slowest test modules

The gate degrades gracefully: when ``pytest-cov`` (or ``coverage``) is not
installed in the environment, it prints a skip notice and exits 0, so
``make verify`` stays green on minimal installs.  Nothing is downloaded —
installing dependencies is out of scope for this repository's tooling.

``--fast`` exists so the gate can ride inside ``make verify`` without
doubling its wall time: it drops the handful of multi-second end-to-end
modules (golden campaign, batch collection, perf fast path, integration,
chaos, the index-equivalence sweeps that compare the columnar
analysis fast path against the legacy oracle on full simulated
campaigns, and the spill-store golden/crash suite) whose *coverage* is
almost entirely redundant with the unit tests, and compensates with a
slightly lower floor.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Line-coverage floors (percent). The fast variant skips the end-to-end
#: modules, so it is held to a slightly lower bar.
FULL_FLOOR = 80
FAST_FLOOR = 75

#: Slow end-to-end modules dropped by ``--fast`` (coverage-redundant).
FAST_SKIPS = (
    "tests/test_golden_campaign.py",
    "tests/test_batch_collection.py",
    "tests/test_perf_fastpath.py",
    "tests/test_integration.py",
    "tests/test_resilience_chaos.py",
    "tests/test_index_equivalence.py",
    "tests/test_serve_http.py",
    "tests/test_world_columnar.py",
    "tests/test_spill.py",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true",
        help="skip the slowest end-to-end modules (floor %d%% instead of %d%%)"
             % (FAST_FLOOR, FULL_FLOOR),
    )
    args = parser.parse_args(argv)

    if importlib.util.find_spec("pytest_cov") is None:
        print(
            "coverage gate: pytest-cov is not installed; skipping "
            "(install pytest-cov to enforce the %d%% floor)" % FULL_FLOOR
        )
        return 0

    floor = FAST_FLOOR if args.fast else FULL_FLOOR
    cmd = [
        sys.executable, "-m", "pytest", "-q",
        "--cov=repro",
        "--cov-report=term",
        f"--cov-fail-under={floor}",
    ]
    if args.fast:
        cmd += [f"--ignore={skip}" for skip in FAST_SKIPS]

    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    print("coverage gate:", " ".join(cmd))
    return subprocess.call(cmd, cwd=REPO, env=env)


if __name__ == "__main__":
    raise SystemExit(main())
