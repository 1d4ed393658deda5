#!/usr/bin/env python
"""Run the campaign performance benchmark and write BENCH_campaign.json.

Thin wrapper over :mod:`repro.core.benchmark` for running straight from a
checkout:

    PYTHONPATH=src python tools/bench_campaign.py
    PYTHONPATH=src python tools/bench_campaign.py --scenario reduced --out /tmp/bench.json

``python -m repro bench`` is the same thing through the CLI.

Besides writing the report, this wrapper is the perf *gate*: if any
scenario's primary metric regresses more than :data:`REGRESSION_TOLERANCE`
(20%) against the recorded baseline in
``repro.core.benchmark.RECORDED_BASELINE``, it fails loudly with exit
code 1.  ``--no-check`` skips the gate (e.g. when re-recording baselines
or benchmarking on a loaded machine).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.benchmark import (  # noqa: E402
    PRIMARY_METRIC,
    SCENARIOS,
    format_report,
    run_benchmark,
    write_report,
)

#: A scenario fails the gate when its primary metric is more than this
#: factor slower than the recorded baseline (speedup < 1/1.2 ~ 0.83x).
REGRESSION_TOLERANCE = 1.2


def check_regressions(report: dict, tolerance: float = REGRESSION_TOLERANCE) -> list[str]:
    """Return one failure message per scenario slower than baseline/tolerance.

    Scenarios without a recorded baseline (or without a computed speedup,
    e.g. a run whose primary metric is missing) are skipped — the gate
    only compares like-for-like numbers.
    """
    floor = 1.0 / tolerance
    failures = []
    for name, entry in report["scenarios"].items():
        speedup = entry.get("speedup")
        if speedup is None:
            continue
        if speedup < floor:
            kind = entry["current"].get("kind", "campaign")
            metric = PRIMARY_METRIC[kind]
            failures.append(
                f"{name}: {entry['current'][metric]:.4f}s is "
                f"{1.0 / speedup:.2f}x the recorded baseline "
                f"{entry['baseline'][metric]:.4f}s "
                f"(speedup {speedup:.2f}x < {floor:.2f}x floor)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario(s) to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the benchmark seed")
    parser.add_argument("--out", default="BENCH_campaign.json",
                        help="report path (default BENCH_campaign.json)")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the >%d%% regression gate"
                             % round((REGRESSION_TOLERANCE - 1) * 100))
    args = parser.parse_args(argv)

    kwargs = {"progress": lambda m: print(m, flush=True)}
    if args.scenario:
        kwargs["names"] = tuple(args.scenario)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    report = run_benchmark(**kwargs)
    path = write_report(report, args.out)
    print(format_report(report))
    print(f"wrote {path}")

    if not args.no_check:
        failures = check_regressions(report)
        if failures:
            print(
                "PERF REGRESSION: %d scenario(s) slower than the recorded "
                "baseline by more than %d%%:"
                % (len(failures), round((REGRESSION_TOLERANCE - 1) * 100)),
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            print(
                "(re-run with --no-check to skip the gate, e.g. when "
                "re-baselining or on a loaded machine)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
