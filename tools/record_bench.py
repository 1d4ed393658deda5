#!/usr/bin/env python3
"""Record the repository benchmark (perfbench/) in BENCH_campaign.json.

Runs ``perfbench/run.py --workload all`` twice, end to end and then with
``--trace 1``, and writes the two result lines' metrics as
``{"seed": ..., "end_to_end": {...}, "per_layer": {...}}``.  If either run
is not ``correct`` or reports a failed operation, it exits non-zero and
leaves the recorded file as it is.

Usage:  python3 tools/record_bench.py      (or: make bench)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 20250209


def perfbench(trace: int) -> dict:
    """One perfbench run over every workload; the metrics of its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(SEED), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct") or result.get("failed", 1):
        sys.exit(f"{' '.join(cmd[1:])}: not correct, or failed operations; "
                 "BENCH_campaign.json not written")
    return result["metrics"]


if __name__ == "__main__":
    record = {"seed": SEED, "end_to_end": perfbench(0), "per_layer": perfbench(1)}
    (REPO / "BENCH_campaign.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
