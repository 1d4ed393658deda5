"""The repository benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload paper --seed 20250209 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all     # paper, served, then durable

Workloads (see README.md): ``paper`` (the paper's audit, saved, reloaded
and analysed), ``served`` (``repro serve`` under an open-loop request
mix) and ``durable`` (journaled, spilled orchestrator campaigns, then a
reload).  Every iteration runs in a fresh interpreter (``worker.py``).

``--trace 0`` runs as many full iterations as fit in ``--seconds`` at
their nominal length (:data:`ITERATION_SECONDS`), then set-up-only
launches until there are :data:`MIN_SETUPS` set-up samples, and reports
medians over iterations (for ``served``, of each launch's latency
percentiles).  ``--trace 1`` runs one untraced and one traced iteration
at the same seed, checks that their outputs agree, and reports the
per-layer split of the traced one.
The last stdout line is one JSON object (for ``all``, its metric names
carry a ``workload.`` prefix); the exit code is 1 when any output check
fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import layers
from served import percentile, reap
from spans import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "served", "durable")
DEFAULT_SEED = 20250209
#: Set-up samples a measured run takes, adding set-up-only launches (1.5-2 s
#: each on ``paper`` and ``durable``, 4 s on ``served``).  More would push a
#: run past 40 s when the shared host runs slow.
MIN_SETUPS = 5
#: Nominal seconds of one full iteration at the full shape.  A run makes
#: ``--seconds`` / this many iterations, a count that does not depend on
#: how fast this run happens to go.
ITERATION_SECONDS = {"paper": 12.0, "served": 10.0, "durable": 12.0}
#: A workload's run kills whatever worker is still going this many seconds
#: after it started, and fails, so that it always ends within 180 seconds.
RUN_DEADLINE_S = 170.0

#: The end-to-end metrics every workload reports, with their units.
E2E_UNITS = {"setup_s": "s", "primary_ms": "ms", "secondary_ms": "ms",
             "peak_rss_mb": "MB"}
#: Each workload's own metrics behind ``primary_ms`` and ``secondary_ms``.
#: ``served`` gates on medians: the p50 of every request and the p50 of
#: repeated requests (answered from the response cache).  It prints p90,
#: p99 and the mean too, but host stalls on a shared 2-core machine land in
#: those (the generator itself runs up to 5 ms late then), and their
#: ten-seed spread reached 0.3 to 1.1 of their median.
#: ``durable`` gates on the tenants' mean wait, not on ``reload_s``: the
#: reload is only tens of milliseconds and its ten-seed spread reached a
#: third of its median, so it is printed (with the read-path layers
#: ``spill.read_s`` and ``index.append_s`` in the traced run) but not gated.
PHASES = {
    "paper": ("campaign_s", "analysis_s"),
    "served": ("serve_p50_ms", "serve_repeat_p50_ms"),
    "durable": ("orchestrate_s", "campaign_wait_s"),
}
#: Workload metrics the report prints that are not behind a contract name.
PRINTED_ONLY = {"durable": ("reload_s",)}
OPERATIONS = {"paper": "API calls", "served": "HTTP requests",
              "durable": "campaigns"}


class WorkerError(RuntimeError):
    pass


class Run:
    """One workload's run: its inputs, scratch directory and deadline."""

    def __init__(self, workload: str, args) -> None:
        self.workload = workload
        self.seed = args.seed
        self.shape = args.shape
        self.seconds = args.seconds
        self.reference = checks.load_reference(args.shape, args.seed, workload)
        self.workdir = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
        self.deadline = clock() + RUN_DEADLINE_S

    def spawn(self, name: str, *extra: str) -> dict:
        """One worker process; its result plus its peak RSS in MB."""
        workdir = self.workdir / name
        workdir.mkdir(parents=True, exist_ok=True)
        out, err = workdir / "worker.out", workdir / "worker.err"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        launched = clock()
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               "--seed", str(self.seed), "--shape", self.shape,
               "--workdir", str(workdir), "--launched", repr(launched), *extra]
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env,
                                    start_new_session=True)
            rss = reap(proc, max(1.0, self.deadline - clock()))
        lines = out.read_text(encoding="utf-8").splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise WorkerError(
                f"{self.workload} worker exited {proc.returncode}:\n{tail}"
            )
        result = json.loads(lines[-1])
        result.setdefault("peak_rss_mb", rss)
        return result

    def check(self, it: dict) -> list[str]:
        if self.workload == "paper":
            return checks.check_paper(it["outputs"], self.reference)
        if self.workload == "durable":
            return checks.check_durable(it["outputs"], self.reference)
        return checks.check_served(it)

    def same_outputs(self, a: dict, b: dict) -> list[str]:
        if self.workload == "served":
            return (checks.check_same("served bodies", a["bodies"], b["bodies"])
                    + checks.check_same("ledgers", a["ledgers"], b["ledgers"]))
        return checks.check_same("checked outputs", a["outputs"], b["outputs"])

    def check_served_bodies(self, it: dict) -> list[str]:
        """An iteration's bodies against one run of the in-process oracle
        (every iteration sends the same requests)."""
        keys = self.workdir / "oracle-keys.json"
        keys.write_text(json.dumps(sorted(it["bodies"])), encoding="utf-8")
        oracle = self.spawn("oracle", "--oracle", str(keys))
        oracle.pop("peak_rss_mb")
        return checks.check_bodies(it["bodies"], oracle)


def end_to_end(workload: str, iterations: list[dict], setups: list[float]) -> dict:
    """The workload's own metrics (:data:`PHASES`) plus set-up and RSS."""
    named = {"setup_s": statistics.median(setups)}
    if workload == "served":
        for q in (50, 90, 99):
            named[f"serve_p{q}_ms"] = statistics.median(
                percentile(it["latencies_ms"], q / 100) for it in iterations
            )
        named["serve_repeat_p50_ms"] = statistics.median(
            percentile(it["repeat_latencies_ms"], 0.5) for it in iterations
        )
        named["serve_mean_ms"] = statistics.median(
            statistics.fmean(it["latencies_ms"]) for it in iterations
        )
    else:
        for phase in PHASES[workload] + PRINTED_ONLY.get(workload, ()):
            named[phase] = statistics.median(it[phase] for it in iterations)
    named["peak_rss_mb"] = statistics.median(it["peak_rss_mb"] for it in iterations)
    return named


def as_contract(workload: str, named: dict) -> dict:
    """Workload-named metrics -> the contract's generic names, in ms."""
    first, second = PHASES[workload]

    def ms(name: str) -> float:
        return named[name] if name.endswith("_ms") else named[name] * 1000.0

    return {
        "setup_s": named["setup_s"],
        "primary_ms": ms(first),
        "secondary_ms": ms(second),
        "peak_rss_mb": named["peak_rss_mb"],
    }


def measured_run(run: Run) -> tuple[dict, list[str], int, int]:
    count = max(1, round(run.seconds / ITERATION_SECONDS[run.workload]))
    iterations = [run.spawn(f"it{i}") for i in range(count)]
    setups = [it["setup_s"] for it in iterations]
    while len(setups) < MIN_SETUPS:
        setups.append(run.spawn(f"setup{len(setups)}", "--setup-only")["setup_s"])
    failures = []
    for it in iterations:
        failures += run.check(it) + run.same_outputs(iterations[0], it)
    if run.workload == "served":
        failures += run.check_served_bodies(iterations[0])
    named = end_to_end(run.workload, iterations, setups)
    print(f"{run.workload}: {len(iterations)} iterations, {len(setups)} set-ups, "
          f"seed {run.seed}, shape {run.shape}")
    for name, value in named.items():
        print(f"  {name:<14} {value:12.4f} {layers.unit_of(name)}")
    if run.workload == "served":
        late = [x for it in iterations for x in it["late_ms"]]
        print(f"  generator lateness p99 {percentile(late, 0.99):.3f} ms, "
              f"{len(iterations[0]['bodies'])} distinct requests per launch")
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    return as_contract(run.workload, named), failures, attempted, failed


def traced_run(run: Run) -> tuple[dict, list[str], int, int]:
    plain = run.spawn("plain")
    spans_path = run.workdir / "spans.json"
    traced = run.spawn("traced", "--spans", str(spans_path))
    failures = (run.check(plain) + run.check(traced)
                + run.same_outputs(plain, traced))
    if run.workload == "served":
        failures += run.check_served_bodies(plain)
        traced["late_p99_ms"] = percentile(traced["late_ms"], 0.99)
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    metrics = layers.per_layer(trace, traced)

    print(f"{run.workload}: traced iteration, seed {run.seed}, shape {run.shape}")
    print(f"  {'per-layer metric':<32} {'value':>14}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:14.4f} {layers.unit_of(name)}")
    print(f"  {'root':<12} {'traced s':>10} {'layers s':>10} {'remainder s':>12}")
    for root, total, inside in layers.accounting(trace, traced):
        print(f"  {root:<12} {total:10.4f} {inside:10.4f} {total - inside:12.4f}")
    plain_named = end_to_end(run.workload, [plain], [plain["setup_s"]])
    traced_named = end_to_end(run.workload, [traced], [traced["setup_s"]])
    print(f"  {'end-to-end':<14} {'untraced':>12} {'traced':>12} {'overhead':>12}")
    for name in plain_named:
        print(f"  {name:<14} {plain_named[name]:12.4f} {traced_named[name]:12.4f}"
              f" {traced_named[name] - plain_named[name]:12.4f}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, failures, attempted, failed


def run_workload(workload: str, args) -> dict:
    """Run, check and report one workload; the contract's result object."""
    run = Run(workload, args)
    try:
        metrics, failures, attempted, failed = (
            traced_run(run) if args.trace else measured_run(run)
        )
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    print(f"  {OPERATIONS[workload]}: {attempted} attempted, {failed} failed")
    print(f"  reference outputs: "
          f"{'checked' if run.reference else 'none for this seed'}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"  checks: {'ok' if not failures else f'{len(failures)} failed'}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value,
                   "unit": E2E_UNITS[name] if not args.trace
                   else layers.unit_of(name)}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long shape for the harness's tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    if args.workload != "all":
        result = run_workload(args.workload, args)
    else:
        results = {w: run_workload(w, args) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
