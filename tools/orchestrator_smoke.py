#!/usr/bin/env python
"""Orchestrator smoke gate: kill -9 the daemon mid-campaign, resume, compare.

What ``make orchestrator-smoke`` runs.  Exercises the crash-safety
contract of ``repro orchestrate`` with a *real* ``SIGKILL`` — not the
in-process simulated crash the chaos harness uses — against the actual
CLI entry point:

1. run one demo campaign to completion in a reference workdir;
2. start the identical command in a second workdir, wait until the
   write-ahead journal shows collection bins in flight, and ``kill -9``
   the daemon process mid-snapshot;
3. verify the journal replays to a non-terminal campaign with fewer
   snapshots than scheduled (the crash really landed mid-run);
4. rerun the same command over the crashed workdir — recovery re-admits
   the campaign and finishes it;
5. assert the recovered run's result digest (its spill store's
   canonical serialization), billed units, and quota ledger equal the
   uninterrupted reference **exactly**.

Exit code 0 on success, 1 with a diagnosis on any violation.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.orchestrator.journal import Journal  # noqa: E402

CAMPAIGN_LINE = re.compile(
    r"^campaign (?P<cid>\S+) key=(?P<key>\S+) state=(?P<state>\S+) "
    r"snapshots=(?P<snapshots>\d+) units=(?P<units>\d+) "
    r"sha256=(?P<sha>[0-9a-f]{64})$"
)
USAGE_LINE = re.compile(r"^usage \S+: \d+ units over \d+ day\(s\)$")


def _command(workdir: Path, args: argparse.Namespace) -> list[str]:
    return [
        sys.executable, "-m", "repro", "orchestrate",
        "--workdir", str(workdir),
        "--demo", "1",
        "--collections", str(args.collections),
        "--scale", str(args.scale),
        "--seed", str(args.seed),
    ]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not extra else f"{src}{os.pathsep}{extra}"
    return env


def _summary(output: str) -> tuple[list[dict], list[str]]:
    """Parse the per-campaign and per-key summary lines the CLI prints."""
    campaigns = [
        match.groupdict()
        for line in output.splitlines()
        if (match := CAMPAIGN_LINE.match(line.strip()))
    ]
    usage = [
        line.strip() for line in output.splitlines()
        if USAGE_LINE.match(line.strip())
    ]
    return campaigns, usage


def _run_to_completion(workdir: Path, args: argparse.Namespace) -> str:
    proc = subprocess.run(
        _command(workdir, args), env=_env(), cwd=REPO,
        capture_output=True, text=True, timeout=args.timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"orchestrate exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc.stdout


def _crash_mid_campaign(workdir: Path, args: argparse.Namespace) -> None:
    """Start the daemon, wait for in-flight bins, then ``kill -9`` it."""
    journal_path = workdir / "journal.jsonl"
    proc = subprocess.Popen(
        _command(workdir, args), env=_env(), cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {proc.returncode} before the kill "
                    f"landed; raise --collections to widen the window"
                )
            if journal_path.exists() and '"kind": "bin"' in journal_path.read_text(
                encoding="utf-8", errors="replace"
            ):
                break
            time.sleep(0.05)
        else:
            raise RuntimeError("no collection bins journaled before timeout")
        os.kill(proc.pid, signal.SIGKILL)
        returncode = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    if returncode != -signal.SIGKILL:
        raise RuntimeError(f"expected SIGKILL death, daemon exited {returncode}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--collections", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=180.0)
    parser.add_argument(
        "--workdir", default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    if args.workdir is None:
        import tempfile

        scratch_ctx = tempfile.TemporaryDirectory(prefix="repro_orch_smoke_")
        scratch = Path(scratch_ctx.name)
    else:
        scratch_ctx = None
        scratch = Path(args.workdir)
        scratch.mkdir(parents=True, exist_ok=True)

    try:
        print(
            f"orchestrator smoke: scale {args.scale}, seed {args.seed}, "
            f"{args.collections} collections"
        )
        print("reference run (uninterrupted) ...")
        reference = _summary(_run_to_completion(scratch / "ref", args))

        print("crash run: waiting for in-flight bins, then kill -9 ...")
        _crash_mid_campaign(scratch / "crash", args)

        state = Journal(scratch / "crash").recover()
        mid_run = [
            c for c in state.campaigns.values()
            if not c.terminal and c.snapshots_done < args.collections
        ]
        if not mid_run:
            print(
                "orchestrator smoke FAILED: the kill did not land "
                f"mid-campaign (journal replays to "
                f"{[c.state for c in state.campaigns.values()]})",
                file=sys.stderr,
            )
            return 1
        print(
            f"killed mid-run: campaign {mid_run[0].campaign_id} "
            f"replays as {mid_run[0].state} with "
            f"{mid_run[0].snapshots_done}/{args.collections} snapshots"
        )

        print("resume run (same command, same workdir) ...")
        recovered = _summary(_run_to_completion(scratch / "crash", args))

        failures = []
        ref_campaigns, ref_usage = reference
        rec_campaigns, rec_usage = recovered
        if not ref_campaigns or not rec_campaigns:
            failures.append("could not parse campaign summaries from the CLI")
        for ref, rec in zip(ref_campaigns, rec_campaigns):
            if rec["state"] != "completed":
                failures.append(
                    f"recovered campaign {rec['cid']} is {rec['state']}, "
                    f"not completed"
                )
            if rec["sha"] != ref["sha"]:
                failures.append(
                    f"result digest diverged: recovered {rec['sha']} != "
                    f"reference {ref['sha']} — the crash changed bytes"
                )
            if rec["units"] != ref["units"]:
                failures.append(
                    f"billed units diverged: recovered {rec['units']} != "
                    f"reference {ref['units']} — double billing or lost bins"
                )
        if rec_usage != ref_usage:
            failures.append(
                f"quota ledger does not reconcile: {rec_usage} != {ref_usage}"
            )
        if failures:
            for failure in failures:
                print(f"orchestrator smoke FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            f"kill -9 recovery OK: digest {rec_campaigns[0]['sha'][:12]}... "
            f"and ledger ({ref_usage[0]}) match the uninterrupted reference"
        )
        return 0
    finally:
        if scratch_ctx is not None:
            scratch_ctx.cleanup()


if __name__ == "__main__":
    raise SystemExit(main())
