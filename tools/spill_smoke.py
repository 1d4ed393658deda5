#!/usr/bin/env python
"""Spill smoke gate: kill -9 a spilling campaign mid-stream, resume, compare.

What ``make spill-smoke`` runs.  Exercises the durability contract of
``repro campaign --spill`` with a *real* ``SIGKILL`` — not a simulated
fault — against the actual CLI entry point:

1. run the identical campaign in-memory to completion (the oracle) and
   record its saved bytes and its rendered Figure 1 analysis;
2. start the same campaign with ``--spill``, wait until the store's
   atomic manifest shows at least one spilled snapshot (but fewer than
   scheduled), and ``kill -9`` the process mid-campaign;
3. verify the manifest replays to a consistent prefix (the crash really
   landed mid-run, and ``SpillStore.open`` accepts the directory);
4. rerun the same command over the same spill directory — the store is
   the campaign's durable state, so the run resumes and finishes;
5. assert the spilled campaign's digest equals the oracle's file hash
   **exactly**, the ``--out`` export is byte-identical, and analyses
   rendered from the spill directory match the oracle's.

Exit code 0 on success, 1 with a diagnosis on any violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.spill import SpillStore  # noqa: E402


def _command(args: argparse.Namespace, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "campaign",
        "--scale", str(args.scale),
        "--seed", str(args.seed),
        "--collections", str(args.collections),
        "--quiet",
        *extra,
    ]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not extra else f"{src}{os.pathsep}{extra}"
    return env


def _run(command: list[str], timeout: float) -> str:
    proc = subprocess.run(
        command, env=_env(), cwd=REPO,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command[3:5])} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc.stdout


def _manifest_snapshots(spill_dir: Path) -> int:
    """Spilled snapshots per the manifest (0 while absent or mid-write)."""
    manifest = spill_dir / "manifest.json"
    if not manifest.exists():
        return 0
    try:
        return len(json.loads(manifest.read_text())["snapshots"])
    except (ValueError, KeyError):
        return 0  # a replace is in flight; poll again


def _crash_mid_spill(
    spill_dir: Path, args: argparse.Namespace
) -> int:
    """Start the spilling campaign, wait for >=1 durable snapshot, kill -9."""
    proc = subprocess.Popen(
        _command(args, "--spill", str(spill_dir)), env=_env(), cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"campaign exited {proc.returncode} before the kill "
                    f"landed; raise --collections to widen the window"
                )
            if _manifest_snapshots(spill_dir) >= 1:
                break
            time.sleep(0.02)
        else:
            raise RuntimeError("no snapshot spilled before timeout")
        os.kill(proc.pid, signal.SIGKILL)
        returncode = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    if returncode != -signal.SIGKILL:
        raise RuntimeError(
            f"expected SIGKILL death, campaign exited {returncode}"
        )
    return _manifest_snapshots(spill_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--collections", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument(
        "--workdir", default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    if args.workdir is None:
        import tempfile

        scratch_ctx = tempfile.TemporaryDirectory(prefix="repro_spill_smoke_")
        scratch = Path(scratch_ctx.name)
    else:
        scratch_ctx = None
        scratch = Path(args.workdir)
        scratch.mkdir(parents=True, exist_ok=True)

    try:
        print(
            f"spill smoke: scale {args.scale}, seed {args.seed}, "
            f"{args.collections} collections"
        )
        print("reference run (in-memory, the oracle) ...")
        reference = scratch / "reference.jsonl"
        _run(_command(args, "--out", str(reference)), args.timeout)
        reference_sha = hashlib.sha256(reference.read_bytes()).hexdigest()
        reference_fig1 = _run(
            [sys.executable, "-m", "repro", "analyze", str(reference),
             "--figure", "1"],
            args.timeout,
        )

        spill_dir = scratch / "campaign.spill"
        print("spill run: waiting for a durable snapshot, then kill -9 ...")
        survived = _crash_mid_spill(spill_dir, args)
        if not 1 <= survived < args.collections:
            print(
                f"spill smoke FAILED: the kill did not land mid-campaign "
                f"({survived}/{args.collections} snapshots in the manifest)",
                file=sys.stderr,
            )
            return 1
        store = SpillStore.open(spill_dir)  # raises if the store is torn
        print(
            f"killed mid-run: manifest replays to a consistent "
            f"{store.n_snapshots}/{args.collections}-snapshot prefix"
        )

        print("resume run (same command, same spill directory) ...")
        exported = scratch / "exported.jsonl"
        _run(
            _command(args, "--spill", str(spill_dir), "--out", str(exported)),
            args.timeout,
        )

        failures = []
        resumed = SpillStore.open(spill_dir)
        if resumed.n_snapshots != args.collections:
            failures.append(
                f"resumed store holds {resumed.n_snapshots} snapshots, "
                f"scheduled {args.collections}"
            )
        spilled_sha = resumed.sha256()
        if spilled_sha != reference_sha:
            failures.append(
                f"store digest diverged: {spilled_sha} != reference "
                f"{reference_sha} — the crash changed bytes"
            )
        if exported.read_bytes() != reference.read_bytes():
            failures.append(
                "--out export is not byte-identical to the oracle's save"
            )
        spill_fig1 = _run(
            [sys.executable, "-m", "repro", "analyze", str(spill_dir),
             "--figure", "1"],
            args.timeout,
        )
        if spill_fig1 != reference_fig1:
            failures.append(
                "Figure 1 rendered from the spill directory differs from "
                "the oracle's rendering"
            )
        if failures:
            for failure in failures:
                print(f"spill smoke FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            f"kill -9 recovery OK: digest {spilled_sha[:12]}..., export "
            f"bytes, and analyses match the uninterrupted reference"
        )
        return 0
    finally:
        if scratch_ctx is not None:
            scratch_ctx.cleanup()


if __name__ == "__main__":
    raise SystemExit(main())
