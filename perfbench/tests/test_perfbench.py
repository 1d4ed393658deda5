"""The benchmark harness's own tests (tiny shapes, seconds each).

    PYTHONPATH=src python -m pytest perfbench/tests -q

Every workload must emit every metric ``BENCHMARK.json`` names, in both
modes, and every output check must fail on a corrupted output.
"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import paper  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 20250209


@pytest.fixture
def scratch():
    """A throwaway directory inside the checkout (which is gitignored)."""
    path = ROOT / ".perfbench" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_shape_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--shape", "tiny", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_served_stops_its_server_when_launched_ignoring_sigint():
    """A background job of a non-interactive shell starts with SIGINT
    ignored; the server must still stop on the SIGINT the run sends it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--workload",
         "served", "--shape", "tiny", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert result_of(proc)["correct"] is True


def test_all_runs_every_workload_in_one_command():
    proc = bench("--workload", "all", "--shape", "tiny", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = result_of(proc)
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        f"{w['name']}.{m['name']}"
        for w in SPEC["workloads"] for m in SPEC["end_to_end"]
    }


def test_wrong_reference_fails_the_run(scratch, monkeypatch, capsys):
    tampered = scratch / "references.json"
    tampered.write_text(json.dumps({"tiny": {str(SEED): {"paper": {
        "campaign_sha256": "0" * 64, "usage_by_day": {}, "calls_by_endpoint": {},
    }}}}), encoding="utf-8")
    monkeypatch.setattr(checks, "REFERENCES", tampered)
    code = run.main(["--workload", "paper", "--shape", "tiny", "--seconds", "1",
                     "--seed", str(SEED)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "CHECK FAILED: campaign_sha256" in out


def test_flipped_byte_in_saved_campaign_fails_the_paper_check(scratch):
    result = paper.run(SEED, "tiny", scratch, launched=0.0)
    outputs = result["outputs"]
    assert checks.check_paper(outputs, reference=outputs) == []
    path = scratch / "campaign.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    corrupted = dict(outputs, campaign_sha256=paper.sha256_of(path))
    failures = checks.check_paper(corrupted, reference=outputs)
    assert failures and failures[0].startswith("campaign_sha256")


def test_paper_check_catches_a_ledger_that_disagrees_with_calls():
    outputs = {
        "collections": 1, "expected_collections": 1,
        "usage_by_day": {"2025-02-09": 301},
        "transport_units_by_day": {"2025-02-09": 301},
        "calls_by_endpoint": {"search.list": 3, "videos.list": 2},
    }
    assert checks.check_paper(outputs, None) == [
        "ledger total vs calls x cost: got 301, want 302"
    ]


def test_served_twins_are_due_with_the_other_tenants_request():
    specs = served.topic_specs(served.SHAPES["tiny"])
    ids = [f"video{i}" for i in range(60)]
    schedule = served.build_schedule(SEED, specs, ids, 1000)
    assert len(schedule) == 1000
    assert schedule == served.build_schedule(SEED, specs, ids, 1000)
    twins = [(a, b) for a, b in zip(schedule, schedule[1:]) if a[0] == b[0]]
    assert len(twins) >= 2
    for (_, tenant, endpoint, params), (_, other, twin_endpoint, twin_params) in twins:
        assert other == 1 - tenant
        assert (twin_endpoint, twin_params) == (endpoint, params) and "q" in params


def test_tampered_served_body_fails_the_oracle_check():
    bodies = {"a": "1" * 64, "b": "2" * 64}
    assert checks.check_bodies(bodies, dict(bodies)) == []
    failures = checks.check_bodies(dict(bodies, b="3" * 64), bodies)
    assert len(failures) == 1 and "1 of 2 served bodies" in failures[0]


def test_served_ledger_must_equal_calls_times_cost():
    iteration = {
        "failed": 0, "unstable_bodies": 0,
        "ledgers": [100 * 7 + 2, 100 * 5],
        "sent": [{"search.list": 7, "videos.list": 2},
                 {"search.list": 5, "videos.list": 1}],
    }
    assert checks.check_served(iteration) == [
        "tenant 1 ledger vs 200 responses: got 500, want 501"
    ]


def test_wrong_durable_digest_fails():
    outputs = {
        "settled": True, "states": ["completed", "completed"],
        "result_sha256": ["a" * 64, "a" * 64],
        "usage_by_key": [{"d": 100}, {"d": 100}],
        "expected_usage_by_key": [{"d": 100}, {"d": 100}],
    }
    assert checks.check_durable(outputs, {"result_sha256": "a" * 64}) == []
    assert checks.check_durable(outputs, {"result_sha256": "b" * 64})
    split = dict(outputs, result_sha256=["a" * 64, "c" * 64])
    assert "tenants' result digests differ" in checks.check_durable(split, None)[0]


def test_wrappers_are_removed_after_tracing():
    from repro.core import index, report
    from repro.core.datasets import CampaignResult
    from repro.orchestrator.journal import Journal

    def installed():
        return (index.campaign_index, report.render_table1,
                CampaignResult.__dict__["load"], Journal.__dict__["append"],
                list(gc.callbacks))

    before = installed()
    tracer = Tracer("test")
    tracer.install()
    assert index.campaign_index is not before[0]
    assert Journal.__dict__["append"] is not before[3]
    assert len(gc.callbacks) == len(before[4]) + 1
    tracer.remove()
    assert installed() == before


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper", "--seconds", "1", "--trace", "0",
                 cwd=scratch)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
