"""The chaos harness end to end, plus its CLI entry point."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.resilience import SCENARIOS
from repro.resilience.chaos import run_scenario
from tests.test_obs_integration import trace_digest

#: Units each scenario's final process bills at the harness defaults (seed
#: 7, scale 0.05, 2 collections of 48 bins).  A crash scenario's count is
#: the restarted process's alone: only what the spill store and its
#: sidecar did not hold is queried again.
QUOTA_UNITS = {
    "boundary-crash": 4_800,
    "burst-500s": 9_600,
    "hard-outage": 1_000,
    "invalid-page-token": 9_600,
    "malformed-json": 9_600,
    "midsnapshot-crash": 2_600,
    "quota-cliff": 9_600,
    "ratelimit-storm": 9_600,
}

#: (events, digest) of each scenario's exported trace at the same
#: defaults; see ``trace_digest`` for what the digest leaves out.
TRACE_DIGESTS = {
    "boundary-crash": (303, "d12623bc548b0398"),
    "burst-500s": (304, "6ce0beb623124992"),
    "hard-outage": (166, "be096cd6ad0662d3"),
    "invalid-page-token": (300, "5248ece5afd4da42"),
    "malformed-json": (300, "5177cb217abcdfcd"),
    "midsnapshot-crash": (302, "6d45d294f6e0e385"),
    "quota-cliff": (303, "3d6f4d21b494de90"),
    "ratelimit-storm": (305, "e1f6431df015bc65"),
}


class TestRunScenario:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_passes(self, name, tmp_path):
        trace = tmp_path / "trace.jsonl"
        report = run_scenario(name, tmp_path, trace_path=trace)
        assert report.passed, report.render()
        assert report.quota_units == QUOTA_UNITS[name]
        assert (tmp_path / "faulted.spill" / "manifest.json").exists()
        assert trace_digest(trace) == TRACE_DIGESTS[name]

    def test_malformed_json_scenario_passes(self, tmp_path):
        report = run_scenario("malformed-json", tmp_path)
        assert report.passed
        assert report.faults_injected == 2
        names = [check.name for check in report.checks]
        assert names == [
            "faults-injected", "quota-reconciles", "no-double-billing",
            "byte-identical-result", "no-redundant-queries",
        ]
        rendered = report.render()
        assert "chaos malformed-json: PASSED" in rendered
        assert "FAIL" not in rendered

    def test_quota_cliff_interrupts_and_resumes(self, tmp_path):
        report = run_scenario(SCENARIOS["quota-cliff"], tmp_path)
        assert report.passed
        by_name = {check.name: check for check in report.checks}
        assert by_name["interrupted-then-resumed"].passed
        assert by_name["byte-identical-result"].passed
        # The faulted store stays in the workdir for post-mortems.
        assert (tmp_path / "clean.jsonl").exists()
        assert (tmp_path / "faulted.spill").is_dir()

    def test_trace_export(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        run_scenario("malformed-json", tmp_path, trace_path=trace)
        assert trace.exists()
        assert '"api.retry"' in trace.read_text()

    def test_unknown_scenario_names_the_known_ones(self, tmp_path):
        with pytest.raises(ValueError, match="burst-500s"):
            run_scenario("no-such-thing", tmp_path)


class TestChaosCli:
    def test_scenario_run_exits_zero(self, capsys):
        assert main(["chaos", "--scenario", "malformed-json"]) == 0
        out = capsys.readouterr().out
        assert "chaos malformed-json: PASSED" in out

    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out


class TestCrashScenarios:
    @pytest.mark.parametrize("name", ["boundary-crash", "midsnapshot-crash"])
    def test_kill_and_restart_recovers_exactly(self, name, tmp_path):
        report = run_scenario(name, tmp_path)
        assert report.passed, report.render()
        by_name = {check.name: check for check in report.checks}
        # The process died, a fresh stack resumed from the spill store...
        assert by_name["crashed-then-resumed"].passed
        # ...and nothing shows: bytes identical, ledger exact, no bin
        # billed twice across the two process lifetimes.
        assert by_name["byte-identical-result"].passed
        assert by_name["quota-reconciles"].passed
        assert by_name["no-double-billing"].passed
