"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_world_defaults(self):
        args = build_parser().parse_args(["world"])
        assert args.command == "world"
        assert args.scale == 0.3
        assert args.seed == 7

    def test_campaign_args(self):
        args = build_parser().parse_args(
            ["campaign", "--collections", "4", "--out", "x.jsonl", "--comments"]
        )
        assert args.collections == 4
        assert args.out == "x.jsonl"
        assert args.comments

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "c.jsonl", "--table", "1", "--figure", "3"]
        )
        assert args.table == [1]
        assert args.figure == [3]

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "c.jsonl", "--table", "9"])


class TestCommands:
    def test_world_command(self, capsys):
        assert main(["world", "--scale", "0.05", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "world (seed=1" in out
        assert "videos" in out

    def test_campaign_analyze_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "campaign.jsonl")
        code = main(
            ["campaign", "--scale", "0.05", "--seed", "1",
             "--collections", "3", "--out", path, "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 collections" in out

        assert main(["analyze", path, "--table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Higgs" in out

    def test_analyze_figures(self, tmp_path, capsys):
        path = str(tmp_path / "campaign.jsonl")
        main(["campaign", "--scale", "0.05", "--seed", "2",
              "--collections", "3", "--out", path, "--quiet"])
        capsys.readouterr()
        assert main(["analyze", path, "--figure", "1", "--figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "PP" in out

    def test_analyze_table5_unavailable_without_comments(self, tmp_path, capsys):
        path = str(tmp_path / "campaign.jsonl")
        main(["campaign", "--scale", "0.05", "--seed", "2",
              "--collections", "3", "--out", path, "--quiet"])
        capsys.readouterr()
        assert main(["analyze", path, "--table", "5"]) == 0
        captured = capsys.readouterr()
        assert "unavailable" in captured.err

    def test_strategies_command(self, capsys):
        assert main(
            ["strategies", "--scale", "0.08", "--seed", "1",
             "--topic", "higgs", "--runs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "time-split/24h" in out
        assert "channel-pipeline" in out

    def test_serp_command(self, capsys):
        assert main(
            ["serp", "--scale", "0.08", "--seed", "1", "--topic", "grammys",
             "--fleet", "3", "--k", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "SERP audit" in out
        assert "noise floor" in out


class TestNewCommands:
    def test_export_command(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        main(["campaign", "--scale", "0.05", "--seed", "3",
              "--collections", "3", "--out", path, "--quiet"])
        capsys.readouterr()
        out_dir = str(tmp_path / "csv")
        assert main(["export", path, "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "figure1_jaccard.csv" in out
        assert (tmp_path / "csv" / "figure3_markov.csv").exists()

    def test_budget_command(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr()
        assert "quota-days per snapshot" in out.out
        assert "smear" in out.out  # the default client gets the warning
        assert main(["budget", "--researcher"]) == 0
        out = capsys.readouterr().out
        assert "smear" not in out  # researcher quota fits in a day

    def test_inference_command(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        main(["campaign", "--scale", "0.05", "--seed", "3",
              "--collections", "4", "--out", path, "--quiet"])
        capsys.readouterr()
        assert main(["inference", path]) == 0
        out = capsys.readouterr().out
        assert "pool ~" in out
        assert "higgs" in out

    def test_replication_command(self, capsys):
        assert main(
            ["replication", "--seeds", "11", "22", "--scale", "0.06",
             "--collections", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "stability across seeds" in out


class TestObsCommand:
    def test_obs_report_args(self):
        args = build_parser().parse_args(["obs", "report", "trace.jsonl"])
        assert args.command == "obs"
        assert args.obs_command == "report"
        assert args.trace_path == "trace.jsonl"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_campaign_trace_flag(self):
        args = build_parser().parse_args(["campaign", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"

    def test_campaign_trace_then_obs_report(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        code = main(
            ["campaign", "--scale", "0.05", "--seed", "1",
             "--collections", "2", "--trace", trace, "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traced" in out and "trace.jsonl" in out

        assert main(["obs", "report", trace]) == 0
        out = capsys.readouterr().out
        assert "Observability report" in out
        assert "Quota economy per topic" in out
        assert "search.list" in out

    def test_obs_report_quota_matches_campaign_output(self, tmp_path, capsys):
        """The units the report shows equal the campaign's printed total."""
        import re

        trace = str(tmp_path / "trace.jsonl")
        main(["campaign", "--scale", "0.05", "--seed", "3",
              "--collections", "2", "--trace", trace, "--quiet"])
        campaign_out = capsys.readouterr().out
        claimed = int(
            re.search(r"([\d,]+) quota units", campaign_out).group(1).replace(",", "")
        )
        main(["obs", "report", trace])
        report_out = capsys.readouterr().out
        assert f"| quota units spent        | {claimed}" in report_out


class TestSpillCommands:
    def test_campaign_spill_and_analyze_from_directory(self, tmp_path, capsys):
        spill = str(tmp_path / "camp.d")
        out = str(tmp_path / "spilled.jsonl")
        code = main(
            ["campaign", "--scale", "0.05", "--seed", "1",
             "--collections", "3", "--spill", spill, "--out", out, "--quiet"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert f"spilled to {spill}" in printed

        # The exported file is byte-identical to a plain in-memory run.
        direct = str(tmp_path / "direct.jsonl")
        main(["campaign", "--scale", "0.05", "--seed", "1",
              "--collections", "3", "--out", direct, "--quiet"])
        capsys.readouterr()
        assert (tmp_path / "spilled.jsonl").read_bytes() == (
            (tmp_path / "direct.jsonl").read_bytes()
        )

        # analyze / export accept the spill directory in place of a file.
        assert main(["analyze", spill, "--table", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out
        csv_dir = str(tmp_path / "csv")
        assert main(["export", spill, "--out-dir", csv_dir]) == 0
        capsys.readouterr()
        assert (tmp_path / "csv" / "figure1_jaccard.csv").exists()

    def test_campaign_spill_resumes_from_directory(self, tmp_path, capsys):
        spill = str(tmp_path / "camp.d")
        main(["campaign", "--scale", "0.05", "--seed", "1",
              "--collections", "2", "--spill", spill, "--quiet"])
        capsys.readouterr()
        code = main(
            ["campaign", "--scale", "0.05", "--seed", "1",
             "--collections", "3", "--spill", spill, "--quiet"]
        )
        assert code == 0
        assert "campaign: 3 collections spilled" in capsys.readouterr().out


class TestServerCommandsRecordNoTrace:
    """``serve`` and ``orchestrate`` never export, print or serve a trace,
    so they attach no recording observer: on a long-running server its
    event list would grow with every request, without bound."""

    @pytest.mark.parametrize("command", ["serve", "orchestrate"])
    def test_gateway_gets_the_null_observer(self, command, tmp_path, monkeypatch):
        import repro.serve

        class Built(Exception):
            pass

        captured: dict = {}

        def build_gateway(**kwargs):
            captured.update(kwargs)
            raise Built  # stop before the server starts

        monkeypatch.setattr(repro.serve, "build_gateway", build_gateway)
        argv = [command, "--port", "0"]
        if command == "orchestrate":
            argv += ["--workdir", str(tmp_path / "orch")]
        with pytest.raises(Built):
            main(argv)
        assert "scale" in captured
        assert captured.get("observer") is None
