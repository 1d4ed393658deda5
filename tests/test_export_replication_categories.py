"""Tests for CSV export, multi-seed replication, and videoCategories."""

from __future__ import annotations

import csv

import pytest

from repro.api.errors import BadRequestError, NotFoundError
from repro.core.export import export_all, write_csv
from repro.core.replication import (
    ReplicateOutcome,
    ReplicationSummary,
    run_replication,
)


class TestExport:
    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "sub" / "x.csv", ["a", "b"], [[1, 2], [3, 4]])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_export_all_bundle(self, mini_campaign, tmp_path):
        paths = export_all(mini_campaign, tmp_path)
        names = {p.name for p in paths}
        assert names == {
            "figure1_jaccard.csv", "figure2_daily.csv", "figure3_markov.csv",
            "figure4_metadata.csv", "table1_returns.csv", "table2_hourly.csv",
            "table4_pools.csv",
        }
        for path in paths:
            assert path.exists()
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1  # header + data

    def test_figure1_rows_complete(self, mini_campaign, tmp_path):
        export_all(mini_campaign, tmp_path)
        with open(tmp_path / "figure1_jaccard.csv") as fh:
            rows = list(csv.DictReader(fh))
        expected = len(mini_campaign.topic_keys) * (mini_campaign.n_collections - 1)
        assert len(rows) == expected
        assert {row["topic"] for row in rows} == set(mini_campaign.topic_keys)
        for row in rows:
            assert 0.0 <= float(row["j_first"]) <= 1.0

    def test_figure3_rows(self, mini_campaign, tmp_path):
        export_all(mini_campaign, tmp_path)
        with open(tmp_path / "figure3_markov.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["history"] for row in rows} == {"PP", "PA", "AP", "AA"}
        for row in rows:
            assert float(row["to_P"]) + float(row["to_A"]) == pytest.approx(1.0)


class TestReplication:
    @pytest.fixture(scope="class")
    def summary(self):
        # Three tiny replicates; this is the expensive test of the suite.
        return run_replication(seeds=[101, 202, 303], scale=0.12, n_collections=6)

    def test_all_qualitative_claims_hold(self, summary):
        stability = summary.sign_stability()
        assert stability["duration < 0"] >= 2 / 3
        assert stability["higgs > 0"] == 1.0
        # At this tiny test scale Brexit occasionally edges Higgs; the
        # full-scale claim is asserted in the benchmarks.
        assert stability["higgs most consistent"] >= 2 / 3
        assert stability["pool-consistency rho < 0"] == 1.0
        assert stability["P(P|PP) > 0.5"] == 1.0
        assert stability["P(A|AA) > 0.5"] == 1.0

    def test_metric_bands(self, summary):
        bands = summary.metric_bands()
        mean_pp, std_pp = bands["P(P|PP)"]
        assert mean_pp > 0.8
        assert std_pp < 0.1
        mean_higgs, _ = bands["J_final(higgs)"]
        mean_blm, _ = bands["J_final(blm)"]
        assert mean_higgs > mean_blm

    def test_render(self, summary):
        text = summary.render()
        assert "sign/ordering stability" in text
        assert "Metric bands" in text

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_replication(seeds=[])

    def test_empty_summary(self):
        summary = ReplicationSummary()
        assert summary.n == 0
        assert summary.sign_stability() == {}
        assert summary.metric_bands() == {}

    def test_render_names_failing_seeds(self):
        """A broken claim's row names the seeds that broke it."""

        summary = ReplicationSummary(outcomes=[
            _outcome(101),
            _outcome(202, likes_beta=-0.1),
            _outcome(303, j_first_last={"blm": 0.9, "higgs": 0.8},
                     likes_beta=-0.2),
        ])
        failing = summary.failing_seeds()
        assert failing["higgs most consistent"] == [303]
        assert failing["likes > 0"] == [202, 303]
        assert failing["duration < 0"] == []
        rows = {
            line.split("|")[1].strip(): line.split("|")[3].strip()
            for line in summary.render().splitlines()
            if line.count("|") == 6
        }
        assert rows["higgs most consistent"] == "303"
        assert rows["likes > 0"] == "202 303"
        assert rows["duration < 0"] == "-"
        assert not summary.all_claims_hold

    def test_margins_are_positive_exactly_when_claims_hold(self):
        """Margins give the old predicates' verdicts; a tie for the top
        keeps "higgs most consistent", a tie at a strict bound breaks it."""
        summary = ReplicationSummary(outcomes=[
            _outcome(101, j_first_last={"blm": 0.8, "brexit": 0.8,
                                        "higgs": 0.8}),
            _outcome(202, markov_pp=0.5, duration_beta=0.0),
            _outcome(303, j_first_last={"blm": 0.5, "higgs": 0.74,
                                        "brexit": 0.76},
                     pool_consistency_rho=-0.01),
        ])
        margins = summary.margins()
        assert margins["higgs most consistent"] == pytest.approx([0.0, 0.3, -0.02])
        assert margins["P(P|PP) > 0.5"] == pytest.approx([0.4, 0.0, 0.4])
        assert margins["duration < 0"] == pytest.approx([0.2, 0.0, 0.2])
        # The predicates the margins replace, on the same outcomes.
        predicates = {
            "duration < 0": lambda o: o.duration_beta < 0,
            "likes > 0": lambda o: o.likes_beta > 0,
            "higgs > 0": lambda o: o.higgs_beta > 0,
            "higgs most consistent":
                lambda o: o.j_first_last["higgs"] == max(o.j_first_last.values()),
            "pool-consistency rho < 0": lambda o: o.pool_consistency_rho < 0,
            "P(P|PP) > 0.5": lambda o: o.markov_pp > 0.5,
            "P(A|AA) > 0.5": lambda o: o.markov_aa > 0.5,
        }
        assert summary.failing_seeds() == {
            claim: [o.seed for o in summary.outcomes if not holds(o)]
            for claim, holds in predicates.items()
        }
        assert summary.failing_seeds()["higgs most consistent"] == [303]
        assert summary.failing_seeds()["P(P|PP) > 0.5"] == [202]
        assert summary.failing_seeds()["duration < 0"] == [202]
        assert summary.sign_stability()["higgs most consistent"] == pytest.approx(2 / 3)
        assert not summary.all_claims_hold
        tightest = summary.tightest()
        assert tightest["higgs most consistent"] == (pytest.approx(-0.02), 303)
        assert tightest["pool-consistency rho < 0"] == (pytest.approx(0.01), 303)
        rows = {
            line.split("|")[1].strip(): [cell.strip() for cell in line.split("|")[4:6]]
            for line in summary.render().splitlines()
            if line.count("|") == 6
        }
        assert rows["higgs most consistent"] == ["-0.020", "303"]
        assert rows["duration < 0"] == ["0", "202"]
        # Every claim holding, the tightest at a tie, is a pass.
        passing = ReplicationSummary(outcomes=summary.outcomes[:1])
        assert passing.all_claims_hold
        assert passing.tightest()["higgs most consistent"] == (0.0, 101)


def _outcome(seed, **overrides):
    """A hand-built replicate on which every claim holds unless overridden."""
    fields = dict(
        seed=seed, j_first_last={"blm": 0.5, "higgs": 0.8},
        markov_pp=0.9, markov_aa=0.8, duration_beta=-0.2,
        likes_beta=0.3, higgs_beta=0.4, pool_consistency_rho=-0.5,
    )
    fields.update(overrides)
    return ReplicateOutcome(**fields)


class TestVideoCategories:
    def test_by_id(self, fresh_service):
        response = fresh_service.video_categories.list(id="25")
        assert response["items"][0]["snippet"]["title"] == "News & Politics"
        assert response["items"][0]["id"] == "25"

    def test_by_region_lists_all(self, fresh_service):
        response = fresh_service.video_categories.list(regionCode="US")
        titles = {i["snippet"]["title"] for i in response["items"]}
        assert {"Sports", "Music", "Science & Technology"} <= titles

    def test_topic_categories_resolvable(self, fresh_service, small_specs):
        # Every category the topic specs use must resolve.
        ids = sorted({spec.category_id for spec in small_specs})
        response = fresh_service.video_categories.list(id=ids)
        assert len(response["items"]) == len(ids)

    def test_unknown_id_404(self, fresh_service):
        with pytest.raises(NotFoundError):
            fresh_service.video_categories.list(id="999")

    def test_requires_selector(self, fresh_service):
        with pytest.raises(BadRequestError):
            fresh_service.video_categories.list()

    def test_costs_one_unit(self, fresh_service):
        day = fresh_service.clock.today()
        before = fresh_service.quota.used_on(day)
        fresh_service.video_categories.list(regionCode="US")
        assert fresh_service.quota.used_on(day) == before + 1
