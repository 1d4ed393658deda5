"""Pinned Tables 3, 6 and 7: the rendered regressions must not move.

``tests/golden/regression_tables.json`` holds, for two small campaigns,
the ``render_regression`` text of Table 3 (binned ordinal, logit),
Table 6 (OLS) and Table 7 (unbinned ordinal, cloglog), plus each ordinal
fit's log-likelihood at full precision.  The values were recorded with
the L-BFGS-B fitter that preceded the Newton fitter in
``repro.stats.ordinal``.  A refit must print the same text and reach a
log-likelihood no lower than the pinned one (up to 1e-9 relative): a
fitter may only move a printed digit by finding a better optimum.

``tests/golden/analyze_all.json`` holds, for the same two campaigns,
everything ``repro analyze --all`` prints for the saved campaign: Tables
1, 2, 4 and 5, Figures 1-4 and the three regressions.  The text is
stored in full and compared block by block, so a failure names the
table or figure that moved.

Campaigns: the conftest ``mini_campaign`` (seed 20250209, scale 0.15,
10 collections) and one at seed 1001 (scale 0.1, 8 collections).

Regeneration of both files (only when the simulator's data model
legitimately changes, never to absorb a fitter's or an analysis's
drift)::

    PYTHONPATH=src python tests/test_regression_golden.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.api import QuotaPolicy, YouTubeClient, build_service
from repro.core import paper_campaign_config, report, run_campaign
from repro.core.returnmodel import (
    build_regression_records,
    fit_binned_ordinal,
    fit_frequency_ols,
    fit_unbinned_ordinal,
)
from repro.world import build_world
from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics

GOLDEN = Path(__file__).parent / "golden" / "regression_tables.json"
ANALYZE_GOLDEN = Path(__file__).parent / "golden" / "analyze_all.json"

# name -> (seed, scale, collections); "20250209" is conftest's mini_campaign.
CAMPAIGNS = {"20250209": (20250209, 0.15, 10), "1001": (1001, 0.1, 8)}


def build_campaign(seed: int, scale: float, collections: int):
    """The conftest ``mini_campaign`` recipe at any seed, scale and length."""
    specs = scale_topics(paper_topics(), scale)
    service = build_service(
        build_world(specs, seed=seed), seed=seed, specs=specs,
        quota_policy=QuotaPolicy(researcher_program=True),
    )
    config = dataclasses.replace(
        paper_campaign_config(topics=specs, with_comments=True),
        n_scheduled=collections,
        skipped_indices=frozenset(),
        comment_snapshot_indices=(0, collections - 1),
    )
    return run_campaign(config, YouTubeClient(service))


def pin(campaign) -> dict:
    """The three rendered tables and both ordinal log-likelihoods."""
    records = build_regression_records(campaign)
    table3 = fit_binned_ordinal(records, campaign.n_collections)
    table7 = fit_unbinned_ordinal(records)
    return {
        "table3": report.render_regression(table3, "Table 3: binned ordinal (logit)"),
        "table6": report.render_regression(fit_frequency_ols(records), "Table 6: OLS"),
        "table7": report.render_regression(
            table7, "Table 7: unbinned ordinal (cloglog)"
        ),
        "table3_log_likelihood": table3.log_likelihood,
        "table7_log_likelihood": table7.log_likelihood,
    }


def analyze_all(campaign, directory: Path) -> str:
    """The stdout of ``repro analyze --all`` on the saved campaign."""
    from repro.cli import main

    path = Path(directory) / "campaign.jsonl"
    campaign.save(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path), "--all"]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def campaigns(request) -> dict:
    return {
        name: (
            request.getfixturevalue("mini_campaign")
            if name == "20250209"
            else build_campaign(*recipe)
        )
        for name, recipe in CAMPAIGNS.items()
    }


@pytest.fixture(scope="module")
def pinned(campaigns) -> dict:
    golden = json.loads(GOLDEN.read_text())
    fitted = {}
    for name, recipe in CAMPAIGNS.items():
        assert golden[name]["campaign"] == list(recipe)
        fitted[name] = pin(campaigns[name])
    return {"golden": golden, "fitted": fitted}


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
@pytest.mark.parametrize("table", ["table3", "table6", "table7"])
def test_rendered_table_unchanged(pinned, campaign, table):
    assert pinned["fitted"][campaign][table] == pinned["golden"][campaign][table]


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
@pytest.mark.parametrize("table", ["table3", "table7"])
def test_log_likelihood_no_worse(pinned, campaign, table):
    key = f"{table}_log_likelihood"
    old = pinned["golden"][campaign][key]
    new = pinned["fitted"][campaign][key]
    assert new >= old - 1e-9 * abs(old), (new, old)


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_analyze_all_output_unchanged(campaigns, campaign, tmp_path):
    golden = json.loads(ANALYZE_GOLDEN.read_text())[campaign]
    assert golden["campaign"] == list(CAMPAIGNS[campaign])
    printed = analyze_all(campaigns[campaign], tmp_path)
    assert printed.split("\n\n") == golden["stdout"].split("\n\n")


if __name__ == "__main__":
    import tempfile

    built = {name: build_campaign(*recipe) for name, recipe in CAMPAIGNS.items()}
    GOLDEN.write_text(json.dumps({
        name: {"campaign": list(CAMPAIGNS[name]), **pin(campaign)}
        for name, campaign in built.items()
    }, indent=2) + "\n")
    with tempfile.TemporaryDirectory() as directory:
        ANALYZE_GOLDEN.write_text(json.dumps({
            name: {"campaign": list(CAMPAIGNS[name]),
                   "stdout": analyze_all(campaign, directory)}
            for name, campaign in built.items()
        }, indent=2) + "\n")
