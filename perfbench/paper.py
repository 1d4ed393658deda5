"""The ``paper`` workload: the paper's own audit, saved, reloaded, analysed.

World scale 1.0 and ``paper_campaign_config()`` unchanged: 17 scheduled
collections with 2025-04-05 skipped, so 16 x 4,032 hour bins, metadata on
every collection and comments on the first and last, on the serial batch
engine.  ``campaign_s`` is ``run_campaign`` plus ``CampaignResult.save``
(what ``repro campaign --comments --out`` costs); ``analysis_s`` is
``CampaignResult.load`` plus every table, figure and regression fit
(what ``repro analyze --all`` costs).
"""

from __future__ import annotations

import dataclasses
import hashlib
from contextlib import nullcontext
from pathlib import Path

from spans import clock

SHAPES = {
    "full": {"scale": 1.0, "topics": None, "collections": None},
    "tiny": {"scale": 0.05, "topics": 2, "collections": 3},
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def analyse(path: Path) -> str:
    """Everything ``repro analyze --all`` renders, as one text."""
    from repro.core import report
    from repro.core.datasets import CampaignResult
    from repro.core.returnmodel import (
        build_regression_records,
        fit_binned_ordinal,
        fit_frequency_ols,
        fit_unbinned_ordinal,
    )
    from repro.world.topics import paper_topics

    campaign = CampaignResult.load(path)
    specs = tuple(s for s in paper_topics() if s.key in campaign.topic_keys)
    parts = [
        report.render_table1(campaign, specs),
        report.render_table2(campaign, specs),
        report.render_table4(campaign, specs),
        report.render_table5(campaign, specs),
        report.render_figure1(campaign, specs),
        report.render_figure2(campaign, specs),
        report.render_figure3(campaign),
        report.render_figure4(campaign, specs),
    ]
    records = build_regression_records(campaign)
    parts.append(report.render_regression(
        fit_binned_ordinal(records, campaign.n_collections),
        "Table 3: binned ordinal (logit)",
    ))
    parts.append(report.render_regression(fit_frequency_ols(records), "Table 6: OLS"))
    parts.append(report.render_regression(
        fit_unbinned_ordinal(records), "Table 7: unbinned ordinal (cloglog)"
    ))
    return "\n\n".join(parts)


def run(seed: int, shape_name: str, workdir: Path, launched: float,
        tracer=None, setup_only: bool = False) -> dict:
    shape = SHAPES[shape_name]
    phase = tracer.span if tracer is not None else lambda _name: nullcontext()
    with phase("setup"):
        from repro import (
            YouTubeClient,
            build_service,
            build_world,
            paper_campaign_config,
            run_campaign,
        )
        from repro.api.quota import QuotaPolicy
        from repro.world.corpus import scale_topics
        from repro.world.topics import paper_topics

        specs = scale_topics(paper_topics(), shape["scale"])
        if shape["topics"]:
            specs = specs[: shape["topics"]]
        world = build_world(specs, seed=seed, with_comments=True)
        service = build_service(
            world, seed=seed, specs=specs,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        client = YouTubeClient(service)
        config = paper_campaign_config(topics=specs, with_comments=True)
        if shape["collections"]:
            n = shape["collections"]
            config = dataclasses.replace(
                config, n_scheduled=n, skipped_indices=frozenset(),
                comment_snapshot_indices=(0, n - 1),
            )
    setup_end = clock()
    if setup_only:
        return {"setup_s": setup_end - launched}
    path = workdir / "campaign.jsonl"
    with phase("campaign"):
        campaign = run_campaign(config, client)
        campaign.save(path)
    campaign_end = clock()
    with phase("analysis"):
        text = analyse(path)
    analysis_end = clock()

    transport_units: dict[str, int] = {}
    for record in service.transport.records:
        day = record.at.date().isoformat()
        transport_units[day] = transport_units.get(day, 0) + record.units
    calls = service.transport.calls_by_endpoint()
    return {
        "setup_s": setup_end - launched,
        "campaign_s": campaign_end - setup_end,
        "analysis_s": analysis_end - campaign_end,
        "attempted": service.transport.total_calls,
        "failed": 0,
        "outputs": {
            "campaign_sha256": sha256_of(path),
            "collections": campaign.n_collections,
            "expected_collections": config.n_collections,
            "usage_by_day": service.quota.usage_by_day(),
            "calls_by_endpoint": dict(sorted(calls.items())),
            "transport_units_by_day": dict(sorted(transport_units.items())),
            "analysis_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        },
    }
