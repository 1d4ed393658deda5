#!/usr/bin/env python3
"""Run a traced 2-snapshot mini-campaign and print the observability report.

One ``CampaignObserver`` attached at ``build_service`` instruments the
whole stack — every API call, quota charge, retry, topic sweep, and
snapshot boundary lands in one JSONL-exportable trace.  The script then
demonstrates the layer's core guarantee: the units the trace accounts
for equal the quota ledger's total exactly.

A pinch of fault injection is enabled so the retry columns are non-zero;
retries happen *before* billing, so they never distort the quota numbers.

Run:  python examples/observability_demo.py [--trace-out trace.jsonl]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro import CampaignObserver, YouTubeClient, build_service, build_world
from repro.api.quota import QuotaPolicy
from repro.api.transport import FaultInjector, LatencyModel, Transport
from repro.core import paper_campaign_config, run_campaign
from repro.obs import render_observability, summarize_events
from repro.world.corpus import scale_topics
from repro.world.topics import paper_topics

SEED = 7


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also export the JSONL trace (render it with `repro obs report`)",
    )
    args = parser.parse_args(argv)

    specs = scale_topics(paper_topics(), 0.05)
    world = build_world(specs, seed=SEED, with_comments=False)

    observer = CampaignObserver()
    service = build_service(
        world, seed=SEED, specs=specs,
        quota_policy=QuotaPolicy(researcher_program=True),
        transport=Transport(
            latency=LatencyModel(seed=SEED),
            faults=FaultInjector(probability=0.002, seed=SEED),
        ),
        observer=observer,
    )
    client = YouTubeClient(service)

    config = dataclasses.replace(
        paper_campaign_config(topics=specs, with_comments=False),
        n_scheduled=2, skipped_indices=frozenset(), comment_snapshot_indices=(),
    )
    print("running a 2-snapshot mini-campaign with tracing attached...",
          file=sys.stderr)
    campaign = run_campaign(config, client)

    summary = summarize_events(observer.tracer.iter_dicts())
    print(render_observability(summary))
    print()
    print(f"campaign: {campaign.n_collections} collections, "
          f"{len(observer.tracer)} trace events")

    # The acceptance invariant: the trace accounts for every billed unit.
    assert summary.total_units == service.quota.total_used, (
        summary.total_units, service.quota.total_used,
    )
    print(f"quota reconciliation: trace total {summary.total_units:,} "
          f"== ledger total {service.quota.total_used:,} ✓")

    if args.trace_out:
        n = observer.export_trace(args.trace_out)
        print(f"exported {n} events to {args.trace_out} "
              f"(render with: python -m repro obs report {args.trace_out})")


if __name__ == "__main__":
    main(sys.argv[1:])
