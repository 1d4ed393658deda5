"""Command-line interface: run the paper's pipeline without writing code.

Subcommands::

    python -m repro world       --scale 0.3 --seed 7
    python -m repro campaign    --scale 0.3 --collections 8 --out camp.jsonl
    python -m repro campaign    --scale 0.3 --collections 8 --spill camp.d/
    python -m repro analyze     camp.jsonl --all     # or: analyze camp.d/
    python -m repro export      camp.jsonl --out-dir csv/
    python -m repro inference   camp.jsonl
    python -m repro strategies  --topic worldcup --scale 0.3 --runs 4
    python -m repro serp        --topic grammys --fleet 5
    python -m repro budget      [--researcher]
    python -m repro replication --seeds 101 202 303
    python -m repro obs report  trace.jsonl
    python -m repro chaos       --scenario burst-500s
    python -m repro serve       --scale 0.3 --port 8080 --mint 2
    python -m repro loadgen     --requests 100 --concurrency 8
    python -m repro orchestrate --workdir orch/ --demo 3

``campaign`` runs the hour-binned audit on the paper's 5-day cadence and
persists it as JSONL; ``analyze`` re-renders any table/figure from a saved
campaign — the same separation of collection and analysis a real
measurement study has.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from datetime import datetime

from repro.util.timeutil import UTC

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for the IMC 2025 YouTube Search API audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    world = sub.add_parser("world", help="build a synthetic platform and summarize it")
    _common_world_args(world)

    campaign = sub.add_parser("campaign", help="run an audit campaign")
    _common_world_args(campaign)
    campaign.add_argument("--collections", type=int, default=8,
                          help="number of collections (paper: 16)")
    campaign.add_argument("--interval-days", type=int, default=5)
    campaign.add_argument("--comments", action="store_true",
                          help="capture comments on the first and last collections")
    campaign.add_argument("--out", metavar="PATH", default=None,
                          help="persist the campaign as JSONL")
    campaign.add_argument("--spill", metavar="DIR", default=None,
                          help="spill each snapshot to a disk-backed "
                               "columnar store as it completes (bounded "
                               "memory); the directory is the durable "
                               "campaign: rerunning over it resumes, "
                               "mid-snapshot crashes included, and "
                               "analyze/export read it directly")
    campaign.add_argument("--trace", metavar="PATH", default=None,
                          help="write a JSONL observability trace of the run "
                               "(render it with `repro obs report`)")
    campaign.add_argument("--engine", choices=("batch", "per-call"),
                          default="batch",
                          help="collection engine: whole-topic batched "
                               "sweeps with automatic per-topic fallback "
                               "(default), or the per-bin reference loop "
                               "(byte-identical either way)")
    campaign.add_argument("--analyze", action="store_true",
                          help="stream snapshots into the incremental "
                               "RQ1/RQ2 analysis and print its summary")
    campaign.add_argument("--quiet", action="store_true")

    analyze = sub.add_parser("analyze", help="render tables/figures from a saved campaign")
    analyze.add_argument("campaign_path", metavar="CAMPAIGN",
                         help="campaign JSONL file, or a --spill directory")
    analyze.add_argument("--table", action="append", type=int, choices=(1, 2, 4, 5),
                         default=None, help="render a numbered paper table")
    analyze.add_argument("--figure", action="append", type=int, choices=(1, 2, 3, 4),
                         default=None, help="render a numbered paper figure")
    analyze.add_argument("--regressions", action="store_true",
                         help="fit and render Tables 3, 6 and 7")
    analyze.add_argument("--all", action="store_true", dest="render_all")

    strategies = sub.add_parser("strategies", help="compare collection strategies")
    _common_world_args(strategies)
    strategies.add_argument("--topic", default="worldcup")
    strategies.add_argument("--runs", type=int, default=4)

    serp = sub.add_parser("serp", help="SERP-vs-API agreement audit")
    _common_world_args(serp)
    serp.add_argument("--topic", default="grammys")
    serp.add_argument("--fleet", type=int, default=5, help="sockpuppet fleet size")
    serp.add_argument("--k", type=int, default=20, help="page depth compared")

    export = sub.add_parser("export", help="export a saved campaign as tidy CSVs")
    export.add_argument("campaign_path", metavar="CAMPAIGN",
                        help="campaign JSONL file, or a --spill directory")
    export.add_argument("--out-dir", default="csv", help="directory for the bundle")

    budget = sub.add_parser("budget", help="quota budget of the paper's campaign design")
    budget.add_argument("--daily-limit", type=int, default=10_000)
    budget.add_argument("--researcher", action="store_true")

    inference = sub.add_parser(
        "inference", help="infer mechanism parameters from a saved campaign"
    )
    inference.add_argument("campaign_path", metavar="CAMPAIGN",
                           help="campaign JSONL file, or a --spill directory")
    inference.add_argument("--interval-days", type=float, default=5.0)

    replication = sub.add_parser(
        "replication", help="multi-seed stability check of the headline findings"
    )
    replication.add_argument("--seeds", type=int, nargs="+", default=[101, 202, 303])
    replication.add_argument("--scale", type=float, default=0.2)
    replication.add_argument("--collections", type=int, default=8)
    replication.add_argument("--workers", type=int, default=1,
                             help="replicate seeds in parallel worker "
                                  "processes (identical summary for any "
                                  "worker count)")

    obs = sub.add_parser("obs", help="observability reports over JSONL traces")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render the summary of a trace file: calls, quota "
                       "per endpoint and topic, retries, snapshots"
    )
    obs_report.add_argument("trace_path", metavar="TRACE_JSONL")

    chaos = sub.add_parser(
        "chaos", help="run a scripted fault scenario and assert invariants"
    )
    from repro.resilience.faults import SCENARIOS

    chaos.add_argument("--scenario", default="burst-500s",
                       choices=sorted(SCENARIOS),
                       help="named fault script (see --list)")
    chaos.add_argument("--list", action="store_true", dest="list_scenarios",
                       help="list scenarios and exit")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--scale", type=float, default=0.05,
                       help="corpus scale of the chaos mini-campaign")
    chaos.add_argument("--collections", type=int, default=2)
    chaos.add_argument("--trace", metavar="PATH", default=None,
                       help="export the faulted run's observability trace")

    serve = sub.add_parser(
        "serve", help="run the multi-tenant simulator service (see docs/SERVICE.md)"
    )
    _common_world_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listening port (0 = pick a free one)")
    serve.add_argument("--mint", type=int, default=1, metavar="N",
                       help="bootstrap N tenant keys and print their "
                            "credentials (0 = none; use the admin API)")
    serve.add_argument("--daily-limit", type=int, default=10_000,
                       help="daily quota of bootstrapped keys")
    serve.add_argument("--admin-token", default=None,
                       help="enable the /v1/keys admin routes, guarded by "
                            "this X-Admin-Token value")
    serve.add_argument("--key-file", metavar="PATH", default=None,
                       help="persist the key table as JSON (reloaded on "
                            "restart; credentials survive)")

    orchestrate = sub.add_parser(
        "orchestrate",
        help="run the crash-safe campaign orchestrator daemon "
             "(see docs/ORCHESTRATOR.md)",
    )
    orchestrate.add_argument("--workdir", required=True, metavar="DIR",
                             help="journal + campaign results live here; "
                                  "restarting over the same dir resumes "
                                  "every interrupted campaign exactly")
    orchestrate.add_argument("--scale", type=float, default=0.05,
                             help="corpus scale of the shared warm world")
    orchestrate.add_argument("--seed", type=int, default=7)
    orchestrate.add_argument("--host", default="127.0.0.1")
    orchestrate.add_argument("--port", type=int, default=0,
                             help="HTTP port for /v1/orchestrator "
                                  "(0 = pick a free one; server mode only)")
    orchestrate.add_argument("--max-running", type=int, default=2,
                             help="concurrent campaign worker threads")
    orchestrate.add_argument("--max-queued", type=int, default=8,
                             help="bounded admission queue depth")
    orchestrate.add_argument("--per-tenant", type=int, default=2,
                             help="max active campaigns per tenant key")
    orchestrate.add_argument("--daily-limit", type=int, default=None,
                             help="daily quota of minted demo keys "
                                  "(default: 10000, or 1000000 in --demo "
                                  "mode so the stock campaign admits)")
    orchestrate.add_argument("--demo", type=int, default=0, metavar="N",
                             help="headless mode: mint N tenant keys, submit "
                                  "one campaign each, run to completion, "
                                  "print state/sha256/units, exit")
    orchestrate.add_argument("--collections", type=int, default=3,
                             help="collections per demo campaign")
    orchestrate.add_argument("--interval-days", type=int, default=5)
    orchestrate.add_argument("--idle-timeout", type=float, default=300.0,
                             help="demo mode: seconds to wait for all "
                                  "campaigns to reach a terminal state")
    orchestrate.add_argument("--supervise", action="store_true",
                             help="run the daemon as a child process and "
                                  "restart it if it dies abnormally")
    orchestrate.add_argument("--max-restarts", type=int, default=3,
                             help="supervisor restart budget")

    loadgen = sub.add_parser(
        "loadgen", help="fire a search.list burst and report p50/p99/qps"
    )
    loadgen.add_argument("--host", default=None,
                         help="target a running server (with --port and "
                              "--key); default: self-contained in-process "
                              "server")
    loadgen.add_argument("--port", type=int, default=8080)
    loadgen.add_argument("--key", default=None, help="tenant credential")
    loadgen.add_argument("--requests", type=int, default=100)
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--scale", type=float, default=0.15,
                         help="world scale of the self-contained server")
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--as-of", default=None, metavar="RFC3339",
                         help="pin every request's asOf")
    loadgen.add_argument("--no-check", action="store_true",
                         help="self-contained mode: skip the byte-identity "
                              "check against the in-process reference")

    return parser


def _common_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.3,
                        help="corpus scale; 1.0 = the paper's full size, "
                             "values above 1.0 grow the world")


def _load_campaign(path: str):
    """A campaign from a JSONL file or a ``--spill`` directory."""
    import os

    if os.path.isdir(path):
        from repro.core.spill import SpillStore

        return SpillStore.open(path).load()
    from repro.core.datasets import CampaignResult

    return CampaignResult.load(path)


def _build(args, with_comments: bool, observer=None):
    from repro import build_service, build_world
    from repro.api.quota import QuotaPolicy
    from repro.world.corpus import scale_topics
    from repro.world.topics import paper_topics

    specs = scale_topics(paper_topics(), args.scale)
    world = build_world(
        specs, seed=args.seed, with_comments=with_comments, observer=observer
    )
    service = build_service(
        world, seed=args.seed, specs=specs,
        quota_policy=QuotaPolicy(researcher_program=True),
        observer=observer,
    )
    return specs, world, service


def _cmd_world(args) -> int:
    _specs, world, service = _build(args, with_comments=True)
    print(f"world (seed={args.seed}, scale={args.scale}): {world.summary()}")
    print(f"store: {service.store.summary()}")
    return 0


def _cmd_campaign(args) -> int:
    from repro.api import YouTubeClient
    from repro.core import paper_campaign_config, run_campaign

    observer = None
    if args.trace:
        from repro.obs import CampaignObserver

        observer = CampaignObserver()
    specs, _world, service = _build(
        args, with_comments=args.comments, observer=observer
    )
    config = paper_campaign_config(topics=specs, with_comments=args.comments)
    config = dataclasses.replace(
        config,
        n_scheduled=args.collections,
        interval_days=args.interval_days,
        skipped_indices=frozenset(),
        comment_snapshot_indices=(0, args.collections - 1) if args.comments else (),
    )
    progress = None if args.quiet else (
        lambda done, total: print(f"collected {done}/{total}", file=sys.stderr)
    )
    stream = None
    if args.analyze:
        from repro.core import CampaignStream

        stream = CampaignStream(tuple(spec.key for spec in specs))
    campaign = run_campaign(
        config, YouTubeClient(service), progress=progress,
        engine=args.engine, stream=stream, spill=args.spill,
    )
    if args.spill:
        from repro.core import SpillStore

        store = SpillStore.open(args.spill)
        print(
            f"campaign: {store.n_snapshots} collections spilled to "
            f"{args.spill}, {service.quota.total_used:,} quota units"
        )
    else:
        print(
            f"campaign: {campaign.n_collections} collections, "
            f"{service.quota.total_used:,} quota units"
        )
    if stream is not None:
        print(stream.render_summary())
    if args.out:
        if args.spill:
            n = store.export_jsonl(args.out)
        else:
            n = campaign.save(args.out)
        print(f"saved {n} records to {args.out}")
    if observer is not None:
        n_events = observer.export_trace(args.trace)
        print(f"traced {n_events} events to {args.trace}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.core import report
    from repro.world.topics import paper_topics

    campaign = _load_campaign(args.campaign_path)
    specs = tuple(
        spec for spec in paper_topics() if spec.key in campaign.topic_keys
    )
    tables = set(args.table or ())
    figures = set(args.figure or ())
    regressions = args.regressions
    if args.render_all or (not tables and not figures and not regressions):
        tables = {1, 2, 4, 5}
        figures = {1, 2, 3, 4}
        regressions = args.render_all

    renderers = {
        ("table", 1): lambda: report.render_table1(campaign, specs),
        ("table", 2): lambda: report.render_table2(campaign, specs),
        ("table", 4): lambda: report.render_table4(campaign, specs),
        ("table", 5): lambda: report.render_table5(campaign, specs),
        ("figure", 1): lambda: report.render_figure1(campaign, specs),
        ("figure", 2): lambda: report.render_figure2(campaign, specs),
        ("figure", 3): lambda: report.render_figure3(campaign),
        ("figure", 4): lambda: report.render_figure4(campaign, specs),
    }
    for kind, numbers in (("table", sorted(tables)), ("figure", sorted(figures))):
        for number in numbers:
            try:
                print(renderers[(kind, number)]())
            except ValueError as exc:
                print(f"[{kind} {number} unavailable: {exc}]", file=sys.stderr)
            print()

    if regressions:
        from repro.core.returnmodel import (
            build_regression_records,
            fit_binned_ordinal,
            fit_frequency_ols,
            fit_unbinned_ordinal,
        )

        records = build_regression_records(campaign)
        print(report.render_regression(
            fit_binned_ordinal(records, campaign.n_collections),
            "Table 3: binned ordinal (logit)",
        ))
        print()
        print(report.render_regression(fit_frequency_ols(records), "Table 6: OLS"))
        print()
        print(report.render_regression(
            fit_unbinned_ordinal(records), "Table 7: unbinned ordinal (cloglog)"
        ))
    return 0


def _cmd_strategies(args) -> int:
    from repro.api import YouTubeClient
    from repro.strategies import (
        ChannelPipelineStrategy,
        TimeSplitStrategy,
        TopicSplitStrategy,
        evaluate_strategy,
    )
    from repro.util.tables import render_table
    from repro.world.topics import topic_by_key

    specs, _world, service = _build(args, with_comments=False)
    client = YouTubeClient(service)
    spec = topic_by_key(args.topic, specs)
    start = datetime(2025, 2, 9, tzinfo=UTC)

    pipeline = ChannelPipelineStrategy.from_seed_search(client, spec, max_channels=60)
    rows = []
    for strategy in (TimeSplitStrategy(bin_hours=24), TopicSplitStrategy(), pipeline):
        ev = evaluate_strategy(strategy, client, spec, start, n_runs=args.runs)
        rows.append([
            ev.strategy, round(ev.j_successive_mean, 3), round(ev.j_first_last, 3),
            round(ev.coverage, 3), int(ev.units_per_run),
        ])
    print(render_table(
        ["strategy", "J successive", "J first-last", "coverage", "units/run"],
        rows,
        title=f"strategies on {spec.label} ({args.runs} runs)",
    ))
    return 0


def _cmd_serp(args) -> int:
    from repro.api import YouTubeClient
    from repro.core.serp_audit import serp_audit
    from repro.serp import SerpRanker, make_fleet
    from repro.world.topics import topic_by_key

    specs, _world, service = _build(args, with_comments=False)
    client = YouTubeClient(service)
    spec = topic_by_key(args.topic, specs)
    ranker = SerpRanker(service.store, seed=args.seed, page_size=args.k)
    fleet = make_fleet(args.fleet)
    result = serp_audit(client, ranker, fleet, spec, service.clock.now(), k=args.k)
    print(f"SERP audit: {spec.label!r}, fleet of {args.fleet}, k={args.k}")
    print(f"  mean overlap@{args.k} (API vs SERP): {result.mean_overlap:.3f}")
    print(f"  mean RBO (API vs SERP):             {result.mean_rbo:.3f}")
    print(f"  fleet self-overlap (noise floor):   {result.fleet_self_overlap:.3f}")
    return 0


def _cmd_export(args) -> int:
    from repro.core.export import export_all

    campaign = _load_campaign(args.campaign_path)
    paths = export_all(campaign, args.out_dir)
    for path in paths:
        print(path)
    return 0


def _cmd_budget(args) -> int:
    from repro.api.quota import QuotaPolicy
    from repro.core import paper_campaign_config
    from repro.core.economy import budget_campaign

    policy = QuotaPolicy(
        daily_limit=args.daily_limit, researcher_program=args.researcher
    )
    budget = budget_campaign(paper_campaign_config(), policy)
    print(budget.render())
    if not budget.snapshot_fits_in_a_day:
        print(
            "warning: a snapshot does not fit in one quota day — collection "
            "would smear and be internally inconsistent (see "
            "repro.core.smear)."
        )
    return 0


def _cmd_inference(args) -> int:
    from repro.core.inference import infer_mechanism

    campaign = _load_campaign(args.campaign_path)
    for topic in campaign.topic_keys:
        print(infer_mechanism(campaign, topic, interval_days=args.interval_days).summary)
    return 0


def _cmd_replication(args) -> int:
    from repro.core.replication import run_replication

    summary = run_replication(
        seeds=args.seeds, scale=args.scale, n_collections=args.collections,
        workers=args.workers,
    )
    print(summary.render())
    return 0


def _cmd_obs(args) -> int:
    from repro.core.report import render_observability
    from repro.obs import load_trace

    # Only `obs report` exists today; the subparser enforces that.
    print(render_observability(load_trace(args.trace_path)))
    return 0


def _cmd_chaos(args) -> int:
    import tempfile

    from repro.resilience.chaos import run_scenario
    from repro.resilience.faults import SCENARIOS

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            print(f"{name:20s} {SCENARIOS[name].description}")
        return 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        report = run_scenario(
            args.scenario, workdir, seed=args.seed, scale=args.scale,
            collections=args.collections, trace_path=args.trace,
        )
    print(report.render())
    if args.trace:
        print(f"traced to {args.trace}")
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import KeyTable, SimulatorServer, build_gateway

    # Credentials are random (secrets-based): the world is deterministic,
    # the keys must not be.  --key-file makes them survive restarts.
    import os

    if args.key_file and os.path.exists(args.key_file):
        keys = KeyTable.load(args.key_file)
        print(f"loaded {len(keys)} key(s) from {args.key_file}", file=sys.stderr)
    else:
        keys = KeyTable(path=args.key_file)
    print(f"building world (scale={args.scale}, seed={args.seed})...",
          file=sys.stderr)
    gateway = build_gateway(scale=args.scale, seed=args.seed, keys=keys)
    existing = len(keys.list())
    for i in range(args.mint):
        key = gateway.mint_key(
            label=f"bootstrap-{existing + i + 1}", daily_limit=args.daily_limit
        )
        print(f"key {key.key_id}: {key.credential}")
    server = SimulatorServer(
        gateway, host=args.host, port=args.port, admin_token=args.admin_token
    )

    async def main() -> None:
        host, port = await server.start()
        print(f"serving on http://{host}:{port} "
              f"(world: {gateway.world.summary()})", file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        gateway.close()
    return 0


def _orchestrate_supervise(args) -> int:
    """Supervisor restart loop: respawn the daemon child until it exits cleanly.

    The child is this same CLI minus ``--supervise``.  A clean exit (0) or a
    deliberate SIGTERM/SIGINT ends supervision; anything else — including
    SIGKILL, the chaos harness's favourite — burns one restart and respawns
    over the same workdir, where journal recovery resumes every campaign.
    """
    import signal
    import subprocess

    child_argv = [sys.executable, "-m", "repro", "orchestrate",
                  "--workdir", args.workdir,
                  "--scale", str(args.scale), "--seed", str(args.seed),
                  "--host", args.host, "--port", str(args.port),
                  "--max-running", str(args.max_running),
                  "--max-queued", str(args.max_queued),
                  "--per-tenant", str(args.per_tenant),
                  "--daily-limit", str(args.daily_limit),
                  "--collections", str(args.collections),
                  "--interval-days", str(args.interval_days),
                  "--idle-timeout", str(args.idle_timeout)]
    if args.demo:
        child_argv += ["--demo", str(args.demo)]
    child: subprocess.Popen | None = None

    def forward(signum, _frame):
        if child is not None and child.poll() is None:
            child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    restarts = 0
    while True:
        child = subprocess.Popen(child_argv)
        code = child.wait()
        if code == 0 or code in (-signal.SIGTERM, -signal.SIGINT):
            return 0
        if restarts >= args.max_restarts:
            print(f"supervisor: giving up after {restarts} restart(s) "
                  f"(last exit {code})", file=sys.stderr)
            return 1
        restarts += 1
        print(f"supervisor: daemon exited {code}; "
              f"restart {restarts}/{args.max_restarts}", file=sys.stderr)


def _cmd_orchestrate(args) -> int:
    import os
    import signal
    import threading
    import time

    from repro.orchestrator import OrchestratorDaemon, TERMINAL_STATES
    from repro.serve import KeyTable, ServeError, build_gateway

    if args.daily_limit is None:
        args.daily_limit = 1_000_000 if args.demo else 10_000
    if args.supervise:
        return _orchestrate_supervise(args)

    workdir = os.path.abspath(args.workdir)
    os.makedirs(workdir, exist_ok=True)
    key_path = os.path.join(workdir, "keys.json")
    if os.path.exists(key_path):
        keys = KeyTable.load(key_path, seed=args.seed)
        print(f"loaded {len(keys)} key(s) from {key_path}", file=sys.stderr)
    else:
        # Seeded: a demo rerun over a fresh workdir mints the same
        # credentials, which keeps kill-and-rerun scripts deterministic.
        keys = KeyTable(seed=args.seed, path=key_path)
    print(f"building world (scale={args.scale}, seed={args.seed})...",
          file=sys.stderr)
    gateway = build_gateway(scale=args.scale, seed=args.seed, keys=keys)
    daemon = OrchestratorDaemon(
        gateway, workdir,
        max_running=args.max_running, max_queued=args.max_queued,
        per_tenant_active=args.per_tenant,
    )
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    daemon.start()

    def finish() -> int:
        daemon.drain()
        gateway.close()
        failed = 0
        for payload in sorted(
            (c.to_status_dict() for c in daemon.state.campaigns.values()),
            key=lambda p: p["campaignId"],
        ):
            cid = payload["campaignId"]
            digest = daemon.result_sha256(cid)
            print(f"campaign {cid} key={payload['keyId']} "
                  f"state={payload['state']} "
                  f"snapshots={payload['snapshotsDone']} "
                  f"units={payload['quotaUnits']} "
                  f"sha256={digest or '-'}")
            if payload["state"] not in TERMINAL_STATES:
                failed += 1  # drained mid-queue; a restart resumes it
        for key in gateway.keys.list():
            usage = daemon.usage_for_key(key.key_id)
            total = sum(usage.values())
            print(f"usage {key.key_id}: {total} units over "
                  f"{len(usage)} day(s)")
        return 1 if failed and not stop.is_set() else 0

    if args.demo:
        while len(gateway.keys.list()) < args.demo:
            n = len(gateway.keys.list())
            key = gateway.mint_key(
                label=f"demo-{n + 1}", daily_limit=args.daily_limit
            )
            print(f"key {key.key_id}: {key.credential}", file=sys.stderr)
        with daemon._lock:
            keys_with_campaigns = {
                c.key_id for c in daemon.state.campaigns.values()
            }
        for key in gateway.keys.list():
            if key.key_id in keys_with_campaigns:
                continue  # recovered from the journal; already enqueued
            while not stop.is_set():
                try:
                    payload = daemon.submit(
                        key.credential,
                        collections=args.collections,
                        interval_days=args.interval_days,
                    )
                    print(f"submitted {payload['campaignId']} "
                          f"for {key.key_id}", file=sys.stderr)
                    break
                except ServeError as exc:
                    if exc.retry_after is None:
                        print(f"submit rejected for {key.key_id}: "
                              f"{exc.reason}: {exc.message}", file=sys.stderr)
                        break
                    time.sleep(0.05)  # backpressure: retry the 429 shortly
        deadline = time.monotonic() + args.idle_timeout
        while not stop.is_set() and time.monotonic() < deadline:
            if daemon.wait_idle(timeout=0.2):
                break
        return finish()

    # Server mode: expose /v1/orchestrator and run until SIGTERM/SIGINT.
    import asyncio

    from repro.serve import SimulatorServer

    server = SimulatorServer(
        gateway, host=args.host, port=args.port, orchestrator=daemon
    )

    async def main() -> None:
        host, port = await server.start()
        print(f"orchestrating on http://{host}:{port} "
              f"(world: {gateway.world.summary()})", file=sys.stderr)
        while not stop.is_set():
            await asyncio.sleep(0.2)
        await server.aclose()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    print("draining...", file=sys.stderr)
    return finish()


def _cmd_loadgen(args) -> int:
    from repro.serve.loadgen import run_loadgen, run_served_burst

    if args.host is not None:
        if not args.key:
            print("loadgen: --host requires --key", file=sys.stderr)
            return 2
        report = run_loadgen(
            args.host, args.port, args.key,
            requests=args.requests, concurrency=args.concurrency,
            as_of=args.as_of,
        )
        quota = None
    else:
        report, quota = run_served_burst(
            requests=args.requests, concurrency=args.concurrency,
            scale=args.scale, seed=args.seed, as_of=args.as_of,
            check_identity=not args.no_check,
        )
    print(f"requests: {report.requests}  ok: {report.ok}  errors: {report.errors}")
    print(f"wall: {report.wall_s:.3f}s  qps: {report.qps:.1f}")
    print(f"latency p50: {report.p50_ms:.2f}ms  p99: {report.p99_ms:.2f}ms")
    if not args.no_check and args.host is None:
        print(f"byte-identity mismatches: {report.mismatches}")
    if quota is not None:
        print(f"quota: {quota['totalUsed']:,} units "
              f"({quota['keyId']}, limit {quota['dailyLimit']:,})")
    return 1 if report.mismatches else 0


_COMMANDS = {
    "world": _cmd_world,
    "campaign": _cmd_campaign,
    "analyze": _cmd_analyze,
    "strategies": _cmd_strategies,
    "serp": _cmd_serp,
    "export": _cmd_export,
    "budget": _cmd_budget,
    "inference": _cmd_inference,
    "replication": _cmd_replication,
    "obs": _cmd_obs,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "orchestrate": _cmd_orchestrate,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
