"""Campaign performance benchmark: the instrument perf PRs are judged by.

Eight scenario kinds, each with its own primary metric:

* ``kind="campaign"`` (collection; metric ``campaign_s``) — world build,
  a single snapshot sweep, and the full campaign:

  - ``reduced``: corpus scale 0.2, 4 collections (quick smoke);
  - ``paper``: corpus scale 1.0, 16 collections — the paper's actual
    64,512-query audit workload.

* ``kind="analysis"`` (metric ``analysis_s``) — run a campaign once
  (untimed setup), then time :func:`analysis_battery`: the exact
  consistency / attrition / pools / regression call pattern the report
  and CSV-export layers issue, including their repeated calls.  The
  recorded baselines were measured with ``use_index=False`` (the
  pre-index implementations, kept verbatim as the equivalence oracle);
  the current run uses the columnar index (:mod:`repro.core.index`).
  ``analysis`` is the paper-scale workload; ``analysis-smoke`` the
  reduced one ``make verify`` runs.  Model *fitting* is excluded — it is
  identical arithmetic on both paths and would only dilute the number.

* ``kind="service"`` (metric ``serve_s``) — build the world untimed,
  stand up the multi-tenant service (:mod:`repro.serve`) in-process, and
  time one load-generator burst (:func:`repro.serve.loadgen.run_served_burst`
  at concurrency 8, every 200 body checked against the byte-identity
  oracle).  ``service`` is the standing workload; ``service-smoke`` the
  small burst ``make verify`` runs.  ``qps``/``p50_ms``/``p99_ms`` ride
  along as secondary metrics.

* ``kind="orchestrator"`` (metric ``orchestrate_s``) — build a small
  single-topic world untimed, stand up the crash-safe campaign
  orchestrator (:mod:`repro.orchestrator`) over a scratch workdir, and
  time the daemon driving several concurrent journaled campaigns from
  submit to completion (``campaigns_per_hour`` rides along as the
  derived throughput).  A second pass crashes one campaign mid-snapshot
  via the ``processCrash`` fault and reports ``recovery_s``: the wall
  time from constructing a fresh daemon over the crashed workdir
  (journal replay included) to that campaign's completion.

* ``kind="world"`` (metric ``world_build_s``) — time the columnar world
  builder at the scenario scale (10x the paper corpus for ``world``, 2x
  for the ``world-smoke`` run in ``make verify``), then stand up the
  platform store and force its census, then run the eager legacy builder
  on the same specs (``legacy_speedup`` rides along).  ``deep=True``
  extends the ladder one decade down and up (1x and 100x for ``world``),
  so the 100x build is timed on every full bench run.  The recorded
  baseline is the eager builder — the pre-columnar assembly path, kept
  verbatim as the byte-identity oracle — at the same scales.

* ``kind="spill"`` (metric ``spill_s``) — run the campaign spilling
  each snapshot to the disk-backed columnar store
  (:mod:`repro.core.spill`) with ``retain_snapshots=False``, so the
  durable campaign is produced while memory stays bounded by one
  snapshot.  ``reload_s`` (``SpillStore.open`` + the incremental
  :class:`~repro.core.index.CampaignIndex` grown one ``append_snapshot``
  at a time) and ``index_append_s`` (the pure O(delta) append wall time
  inside that reload) ride along.  The recorded baseline is the
  pre-spill way to make a campaign durable — ``checkpoint_path`` mode,
  which pays the same query-level sidecar plus an atomic rewrite of the
  *whole* growing campaign file after every snapshot (kept verbatim) —
  on the same workload shape; spill's per-snapshot cost is flat where
  the checkpoint rewrite grows with campaign length.

* ``kind="replication"`` (metric ``replication_s``) — time
  :func:`repro.core.replication.run_replication` over
  :data:`REPLICATION_SEEDS` at a small scale, serially.  The seed
  fan-out (``workers > 1``) is not timed: on the 2-vCPU reference
  machine a parallel wall time would mostly measure scheduler noise, so
  the parallel path is locked by serial==parallel equality tests.

* ``kind="collect"`` (metric ``collect_s``) — run the same campaign on
  the batch engine and on the per-call engine, each over a fresh world,
  assert byte identity (campaign sha256, quota ledger, call count), and
  report both wall times.

Collection is always serial; every scenario block records its ``kind``.

Results are written to ``BENCH_campaign.json`` together with the
recorded pre-optimization baseline (measured on the commit immediately
before the relevant fast path landed — per-scenario ``commit`` keys say
which) and the speedup against it, so the perf trajectory is tracked
in-repo from the first fast-path PR forward.

Run it via ``make bench``, ``python -m repro bench``, or
``python tools/bench_campaign.py``.  Wall times are machine-dependent;
the *speedup ratio* is the portable number, because baseline and current
run the same workload shape.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = [
    "RECORDED_BASELINE",
    "SCENARIOS",
    "PRIMARY_METRIC",
    "REPLICATION_SEEDS",
    "BenchScenario",
    "analysis_battery",
    "run_scenario",
    "run_benchmark",
    "write_report",
]

#: The benchmark's fixed seed: the paper campaign's start date.
BENCH_SEED = 20250209

#: The seeds every ``replication`` scenario run replicates over.
REPLICATION_SEEDS = (101, 202, 303)

#: The wall-time field speedups are computed from, per scenario kind.
PRIMARY_METRIC = {
    "campaign": "campaign_s",
    "spill": "spill_s",
    "analysis": "analysis_s",
    "replication": "replication_s",
    "service": "serve_s",
    "orchestrator": "orchestrate_s",
    "world": "world_build_s",
    "collect": "collect_s",
}

#: Pre-optimization timings, measured with this same harness logic on the
#: reference machine that recorded this file's first BENCH_campaign.json.
#: The campaign scenarios are pinned to commit f6be69b (the last commit
#: before the collection fast path); the analysis scenarios were measured
#: through ``use_index=False`` — the pre-index implementations, kept
#: verbatim as the equivalence oracle — and the replication scenario at
#: commit 8cae9a6 (re-recorded; see the entry's note), each new
#: scenario block carrying its own ``commit``.  Conservative minima over
#: repeated runs.  Speedups are computed against these wall times;
#: re-record them only if the workload shape (scales/collections/seed/
#: battery composition) changes — or, as with replication, when drift
#: in unrelated subsystems makes an old figure a silently tight gate.
RECORDED_BASELINE = {
    "commit": "f6be69b",
    "scenarios": {
        "reduced": {
            "world_build_s": 0.5501,
            "snapshot_s": 2.4954,
            "campaign_s": 5.5405,
            "queries": 16_128,
            "queries_per_s": 2910.9,
        },
        "paper": {
            "world_build_s": 2.6693,
            "snapshot_s": 4.1482,
            "campaign_s": 29.5462,
            "queries": 64_512,
            "queries_per_s": 2183.4,
        },
        # The spill baseline is ``checkpoint_path`` mode — the pre-spill
        # durable-campaign path (commit 716689a, the last commit before
        # the spill store), which rewrites the whole campaign file after
        # every snapshot — on the same scale-0.2 x 8-collection workload,
        # measured best-of-two like the scenario itself.
        "spill": {
            "commit": "716689a",
            "kind": "spill",
            "spill_s": 4.6416,
        },
        "analysis": {
            "commit": "eaf91d5",
            "kind": "analysis",
            "use_index": False,
            "analysis_s": 0.6012,
            "records": 5334,
            "sequences": 5339,
        },
        "analysis-smoke": {
            "commit": "eaf91d5",
            "kind": "analysis",
            "use_index": False,
            "analysis_s": 0.0487,
            "records": 872,
            "sequences": 875,
        },
        # Re-recorded at 8cae9a6 (best of two on the reference machine):
        # the original eaf91d5 figure (4.2986s) predated the spill and
        # store work and had drifted to a silently tight 0.87x against
        # current code — within noise of tripping the 20% regression
        # gate for reasons unrelated to any analysis change.  See
        # docs/PERFORMANCE.md ("Baseline hygiene").
        "replication": {
            "commit": "8cae9a6",
            "kind": "replication",
            "seeds": [101, 202, 303],
            "replication_s": 4.8509,
        },
        "service": {
            "commit": "5be79b3",
            "kind": "service",
            "requests": 150,
            "concurrency": 8,
            "serve_s": 0.55,
        },
        "service-smoke": {
            "commit": "5be79b3",
            "kind": "service",
            "requests": 30,
            "concurrency": 8,
            "serve_s": 0.16,
        },
        "orchestrator": {
            "commit": "46749b4",
            "kind": "orchestrator",
            "campaigns": 4,
            "collections": 2,
            "orchestrate_s": 1.10,
            "recovery_s": 0.30,
        },
        # World baselines are measured through ``use_columnar=False`` —
        # the eager assembly path kept verbatim as the byte-identity
        # oracle — because the pre-columnar builder (commit fea4f06)
        # rejected scales above 1.0 outright.
        "world": {
            "commit": "fea4f06",
            "kind": "world",
            "scale": 10.0,
            "videos": 75_150,
            "world_build_s": 21.8295,
        },
        "world-smoke": {
            "commit": "fea4f06",
            "kind": "world",
            "scale": 2.0,
            "videos": 15_030,
            "world_build_s": 2.1067,
        },
        # The collect baseline is the per-call collection path (commit
        # 8cae9a6, the last commit before the batched sweep engine) on
        # the same scale-0.2 x 2-collection workload.  The per-call path
        # is kept verbatim as the batch engine's byte-identity oracle,
        # so the scenario also re-measures it every run (``percall_s``).
        "collect-smoke": {
            "commit": "8cae9a6",
            "kind": "collect",
            "collect_s": 1.3035,
        },
    },
}

@dataclass(frozen=True)
class BenchScenario:
    """One benchmark workload: corpus scale, collections, kind."""

    scale: float
    collections: int
    kind: str = "campaign"
    #: ``kind="service"`` only: burst size fired at the served API.
    requests: int = 0
    #: ``kind="orchestrator"`` only: concurrent campaigns to orchestrate.
    campaigns: int = 0
    #: ``kind="world"`` only: also time the columnar builder one decade
    #: below and above the scenario scale (the 1x/10x/100x ladder).
    deep: bool = False

    def __post_init__(self) -> None:
        if self.kind == "world":
            # World builds are the one workload meant to outgrow the
            # paper's corpus: any positive scale is a valid build size.
            if not self.scale > 0.0:
                raise ValueError("scale must be positive")
        elif not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.collections < 1:
            raise ValueError("collections must be positive")
        if self.kind not in PRIMARY_METRIC:
            raise ValueError(f"kind must be one of {sorted(PRIMARY_METRIC)}")
        if self.kind == "service" and self.requests < 1:
            raise ValueError("service scenarios need requests >= 1")
        if self.kind == "orchestrator" and self.campaigns < 1:
            raise ValueError("orchestrator scenarios need campaigns >= 1")


SCENARIOS: dict[str, BenchScenario] = {
    "reduced": BenchScenario(scale=0.2, collections=4),
    "spill": BenchScenario(scale=0.2, collections=8, kind="spill"),
    "paper": BenchScenario(scale=1.0, collections=16),
    "analysis": BenchScenario(scale=1.0, collections=16, kind="analysis"),
    "analysis-smoke": BenchScenario(scale=0.2, collections=4, kind="analysis"),
    "replication": BenchScenario(scale=0.12, collections=6, kind="replication"),
    "service": BenchScenario(
        scale=0.3, collections=1, kind="service", requests=150
    ),
    "service-smoke": BenchScenario(
        scale=0.12, collections=1, kind="service", requests=30
    ),
    "orchestrator": BenchScenario(
        scale=0.05, collections=2, kind="orchestrator", campaigns=4
    ),
    "collect-smoke": BenchScenario(scale=0.2, collections=2, kind="collect"),
    "world": BenchScenario(scale=10.0, collections=1, kind="world", deep=True),
    "world-smoke": BenchScenario(scale=2.0, collections=1, kind="world"),
}


def analysis_battery(campaign, use_index: bool = True) -> dict:
    """The report + export analysis call pattern, as one timeable unit.

    Mirrors what ``repro analyze --all`` followed by ``repro export``
    actually issues — including the *repeated* calls (Figure 1 is
    rendered and exported; the attrition chain feeds both Figure 3
    views; the three regression tables each assemble records) that the
    legacy path pays per call and the index memoizes.  Returns summary
    counts so callers can sanity-check both paths did the same work.
    """
    from repro.core.attrition import attrition_analysis, presence_sequences
    from repro.core.consistency import (
        consistency_series,
        gap_aware_consistency_series,
    )
    from repro.core.pools import pool_stats
    from repro.core.returnmodel import build_regression_design, build_regression_records

    points = 0
    for topic in campaign.topic_keys:
        # Figure 1 is rendered (report) and exported (CSV bundle).
        for _ in range(2):
            points += len(consistency_series(campaign, topic, use_index=use_index))
        points += len(
            gap_aware_consistency_series(campaign, topic, use_index=use_index)
        )
        # Table 4 is rendered and exported; the pool/consistency coupling
        # re-reads both series.
        for _ in range(2):
            pool_stats(campaign, topic, use_index=use_index)
        consistency_series(campaign, topic, use_index=use_index)
    # Figure 3 rendered + exported, plus the degraded-robustness variant.
    sequences = len(presence_sequences(campaign, use_index=use_index))
    attrition_analysis(campaign, use_index=use_index)
    attrition_analysis(campaign, use_index=use_index)
    attrition_analysis(campaign, skip_degraded=True, use_index=use_index)
    # Tables 3/6/7 each assemble the records and design (fits excluded:
    # identical arithmetic on both paths).
    records = 0
    for _ in range(3):
        recs = build_regression_records(campaign, use_index=use_index)
        records = len(recs)
        build_regression_design(recs)
    return {"points": points, "sequences": sequences, "records": records}


def run_scenario(
    scenario: BenchScenario,
    seed: int = BENCH_SEED,
    progress: Callable[[str], None] | None = None,
    use_index: bool = True,
) -> dict:
    """Run one scenario, timing its kind's phases.

    ``kind="campaign"`` returns phase wall times and derived throughput;
    the snapshot phase is measured as the first collection of a
    *separate* warm service so the campaign number stays a clean
    end-to-end figure.  ``kind="analysis"`` runs the campaign untimed,
    then times :func:`analysis_battery` (``use_index=False`` reproduces
    how the recorded baselines were measured).  ``kind="replication"``
    times :func:`~repro.core.replication.run_replication` over
    :data:`REPLICATION_SEEDS`.  ``kind="collect"`` runs the same campaign
    twice — batch engine, then the per-call oracle, each on a fresh
    world — verifies byte identity (campaign sha256, quota ledger, call
    count) and reports both wall times.
    """
    from repro import build_service, build_world
    from repro.api.client import YouTubeClient
    from repro.api.quota import QuotaPolicy
    from repro.core.campaign import run_campaign
    from repro.core.collector import SnapshotCollector
    from repro.core.experiments import paper_campaign_config
    from repro.world.corpus import scale_topics
    from repro.world.topics import paper_topics

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    if scenario.kind == "replication":
        from repro.core.replication import run_replication

        note(
            f"replicating seeds {list(REPLICATION_SEEDS)} "
            f"(scale {scenario.scale}, {scenario.collections} collections) ..."
        )
        t0 = time.perf_counter()
        summary = run_replication(
            list(REPLICATION_SEEDS),
            scale=scenario.scale,
            n_collections=scenario.collections,
        )
        replication_s = time.perf_counter() - t0
        return {
            "kind": scenario.kind,
            "scale": scenario.scale,
            "collections": scenario.collections,
            "seeds": list(REPLICATION_SEEDS),
            "replication_s": round(replication_s, 4),
            "replicates": summary.n,
            "all_claims_hold": summary.all_claims_hold,
        }

    if scenario.kind == "orchestrator":
        import tempfile

        from repro.orchestrator import OrchestratorDaemon
        from repro.resilience.faults import FaultPlan, FaultSpec
        from repro.serve.gateway import build_gateway
        from repro.serve.keys import KeyTable
        from repro.world.corpus import scale_topic

        # The orchestrator workload is dominated by daemon mechanics
        # (journal fsyncs, admission, checkpoints), not corpus size: one
        # scaled topic with a one-day window keeps each snapshot at 48
        # queries so the clock measures the daemon, not the world.
        smallest = min(paper_topics(), key=lambda spec: spec.n_videos)
        spec = dataclasses.replace(
            scale_topic(smallest, scenario.scale), window_days=1
        )
        note(f"building world (single topic, scale {scenario.scale}, untimed) ...")
        world = build_world((spec,), seed=seed, with_comments=False)
        gateway = build_gateway(
            world=world, specs=(spec,), seed=seed, keys=KeyTable(seed=seed)
        )
        try:
            with tempfile.TemporaryDirectory(prefix="repro_bench_orch_") as tmp:
                workdir = Path(tmp)
                note(
                    f"orchestrating {scenario.campaigns} campaigns x "
                    f"{scenario.collections} collections ..."
                )
                daemon = OrchestratorDaemon(
                    gateway, workdir / "main",
                    max_queued=scenario.campaigns,
                )
                daemon.start()
                keys = [
                    gateway.mint_key(daily_limit=10_000)
                    for _ in range(scenario.campaigns)
                ]
                t0 = time.perf_counter()
                for key in keys:
                    daemon.submit(
                        key.credential, collections=scenario.collections
                    )
                if not daemon.wait_idle(timeout=600):
                    raise RuntimeError("orchestrator benchmark did not settle")
                orchestrate_s = time.perf_counter() - t0
                daemon.drain()
                units = sum(
                    sum(daemon.usage_for_key(key.key_id).values())
                    for key in keys
                )

                note("crashing one campaign mid-snapshot, timing recovery ...")
                crash_key = gateway.mint_key(daily_limit=10_000)
                crashed = OrchestratorDaemon(gateway, workdir / "crash")
                crashed.fault_factory = lambda cid: FaultPlan(
                    (FaultSpec(start=24, count=1, error="processCrash"),)
                )
                crashed.start()
                cid = crashed.submit(
                    crash_key.credential, collections=scenario.collections
                )["campaignId"]
                deadline = time.monotonic() + 600
                while cid not in crashed.crashed_campaigns:
                    if time.monotonic() > deadline:
                        raise RuntimeError("injected crash never landed")
                    time.sleep(0.01)
                t0 = time.perf_counter()
                recovered = OrchestratorDaemon(gateway, workdir / "crash")
                recovered.start()
                if not recovered.wait_idle(timeout=600):
                    raise RuntimeError("crash recovery did not settle")
                recovery_s = time.perf_counter() - t0
                recovered.drain()
        finally:
            gateway.close()
        return {
            "kind": scenario.kind,
            "scale": scenario.scale,
            "collections": scenario.collections,
            "campaigns": scenario.campaigns,
            "orchestrate_s": round(orchestrate_s, 4),
            "campaigns_per_hour": round(
                scenario.campaigns * 3600.0 / orchestrate_s, 1
            ),
            "recovery_s": round(recovery_s, 4),
            "units": units,
        }

    specs = scale_topics(paper_topics(), scenario.scale)

    if scenario.kind == "spill":
        import tempfile

        from repro.core.spill import SpillStore

        note(f"building world (scale {scenario.scale}, untimed) ...")
        world = build_world(specs, seed=seed)
        config = dataclasses.replace(
            paper_campaign_config(topics=specs),
            n_scheduled=scenario.collections,
            skipped_indices=frozenset(),
        )
        # Best of two runs: the spill-vs-checkpoint margin is structural
        # but modest (both pay the same query-level sidecar), so a single
        # sample is hostage to scheduler noise in a way the multi-x
        # scenarios above are not.  The baseline was recorded best-of-two
        # the same way.
        spill_s = None
        for attempt in range(2):
            service = build_service(
                world, seed=seed, specs=specs,
                quota_policy=QuotaPolicy(researcher_program=True),
            )
            with tempfile.TemporaryDirectory(prefix="repro_bench_spill_") as tmp:
                directory = Path(tmp) / "campaign"
                note(
                    f"running spilled campaign ({scenario.collections} "
                    f"collections, retain_snapshots=False, "
                    f"run {attempt + 1}/2) ..."
                )
                t0 = time.perf_counter()
                run_campaign(
                    config, YouTubeClient(service),
                    spill=directory, retain_snapshots=False,
                )
                elapsed = time.perf_counter() - t0
                spill_s = elapsed if spill_s is None else min(spill_s, elapsed)
                store = SpillStore.open(directory)
                note(
                    "reloading: incremental index over the spilled "
                    "snapshots ..."
                )
                t0 = time.perf_counter()
                index = store.build_index()
                reload_s = time.perf_counter() - t0
                total_bytes = store.total_bytes
                snapshots = store.n_snapshots
        return {
            "kind": scenario.kind,
            "scale": scenario.scale,
            "collections": scenario.collections,
            "spill_s": round(spill_s, 4),
            "reload_s": round(reload_s, 4),
            "index_append_s": round(index.append_wall_s, 4),
            "snapshots": snapshots,
            "videos": sum(
                index.topic(key).n_videos for key in index.topic_keys
            ),
            "data_bytes": total_bytes,
        }

    if scenario.kind == "world":
        from repro.world.store import PlatformStore

        results: dict = {
            "kind": scenario.kind,
            "scale": scenario.scale,
            "collections": scenario.collections,
            "deep": scenario.deep,
        }
        note(f"building world (scale {scenario.scale:g}, columnar) ...")
        t0 = time.perf_counter()
        world = build_world(specs, seed=seed)
        results["world_build_s"] = round(time.perf_counter() - t0, 4)
        summary = world.summary()
        results["videos"] = summary["videos"]
        results["channels"] = summary["channels"]

        note("standing up the platform store (census forced) ...")
        t0 = time.perf_counter()
        store = PlatformStore(world)
        store.summary()
        results["store_build_s"] = round(time.perf_counter() - t0, 4)

        if scenario.deep:
            for label, extra in (
                ("down", scenario.scale / 10.0),
                ("up", scenario.scale * 10.0),
            ):
                extra_specs = scale_topics(paper_topics(), extra)
                note(f"building world (scale {extra:g}, columnar) ...")
                t0 = time.perf_counter()
                extra_world = build_world(extra_specs, seed=seed)
                results[f"world_build_{label}_s"] = round(
                    time.perf_counter() - t0, 4
                )
                results[f"scale_{label}"] = extra
                results[f"videos_{label}"] = extra_world.summary()["videos"]

        note(f"building world (scale {scenario.scale:g}, legacy oracle) ...")
        t0 = time.perf_counter()
        build_world(specs, seed=seed, use_columnar=False)
        results["legacy_build_s"] = round(time.perf_counter() - t0, 4)
        results["legacy_speedup"] = round(
            results["legacy_build_s"] / results["world_build_s"], 2
        )
        return results

    if scenario.kind == "service":
        from repro.serve.gateway import build_gateway
        from repro.serve.loadgen import run_served_burst

        note(f"building world (scale {scenario.scale}, untimed) ...")
        world = build_world(specs, seed=seed)
        gateway = build_gateway(seed=seed, world=world, specs=specs)
        try:
            note(
                f"serving burst ({scenario.requests} requests, "
                f"concurrency 8, byte-identity checked) ..."
            )
            burst, _quota = run_served_burst(
                requests=scenario.requests, concurrency=8, seed=seed,
                gateway=gateway, check_identity=True,
            )
        finally:
            gateway.close()
        return {
            "kind": scenario.kind,
            "scale": scenario.scale,
            "collections": scenario.collections,
            "requests": burst.requests,
            "concurrency": 8,
            "serve_s": round(burst.wall_s, 4),
            "qps": round(burst.qps, 1),
            "p50_ms": round(burst.p50_ms, 3),
            "p99_ms": round(burst.p99_ms, 3),
            "ok": burst.ok,
            "mismatches": burst.mismatches,
        }

    if scenario.kind == "analysis":
        note(f"building world (scale {scenario.scale}) ...")
        world = build_world(specs, seed=seed)
        config = dataclasses.replace(
            paper_campaign_config(topics=specs),
            n_scheduled=scenario.collections,
            skipped_indices=frozenset(),
        )
        note(f"running campaign ({scenario.collections} collections, untimed) ...")
        service = build_service(
            world, seed=seed, specs=specs,
            quota_policy=QuotaPolicy(researcher_program=True),
        )
        t0 = time.perf_counter()
        campaign = run_campaign(config, YouTubeClient(service))
        setup_s = time.perf_counter() - t0
        campaign.__dict__.pop("_index", None)  # time a cold index build
        path = "index" if use_index else "legacy"
        note(f"timing analysis battery ({path} path) ...")
        t0 = time.perf_counter()
        stats = analysis_battery(campaign, use_index=use_index)
        analysis_s = time.perf_counter() - t0
        return {
            "kind": scenario.kind,
            "scale": scenario.scale,
            "collections": scenario.collections,
            "use_index": use_index,
            "setup_s": round(setup_s, 4),
            "analysis_s": round(analysis_s, 4),
            **stats,
        }

    if scenario.kind == "collect":
        import hashlib
        import tempfile

        config = dataclasses.replace(
            paper_campaign_config(topics=specs),
            n_scheduled=scenario.collections,
            skipped_indices=frozenset(),
        )
        policy = QuotaPolicy(researcher_program=True)

        def timed_run(engine: str) -> dict:
            # Fresh world per engine: the lazy columnar caches (postings,
            # comment threads, time index) warm during the first campaign,
            # which would bias whichever engine happened to run second on
            # a shared world.
            note(f"building world (scale {scenario.scale}, untimed) ...")
            world = build_world(specs, seed=seed)
            service = build_service(
                world, seed=seed, specs=specs, quota_policy=policy
            )
            client = YouTubeClient(service)
            note(
                f"running {engine} campaign "
                f"({scenario.collections} collections) ..."
            )
            t0 = time.perf_counter()
            result = run_campaign(config, client, engine=engine)
            elapsed = time.perf_counter() - t0
            with tempfile.TemporaryDirectory(
                prefix="repro_bench_collect_"
            ) as tmp:
                path = Path(tmp) / "campaign.json"
                result.save(path)
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
            return {
                "elapsed": elapsed,
                "sha256": sha,
                "usage_by_day": dict(
                    sorted(service.quota.usage_by_day().items())
                ),
                "calls": service.transport.total_calls,
            }

        batch = timed_run("batch")
        percall = timed_run("per-call")
        if batch["sha256"] != percall["sha256"]:
            raise RuntimeError(
                "batch/per-call campaign files diverged: "
                f"{batch['sha256'][:16]} != {percall['sha256'][:16]}"
            )
        if batch["usage_by_day"] != percall["usage_by_day"]:
            raise RuntimeError("batch/per-call quota ledgers diverged")
        if batch["calls"] != percall["calls"]:
            raise RuntimeError(
                "batch/per-call transport call counts diverged: "
                f"{batch['calls']} != {percall['calls']}"
            )
        return {
            "kind": scenario.kind,
            "scale": scenario.scale,
            "collections": scenario.collections,
            "collect_s": round(batch["elapsed"], 4),
            "percall_s": round(percall["elapsed"], 4),
            "sweep_speedup": round(
                percall["elapsed"] / batch["elapsed"], 2
            ),
            "sha256": batch["sha256"],
            "identical": True,
            "calls": batch["calls"],
            "units": sum(batch["usage_by_day"].values()),
        }

    note(f"building world (scale {scenario.scale}) ...")
    t0 = time.perf_counter()
    world = build_world(specs, seed=seed)
    world_build_s = time.perf_counter() - t0

    policy = QuotaPolicy(researcher_program=True)

    def make_client() -> YouTubeClient:
        service = build_service(world, seed=seed, specs=specs, quota_policy=policy)
        return YouTubeClient(service)

    note("timing one snapshot sweep ...")
    client = make_client()
    collector = SnapshotCollector(client, specs)
    t0 = time.perf_counter()
    collector.collect(0)
    snapshot_s = time.perf_counter() - t0

    config = paper_campaign_config(topics=specs)
    config = dataclasses.replace(
        config,
        n_scheduled=scenario.collections,
        skipped_indices=frozenset(),
    )
    queries = config.queries_per_snapshot * scenario.collections

    note(f"running campaign ({scenario.collections} collections, {queries} queries) ...")
    client = make_client()
    t0 = time.perf_counter()
    run_campaign(config, client)
    campaign_s = time.perf_counter() - t0

    return {
        "kind": scenario.kind,
        "scale": scenario.scale,
        "collections": scenario.collections,
        "world_build_s": round(world_build_s, 4),
        "snapshot_s": round(snapshot_s, 4),
        "campaign_s": round(campaign_s, 4),
        "queries": queries,
        "queries_per_s": round(queries / campaign_s, 1) if campaign_s > 0 else None,
    }


def run_benchmark(
    names: tuple[str, ...] = (
        "reduced", "spill", "paper", "collect-smoke",
        "analysis", "analysis-smoke", "replication", "service",
        "service-smoke", "orchestrator", "world", "world-smoke",
    ),
    seed: int = BENCH_SEED,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the named scenarios and attach baseline comparisons.

    Speedups compare each scenario kind's primary metric
    (:data:`PRIMARY_METRIC`) against its recorded baseline.
    """
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; known: {sorted(SCENARIOS)}")
    scenarios: dict[str, dict] = {}
    for name in names:
        if progress is not None:
            progress(f"[{name}]")
        current = run_scenario(SCENARIOS[name], seed=seed, progress=progress)
        metric = PRIMARY_METRIC[SCENARIOS[name].kind]
        baseline = RECORDED_BASELINE["scenarios"].get(name)
        entry: dict = {"current": current}
        if baseline is not None and current.get(metric):
            entry["baseline"] = baseline
            entry["speedup"] = round(baseline[metric] / current[metric], 2)
        scenarios[name] = entry
    return {
        "seed": seed,
        "baseline_commit": RECORDED_BASELINE["commit"],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenarios": scenarios,
    }


def write_report(report: dict, path: str | Path = "BENCH_campaign.json") -> Path:
    """Write the benchmark report as pretty JSON; returns the path.

    Parent directories are created, so ``--out`` can point into a results
    directory that does not exist yet.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def format_report(report: dict) -> str:
    """Human-readable one-screen summary of a benchmark report."""
    lines = [f"campaign benchmark (seed {report['seed']})"]
    for name, entry in report["scenarios"].items():
        cur = entry["current"]
        kind = cur.get("kind", "campaign")
        if kind == "analysis":
            line = (
                f"  {name:14s} {'index' if cur['use_index'] else 'legacy'} | "
                f"setup {cur['setup_s']:.3f}s | "
                f"analysis {cur['analysis_s']:.3f}s "
                f"({cur['records']} records, {cur['sequences']} sequences)"
            )
        elif kind == "spill":
            line = (
                f"  {name:14s} | "
                f"spill {cur['spill_s']:.3f}s | "
                f"reload {cur['reload_s']:.3f}s "
                f"(append {cur['index_append_s']:.3f}s, "
                f"{cur['snapshots']} snapshots, {cur['videos']} videos, "
                f"{cur['data_bytes']} bytes)"
            )
        elif kind == "replication":
            line = (
                f"  {name:14s} | "
                f"replication {cur['replication_s']:.3f}s "
                f"({cur['replicates']} seeds, "
                f"claims hold: {cur['all_claims_hold']})"
            )
        elif kind == "orchestrator":
            line = (
                f"  {name:14s} x{cur['campaigns']} | "
                f"orchestrate {cur['orchestrate_s']:.3f}s "
                f"({cur['campaigns_per_hour']} campaigns/h, "
                f"recovery {cur['recovery_s']:.3f}s, {cur['units']} units)"
            )
        elif kind == "world":
            line = (
                f"  {name:14s} scale {cur['scale']:g} | "
                f"columnar {cur['world_build_s']:.3f}s | "
                f"store {cur['store_build_s']:.3f}s | "
                f"legacy {cur['legacy_build_s']:.3f}s "
                f"({cur['videos']} videos, "
                f"{cur['legacy_speedup']}x vs legacy)"
            )
            if cur.get("deep"):
                line += (
                    f" | ladder {cur['world_build_down_s']:.3f}s @"
                    f"{cur['scale_down']:g} / "
                    f"{cur['world_build_up_s']:.3f}s @{cur['scale_up']:g}"
                )
        elif kind == "collect":
            line = (
                f"  {name:14s} | "
                f"batch {cur['collect_s']:.3f}s | "
                f"per-call {cur['percall_s']:.3f}s "
                f"({cur['sweep_speedup']}x sweep, {cur['calls']} calls, "
                f"identical: {cur['identical']})"
            )
        elif kind == "service":
            line = (
                f"  {name:14s} c{cur['concurrency']} | "
                f"burst {cur['serve_s']:.3f}s "
                f"({cur['requests']} requests, {cur['qps']} q/s, "
                f"p50 {cur['p50_ms']:.2f}ms, p99 {cur['p99_ms']:.2f}ms, "
                f"{cur['mismatches']} mismatches)"
            )
        else:
            line = (
                f"  {name:14s} | "
                f"world {cur['world_build_s']:.3f}s | "
                f"snapshot {cur['snapshot_s']:.3f}s | "
                f"campaign {cur['campaign_s']:.3f}s "
                f"({cur['queries']} queries, {cur['queries_per_s']} q/s)"
            )
        if "speedup" in entry:
            metric = PRIMARY_METRIC[kind]
            line += (
                f" | {entry['speedup']}x vs baseline "
                f"{entry['baseline'][metric]:.3f}s"
            )
        lines.append(line)
    return "\n".join(lines)
