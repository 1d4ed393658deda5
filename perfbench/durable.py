"""The ``durable`` workload: journaled, spilled campaigns, then a reload.

A gateway over a scale-0.3 world and ``OrchestratorDaemon(spill_results=
True)`` with its default 2 worker threads.  Two tenants each submit one
4-collection campaign of the paper design (2 x 4 x 4,032 journaled hour
bins, no metadata or comments).  ``orchestrate_s`` runs from the first
submit until every campaign is completed; ``campaign_wait_s`` is what a
tenant waits, from its own submit until its campaign is completed, as a
mean over the tenants.  ``reload_s`` reopens each spilled campaign, grows
a ``CampaignIndex`` from disk one ``append_snapshot`` at a time, and runs
its search-only analyses (Figure 1, Figure 3, Table 4); it is reported
but not gated, as it spread too widely from run to run.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from checks import SEARCH_COST
from spans import clock

#: Reloads per iteration; ``reload_s`` is their median.  The first one
#: also imports the analysis modules.
RELOADS = 15
#: States in which a campaign still has collections to run.
UNSETTLED = ("submitted", "admitted", "running")

SHAPES = {
    "full": {"scale": 0.3, "topics": None, "collections": 4, "tenants": 2},
    "tiny": {"scale": 0.05, "topics": 1, "collections": 2, "tenants": 2},
}


def reload(directory: Path) -> str:
    """Grow an index from one spill directory and render its analyses."""
    from repro.core.spill import SpillStore

    store = SpillStore.open(directory)
    index = store.build_index()
    figure1 = {t: index.consistency(t) for t in index.topic_keys}
    figure3 = index.attrition().matrix()
    table4 = {t: index.pool_stats(t) for t in index.topic_keys}
    return repr((figure1, figure3, table4))


def expected_usage(directory: Path) -> dict[str, int]:
    """What billing a campaign's spilled bins costs, per virtual day.

    Every queried hour bin has a pool size; it was paged to exhaustion at
    50 results per 100-unit page, and an empty bin still cost its one page.
    """
    from repro.core.spill import SpillStore

    usage: dict[str, int] = {}
    for snap in SpillStore.open(directory).iter_snapshots():
        day = snap.collected_at.date().isoformat()
        for ts in snap.topics.values():
            for hour in ts.pool_sizes:
                pages = max(1, -(-len(ts.hour_video_ids.get(hour, ())) // 50))
                usage[day] = usage.get(day, 0) + pages * SEARCH_COST
    return usage


def wait_settled(daemon, cids, timeout: float) -> dict[int, float]:
    """Poll until every campaign has settled; campaign index -> when.

    Reads each campaign's state the way ``OrchestratorDaemon.wait_idle``
    does, without ``status()``, whose quota total sums every journaled bin
    under the daemon lock and would slow the workers it is timing.
    """
    settled_at: dict[int, float] = {}
    deadline = clock() + timeout
    while len(settled_at) < len(cids) and clock() < deadline:
        for i, cid in enumerate(cids):
            if i not in settled_at and (
                daemon.state.campaigns[cid].state not in UNSETTLED
            ):
                settled_at[i] = clock()
        time.sleep(0.01)
    return settled_at


def run(seed: int, shape_name: str, workdir: Path, launched: float,
        tracer=None, setup_only: bool = False) -> dict:
    shape = SHAPES[shape_name]
    phase = tracer.span if tracer is not None else lambda _name: nullcontext()
    with phase("setup"):
        from repro.orchestrator import OrchestratorDaemon
        from repro.serve.gateway import build_gateway
        from repro.serve.keys import KeyTable
        from repro.world.corpus import scale_topics
        from repro.world.topics import paper_topics

        specs = scale_topics(paper_topics(), shape["scale"])
        if shape["topics"]:
            specs = specs[: shape["topics"]]
        gateway = build_gateway(
            scale=shape["scale"], seed=seed, keys=KeyTable(seed=seed),
            specs=specs,
        )
        daemon = OrchestratorDaemon(gateway, workdir / "orchestrator",
                                    spill_results=True)
        daemon.start()
        keys = [
            gateway.mint_key(label=f"tenant-{i}", daily_limit=10**7)
            for i in range(shape["tenants"])
        ]
    setup_end = clock()
    if setup_only:
        daemon.drain()
        gateway.close()
        return {"setup_s": setup_end - launched}
    try:
        with phase("orchestrate"):
            submitted, cids = [], []
            for key in keys:
                submitted.append(clock())
                cids.append(daemon.submit(
                    key.credential, collections=shape["collections"]
                )["campaignId"])
            settled_at = wait_settled(daemon, cids, timeout=150)
        orchestrate_end = clock()
        daemon.drain()
        states = [daemon.status(k.credential, c)["state"] for k, c in zip(keys, cids)]
        reload_times = []
        for _ in range(RELOADS):
            reload_start = clock()
            with phase("reload"):
                analyses = [reload(daemon.campaign_path(cid)) for cid in cids]
            reload_times.append(clock() - reload_start)
        usage = [daemon.usage_for_key(key.key_id) for key in keys]
        expected = [expected_usage(daemon.campaign_path(cid)) for cid in cids]
        digests = [daemon.result_sha256(cid) for cid in cids]
    finally:
        gateway.close()
    return {
        "setup_s": setup_end - launched,
        "orchestrate_s": orchestrate_end - setup_end,
        "campaign_wait_s": statistics.fmean(
            settled_at.get(i, orchestrate_end) - t for i, t in enumerate(submitted)
        ),
        "reload_s": statistics.median(reload_times),
        "attempted": len(cids),
        "failed": sum(state != "completed" for state in states),
        "outputs": {
            "settled": len(settled_at) == len(cids),
            "states": states,
            "result_sha256": digests,
            "usage_by_key": usage,
            "expected_usage_by_key": expected,
            "analysis_sha256": hashlib.sha256(
                json.dumps(analyses).encode("utf-8")
            ).hexdigest(),
        },
    }
