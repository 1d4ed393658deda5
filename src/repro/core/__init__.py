"""The paper's audit methodology, as a reusable library.

This is the primary contribution being reproduced: a pipeline that runs
identical historical Search:list queries at fixed intervals and quantifies
the endpoint's behavior.

* :mod:`experiments` — campaign configuration (the paper's schedule: 16
  collections at 5-day intervals, Feb 9 - Apr 30 2025, Apr 5 skipped);
* :mod:`collector` / :mod:`campaign` — hour-binned collection (4,032
  search queries per snapshot) plus ID-based metadata and comment capture;
* :mod:`streaming` — incremental RQ1/RQ2 analysis as snapshots complete;
* :mod:`datasets` — snapshot containers and JSONL persistence;
* :mod:`spill` — disk-backed columnar campaign store (campaigns bigger
  than RAM): durable per-snapshot spill with an atomic manifest;
* :mod:`index` — shared columnar campaign index: the vectorized fast
  path the per-analysis modules route through by default, now growable
  O(delta) per collection via ``append_snapshot``;
* :mod:`consistency` (Fig 1), :mod:`hourly` (Table 2), :mod:`daily`
  (Fig 2), :mod:`attrition` (Fig 3), :mod:`returnmodel` (Tables 3/6/7),
  :mod:`pools` (Table 4), :mod:`metadata_audit` (Fig 4),
  :mod:`comment_audit` (Table 5) — one module per analysis;
* :mod:`report` — paper-style text rendering of every table and figure;
* beyond the paper's main line: :mod:`economy` (quota budgets),
  :mod:`smear` (under-quota multi-day collection and its internal
  inconsistency), :mod:`inference` (mechanism recovery from returns),
  :mod:`periodicity` and :mod:`serp_audit` (Section 6.2 future work),
  :mod:`export` (CSV bundles), :mod:`replication` (multi-seed stability).
"""

from repro.core.campaign import run_campaign
from repro.core.collector import SnapshotCollector
from repro.core.datasets import CampaignResult, Snapshot, TopicSnapshot
from repro.core.experiments import CampaignConfig, paper_campaign_config
from repro.core.index import CampaignIndex, campaign_index
from repro.core.spill import SpillStore
from repro.core.streaming import CampaignStream

__all__ = [
    "CampaignConfig",
    "paper_campaign_config",
    "SnapshotCollector",
    "run_campaign",
    "CampaignResult",
    "Snapshot",
    "TopicSnapshot",
    "CampaignStream",
    "CampaignIndex",
    "campaign_index",
    "SpillStore",
]
