"""Pool-size analysis (Section 5, Table 4).

``pageInfo.totalResults`` across every hourly query and collection, per
topic: min / max / mean / mode.  The paper's observations, all of which
this analysis surfaces: three topics are moded at the 1M cap; the pool is
orders of magnitude larger than what any hourly window could contain
(time-insensitive); and pool size anti-correlates with return consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.datasets import CampaignResult
from repro.sampling.pool import TOTAL_RESULTS_CAP

__all__ = ["PoolStats", "pool_stats", "pool_consistency_coupling"]


@dataclass(frozen=True)
class PoolStats:
    """One topic's Table 4 row."""

    topic: str
    minimum: int
    maximum: int
    mean: float
    mode: int
    n_draws: int

    @property
    def at_cap(self) -> bool:
        """Whether the modal pool estimate sits at the 1M cap."""
        return self.mode >= TOTAL_RESULTS_CAP


def pool_stats(campaign: CampaignResult, topic: str) -> PoolStats:
    """Aggregate totalResults draws for one topic across the campaign.

    Reads the draws collected once by the shared columnar index
    (:mod:`repro.core.index`), which memoizes the row.
    """
    from repro.core.index import campaign_index

    return campaign_index(campaign).pool_stats(topic)


def pool_consistency_coupling(
    campaign: CampaignResult,
) -> list[tuple[str, float, float]]:
    """(topic, mean pool size, first-to-last Jaccard) per topic.

    The paper's Section 5 argument in one list: sort it by pool size and
    the Jaccard column should fall — smaller pools, more consistent
    returns.
    """
    from repro.core.consistency import consistency_series

    out = []
    for topic in campaign.topic_keys:
        stats = pool_stats(campaign, topic)
        series = consistency_series(campaign, topic)
        out.append((topic, stats.mean, series[-1].j_first))
    return out
