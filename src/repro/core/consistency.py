"""Temporal consistency analysis (Section 4.1, Figure 1).

For each collection t, the Jaccard similarity of the returned video-ID set
with the previous collection and with the very first one, plus the
asymmetric set differences the paper plots as "error bars" (videos lost
since t-1, videos gained at t — the latter proving deletions cannot explain
the drift, since gained videos are *newly visible old content*).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.datasets import CampaignResult

__all__ = [
    "jaccard",
    "ConsistencyPoint",
    "consistency_series",
    "gap_aware_consistency_series",
]


def jaccard(a: set, b: set) -> float:
    """Jaccard similarity; two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class ConsistencyPoint:
    """Figure 1 data for one topic at one collection index (t >= 1)."""

    index: int
    j_previous: float
    j_first: float
    lost_from_previous: int  # |S_{t-1} - S_t|
    gained_since_previous: int  # |S_t - S_{t-1}|
    set_size: int

    @property
    def shared_fraction_with_first(self) -> float:
        """Fraction of this set shared with the first collection.

        The paper notes J ~ 0.3 "equates to only 46% of the videos per set
        being shared": J = s/(2-s) for equal-size sets, so s = 2J/(1+J).
        """
        return 2.0 * self.j_first / (1.0 + self.j_first)


def consistency_series(
    campaign: CampaignResult, topic: str
) -> list[ConsistencyPoint]:
    """The full Figure 1 series for one topic.

    Runs on the campaign's shared columnar index
    (:mod:`repro.core.index`): one presence-matrix pass instead of
    per-pair set algebra, cached across analyses.
    """
    from repro.core.index import campaign_index

    return campaign_index(campaign).consistency(topic)


def gap_aware_consistency_series(
    campaign: CampaignResult, topic: str
) -> list[ConsistencyPoint]:
    """The Figure 1 series restricted to mutually observed hour bins.

    A degraded snapshot (see :attr:`TopicSnapshot.missing_hours
    <repro.core.datasets.TopicSnapshot.missing_hours>`) is missing whole
    hour bins; comparing its raw ID set against a complete one would
    count every video of a missing bin as churn, conflating collection
    failure with the platform's sampling drift the paper measures.  So
    every pairwise comparison (the lost/gained counts too) covers only
    the hour bins observed on both sides
    (:meth:`~repro.core.index.CampaignIndex.gap_jaccard`).  Identical to
    :func:`consistency_series` on a fully complete campaign.
    """
    from repro.core.index import campaign_index

    return campaign_index(campaign).gap_aware_consistency(topic)
