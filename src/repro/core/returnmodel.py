"""Return-likelihood factor analysis (Section 5; Tables 3, 6, 7).

For every video ever returned, the dependent variable is its return
frequency (1..n_collections).  Predictors are assembled from the ID-based
metadata captured alongside the campaign: video duration, definition,
views/likes/comments; channel age, views, subscribers, upload count; and
topic dummies against BLM.  Continuous features are log-transformed and
standardized, exactly as the paper specifies.

Three models:

* the paper's main model — frequency binned (1-5 / 6-10 / 11-15 / 16),
  proportional-odds **logit** (Table 3);
* OLS with HC1 robust SEs on raw frequency (Table 6);
* unbinned ordinal with a **cloglog** link over all frequency categories
  (Table 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.datasets import CampaignResult
from repro.stats.design import DesignMatrix, build_design
from repro.stats.ols import OLSResult, fit_ols
from repro.stats.ordinal import OrdinalResult, fit_ordinal
from repro.stats.transforms import bin_frequency, log1p_standardize

__all__ = [
    "RegressionRecord",
    "build_regression_records",
    "build_regression_design",
    "fit_binned_ordinal",
    "fit_frequency_ols",
    "fit_unbinned_ordinal",
]


@dataclass(frozen=True)
class RegressionRecord:
    """One video's row in the Section 5 dataset."""

    video_id: str
    topic: str
    frequency: int
    duration_seconds: int
    definition: str  # "hd" | "sd"
    views: int
    likes: int
    comments: int
    channel_age_days: float
    channel_views: int
    channel_subs: int
    channel_videos: int


def build_regression_records(campaign: CampaignResult) -> list[RegressionRecord]:
    """Assemble the per-video dataset from a campaign's metadata captures.

    Videos whose metadata never arrived (deleted before any Videos:list
    call succeeded, or gapped in every collection) are dropped, as they are
    in the paper's pipeline.  Records follow the topic keys, then the
    sorted video IDs.

    Reads the campaign's shared columnar index: frequencies come from
    presence-column sums and the metadata columns are decoded once and
    memoized, so the report/export/replication layers share one decode.
    The reference topic of the topic dummies is chosen later, by
    :func:`build_regression_design` and the ``fit_*`` functions.
    """
    from repro.core.index import campaign_index

    return campaign_index(campaign).regression_records()


def build_regression_design(
    records: list[RegressionRecord],
    reference_topic: str = "blm",
    drop: tuple[str, ...] = (),
) -> DesignMatrix:
    """The paper's design: log+z continuous features, dummy-coded topics.

    ``drop`` removes predictors by name — the paper's collinearity probes
    re-fit the model without ``likes`` or without one of the channel pair.
    """
    design = build_design(
        continuous={
            "duration": log1p_standardize([r.duration_seconds for r in records]),
            "views": log1p_standardize([r.views for r in records]),
            "likes": log1p_standardize([r.likes for r in records]),
            "comments": log1p_standardize([r.comments for r in records]),
            "channel age": log1p_standardize(
                [max(r.channel_age_days, 0) for r in records]
            ),
            "channel views": log1p_standardize([r.channel_views for r in records]),
            "channel subs": log1p_standardize([r.channel_subs for r in records]),
            "# channel videos": log1p_standardize(
                [r.channel_videos for r in records]
            ),
        },
        categorical={
            "quality": ([r.definition for r in records], "hd"),
            "topic": ([r.topic for r in records], reference_topic),
        },
    )
    if drop:
        design = design.drop(*drop)
    return design


def _binned_outcome(records: list[RegressionRecord], n_collections: int) -> np.ndarray:
    """Map frequencies onto the paper's four bins, rescaled for short campaigns.

    The paper's bins assume 16 collections; for scaled-down test campaigns
    the same quartile structure is applied proportionally (the top bin is
    always "returned every time").
    """
    if n_collections == 16:
        return np.array([bin_frequency(r.frequency) for r in records])
    edges = [
        max(1, round(n_collections * 5 / 16)),
        max(2, round(n_collections * 10 / 16)),
        n_collections - 1,
    ]
    bins = (
        (1, edges[0]),
        (edges[0] + 1, edges[1]),
        (edges[1] + 1, edges[2]),
        (n_collections, n_collections),
    )
    return np.array([bin_frequency(r.frequency, bins) for r in records])


def _compact_categories(y: np.ndarray) -> np.ndarray:
    """Re-index categories to consecutive 0..K-1 (empty bins removed)."""
    observed = sorted(set(int(v) for v in y))
    remap = {v: i for i, v in enumerate(observed)}
    return np.array([remap[int(v)] for v in y])


def fit_binned_ordinal(
    records: list[RegressionRecord],
    n_collections: int,
    reference_topic: str = "blm",
    drop: tuple[str, ...] = (),
) -> OrdinalResult:
    """Table 3: binned proportional-odds logit model."""
    design = build_regression_design(records, reference_topic, drop)
    y = _compact_categories(_binned_outcome(records, n_collections))
    return fit_ordinal(design, y, link="logit")


def fit_frequency_ols(
    records: list[RegressionRecord],
    reference_topic: str = "blm",
    drop: tuple[str, ...] = (),
) -> OLSResult:
    """Table 6: OLS with robust SEs on raw frequency."""
    design = build_regression_design(records, reference_topic, drop)
    return fit_ols(design, [r.frequency for r in records], robust="HC1")


def fit_unbinned_ordinal(
    records: list[RegressionRecord],
    reference_topic: str = "blm",
    drop: tuple[str, ...] = (),
) -> OrdinalResult:
    """Table 7: all frequencies as categories, cloglog link."""
    design = build_regression_design(records, reference_topic, drop)
    y = _compact_categories(np.array([r.frequency - 1 for r in records]))
    return fit_ordinal(design, y, link="cloglog")
