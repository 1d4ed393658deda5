"""Multi-seed replication: are the findings seed-flukes?

A simulator-based reproduction owes the reader one extra check a live study
cannot run: regenerate the *world itself* under different seeds and verify
the qualitative findings survive.  This harness runs a (scaled) campaign
per seed and summarizes the headline metrics across replicates:

* final first-to-last Jaccard per topic (Figure 1's endpoint);
* the Markov diagonal P(P|PP), P(A|AA) (Figure 3);
* the signs of the key regression coefficients (Table 3/6);
* Higgs-most-consistent and pool/consistency anti-correlation.

Each claim is checked as a margin (how far a replicate is from breaking
it), so the report shows drift toward a flip before the flip.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api import QuotaPolicy, YouTubeClient, build_service
from repro.core.attrition import attrition_analysis
from repro.core.campaign import run_campaign
from repro.core.consistency import consistency_series
from repro.core.experiments import paper_campaign_config
from repro.core.pools import pool_consistency_coupling
from repro.core.returnmodel import build_regression_records, fit_frequency_ols
from repro.stats.correlation import spearman
from repro.util.tables import render_table
from repro.world.corpus import build_world, scale_topics
from repro.world.topics import TopicSpec, paper_topics

__all__ = ["ReplicateOutcome", "ReplicationSummary", "run_replication"]


@dataclass
class ReplicateOutcome:
    """Headline metrics for one seed."""

    seed: int
    j_first_last: dict[str, float]
    markov_pp: float
    markov_aa: float
    duration_beta: float
    likes_beta: float
    higgs_beta: float
    pool_consistency_rho: float

    @property
    def higgs_lead(self) -> float:
        """Final Jaccard of Higgs minus the best other topic's (0 at a tie)."""
        higgs = self.j_first_last["higgs"]
        others = [j for topic, j in self.j_first_last.items() if topic != "higgs"]
        return higgs - max(others, default=higgs)


#: The paper's qualitative claims, each as a margin on one replicate: how
#: far the replicate is from breaking the claim, in the claim's own units.
#: A claim holds when its margin is positive; "higgs most consistent" also
#: holds at 0, a tie for the top.
_CLAIMS: dict[str, Callable[[ReplicateOutcome], float]] = {
    "duration < 0": lambda o: -o.duration_beta,
    "likes > 0": lambda o: o.likes_beta,
    "higgs > 0": lambda o: o.higgs_beta,
    "higgs most consistent": lambda o: o.higgs_lead,
    "pool-consistency rho < 0": lambda o: -o.pool_consistency_rho,
    "P(P|PP) > 0.5": lambda o: o.markov_pp - 0.5,
    "P(A|AA) > 0.5": lambda o: o.markov_aa - 0.5,
}
_HOLDS_AT_ZERO = frozenset({"higgs most consistent"})


def _holds(claim: str, margin: float) -> bool:
    return margin > 0 or (margin == 0 and claim in _HOLDS_AT_ZERO)


@dataclass
class ReplicationSummary:
    """Aggregate over all replicates."""

    outcomes: list[ReplicateOutcome] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Number of replicates."""
        return len(self.outcomes)

    def margins(self) -> dict[str, list[float]]:
        """Per claim, each replicate's margin (in seed order)."""
        return {
            claim: [margin(o) for o in self.outcomes]
            for claim, margin in _CLAIMS.items()
        }

    def sign_stability(self) -> dict[str, float]:
        """Fraction of replicates agreeing with the paper's signs."""
        if not self.outcomes:
            return {}
        return {
            claim: np.mean([_holds(claim, m) for m in margins])
            for claim, margins in self.margins().items()
        }

    def failing_seeds(self) -> dict[str, list[int]]:
        """Per claim, the seeds whose replicate broke it (in seed order)."""
        return {
            claim: [
                o.seed for o, m in zip(self.outcomes, margins)
                if not _holds(claim, m)
            ]
            for claim, margins in self.margins().items()
        }

    def tightest(self) -> dict[str, tuple[float, int]]:
        """Per claim, the smallest margin and the seed that has it."""
        if not self.outcomes:
            return {}
        return {
            claim: min(zip(margins, (o.seed for o in self.outcomes)))
            for claim, margins in self.margins().items()
        }

    def metric_bands(self) -> dict[str, tuple[float, float]]:
        """(mean, std) bands of the continuous headline metrics."""
        if not self.outcomes:
            return {}
        pp = [o.markov_pp for o in self.outcomes]
        aa = [o.markov_aa for o in self.outcomes]
        blm_j = [o.j_first_last.get("blm", np.nan) for o in self.outcomes]
        higgs_j = [o.j_first_last.get("higgs", np.nan) for o in self.outcomes]
        return {
            "P(P|PP)": (float(np.mean(pp)), float(np.std(pp))),
            "P(A|AA)": (float(np.mean(aa)), float(np.std(aa))),
            "J_final(blm)": (float(np.nanmean(blm_j)), float(np.nanstd(blm_j))),
            "J_final(higgs)": (float(np.nanmean(higgs_j)), float(np.nanstd(higgs_j))),
        }

    def render(self) -> str:
        """Replication report as a text table pair.

        Each claim's row names the seeds that broke it and the smallest
        margin with its seed, so drift toward a flip shows before it
        happens.
        """
        stability = self.sign_stability()
        failing = self.failing_seeds()
        tightest = self.tightest()
        rows = [
            [claim, f"{share:.0%}",
             " ".join(str(seed) for seed in failing[claim]) or "-",
             tightest[claim][0], tightest[claim][1]]
            for claim, share in stability.items()
        ]
        table = render_table(
            ["qualitative claim", f"holds in (of {self.n} seeds)",
             "fails at seeds", "smallest margin", "at seed"],
            rows,
            title="Replication: sign/ordering stability across seeds",
        )
        band_rows = [
            [name, round(mean, 3), round(std, 3)]
            for name, (mean, std) in self.metric_bands().items()
        ]
        table += "\n" + render_table(
            ["metric", "mean", "std"], band_rows, title="Metric bands across seeds"
        )
        return table

    @property
    def all_claims_hold(self) -> bool:
        """Whether every qualitative claim held in every replicate."""
        return all(v == 1.0 for v in self.sign_stability().values())


def _replicate_seed(
    seed: int, specs: tuple[TopicSpec, ...], n_collections: int
) -> ReplicateOutcome:
    """One replicate: build a world, run the campaign, extract the metrics.

    Module-level (picklable) so :func:`run_replication` can dispatch it to
    worker processes.  Each call builds its own world, service, quota
    ledger, and RNG streams from ``seed`` alone — replicates share no
    mutable state, which is what makes the parallel fan-out trivially
    equal to the serial loop.  The analyses all run off the campaign's
    shared columnar index (one build per replicate).
    """
    world = build_world(specs, seed=seed, with_comments=False)
    service = build_service(
        world, seed=seed, specs=specs,
        quota_policy=QuotaPolicy(researcher_program=True),
    )
    config = dataclasses.replace(
        paper_campaign_config(topics=specs, with_comments=False),
        n_scheduled=n_collections,
        skipped_indices=frozenset(),
        comment_snapshot_indices=(),
    )
    campaign = run_campaign(config, YouTubeClient(service))

    j_final = {
        topic: consistency_series(campaign, topic)[-1].j_first
        for topic in campaign.topic_keys
    }
    markov = attrition_analysis(campaign).matrix()
    ols = fit_frequency_ols(build_regression_records(campaign))
    coupling = pool_consistency_coupling(campaign)
    rho = spearman([p for _, p, _ in coupling], [j for _, _, j in coupling])

    return ReplicateOutcome(
        seed=seed,
        j_first_last=j_final,
        markov_pp=markov["PP"]["P"],
        markov_aa=markov["AA"]["A"],
        duration_beta=ols.coefficient("duration"),
        likes_beta=ols.coefficient("likes"),
        higgs_beta=ols.coefficient("higgs (topic)"),
        pool_consistency_rho=rho.statistic,
    )


def run_replication(
    seeds: list[int],
    scale: float = 0.3,
    n_collections: int = 8,
    topics: tuple[TopicSpec, ...] | None = None,
    workers: int = 1,
) -> ReplicationSummary:
    """Run one scaled campaign per seed and summarize.

    ``workers > 1`` fans the seeds out over a process pool (``fork``
    where available, else ``spawn`` — replicates are CPU-bound pure
    Python, so threads cannot help).  Every replicate is a pure function
    of its seed with its own world, service, ledgers, and RNG streams, and
    outcomes are collected in seed order, so the summary is identical for
    any worker count.  Nothing is shared across the pool: each worker
    collects serially.
    """
    if not seeds:
        raise ValueError("at least one seed required")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    specs = scale_topics(topics or paper_topics(), scale)
    summary = ReplicationSummary()
    if workers == 1 or len(seeds) == 1:
        for seed in seeds:
            summary.outcomes.append(_replicate_seed(seed, specs, n_collections))
        return summary
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with ProcessPoolExecutor(
        max_workers=min(workers, len(seeds)), mp_context=ctx
    ) as pool:
        futures = [
            pool.submit(_replicate_seed, seed, specs, n_collections)
            for seed in seeds
        ]
        summary.outcomes.extend(future.result() for future in futures)
    return summary
