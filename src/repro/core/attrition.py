"""Attrition analysis (Section 4.3, Figure 3).

Each video ever returned for a topic yields a presence (P) / absence (A)
sequence over the collections; a second-order Markov chain over all
(topic, video) sequences estimates P(next | last two states).  The paper's
finding — the "rolling window": P(P|PP) and P(A|AA) dominate, and agreement
of the two history states strengthens the pull.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.datasets import CampaignResult
from repro.stats.markov import MarkovChainEstimate

__all__ = [
    "PRESENT",
    "ABSENT",
    "presence_sequences",
    "AttritionResult",
    "attrition_analysis",
]

PRESENT = "P"
ABSENT = "A"


def presence_sequences(
    campaign: CampaignResult,
    topics: list[str] | None = None,
    skip_degraded: bool = False,
) -> list[str]:
    """P/A sequences for every (topic, ever-returned video).

    A video enters the universe at its first appearance but its sequence
    covers *all* collections (it was eligible-but-absent before), matching
    the paper's treatment of presence/absence states.  Within a topic,
    sequences follow the sorted video IDs.

    ``skip_degraded`` drops collections whose snapshot for the topic is
    degraded (missing hour bins): an absence recorded by a half-collected
    snapshot is a measurement failure, not platform attrition, and would
    bias the chain toward ``A``.  Sequences then span only the complete
    collections, in order, over the videos returned in them.

    The sequences are decoded from the campaign's shared columnar index
    (:mod:`repro.core.index`), one cached presence matrix per topic.
    """
    from repro.core.index import campaign_index

    return campaign_index(campaign).presence_sequences(
        topics, skip_degraded=skip_degraded
    )


@dataclass
class AttritionResult:
    """Figure 3: the estimated second-order chain plus convenience views."""

    chain: MarkovChainEstimate
    n_sequences: int

    def probability(self, history: str, next_state: str) -> float:
        """P(next_state | history) with history like ``"PP"``."""
        return self.chain.probability(tuple(history), next_state)

    def matrix(self) -> dict[str, dict[str, float]]:
        """{history: {next_state: probability}} over all 4 histories."""
        out: dict[str, dict[str, float]] = {}
        for history in ("".join(h) for h in [(a, b) for a in "PA" for b in "PA"]):
            out[history] = {
                s: self.chain.probability(tuple(history), s) for s in (PRESENT, ABSENT)
            }
        return out

    @property
    def is_sticky(self) -> bool:
        """The paper's qualitative claim: same-state histories dominate.

        P(P|PP) > P(P|AP) > P(P|AA) and symmetrically for absence, with the
        diagonal (PP->P, AA->A) being each history's most likely outcome.
        """
        m = self.matrix()
        return (
            m["PP"][PRESENT] > 0.5
            and m["AA"][ABSENT] > 0.5
            and m["PP"][PRESENT] > m["AP"][PRESENT]
            and m["AA"][ABSENT] > m["PA"][ABSENT]
        )


def attrition_analysis(
    campaign: CampaignResult,
    topics: list[str] | None = None,
    skip_degraded: bool = False,
) -> AttritionResult:
    """Estimate the Figure 3 chain from a campaign.

    Transitions are counted on the columnar index via a base-2 window
    encoding and one ``np.bincount`` — no intermediate P/A strings — and
    fed to :func:`repro.stats.markov.chain_from_counts`.
    """
    from repro.core.index import campaign_index

    return campaign_index(campaign).attrition(
        topics, skip_degraded=skip_degraded
    )
