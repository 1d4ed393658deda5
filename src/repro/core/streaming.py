"""Streaming campaign analysis (RQ1/RQ2 as snapshots land).

The batch analysis modules (:mod:`repro.core.consistency`,
:mod:`repro.core.attrition`, :mod:`repro.core.returnmodel`) consume a
finished :class:`~repro.core.datasets.CampaignResult`.  A real 12-week
collection produces its snapshots one every five days; waiting for the
final merge to learn that consistency is collapsing (or that the quota
budget is mis-sized) wastes most of the campaign.  :class:`CampaignStream`
consumes snapshots *as they complete* — :func:`repro.core.campaign.run_campaign`
feeds it resumed and freshly-collected snapshots alike — and folds each
one into a single incremental :class:`~repro.core.index.CampaignIndex`
(:meth:`~repro.core.index.CampaignIndex.append_snapshot`, O(delta) per
collection).  Every reader delegates to that index, so each answer is
the batch analysis's answer on the snapshots consumed so far
(``tests/test_streaming.py`` pins this, degraded snapshots included).

Memory: the index keeps the columnar presence/hour-bin matrices and the
merged first-seen-wins metadata; the stream retains no snapshot, so
comments and per-hour data are dropped once a snapshot is folded in.
"""

from __future__ import annotations

from repro.core.attrition import ABSENT, PRESENT, AttritionResult
from repro.core.consistency import ConsistencyPoint
from repro.core.datasets import Snapshot
from repro.core.index import CampaignIndex
from repro.core.returnmodel import RegressionRecord

__all__ = ["CampaignStream"]


class CampaignStream:
    """Incremental RQ1/RQ2 analysis over snapshots in collection order.

    Feed snapshots through :meth:`add_snapshot` (out-of-order feeding is a
    ``ValueError`` — streaming state is order-dependent) and read any of
    the analysis views at any point; each equals its batch counterpart on
    the snapshots consumed so far.

    Parameters
    ----------
    topic_keys:
        The campaign's topic keys, in analysis order.  ``None`` adopts the
        first snapshot's topics in their snapshot order.
    corpus:
        Optional live columnar corpus handed to the index (static
        video/channel facts for the regression columns).
    """

    def __init__(
        self,
        topic_keys: tuple[str, ...] | None = None,
        corpus=None,
    ) -> None:
        self._topic_keys: tuple[str, ...] | None = (
            tuple(topic_keys) if topic_keys is not None else None
        )
        self._corpus = corpus
        self._index: CampaignIndex | None = None

    # -- feeding -------------------------------------------------------------

    @property
    def topic_keys(self) -> tuple[str, ...]:
        """The topics under analysis (empty before the first snapshot)."""
        return self._topic_keys or ()

    @property
    def n_collections(self) -> int:
        """Snapshots consumed so far."""
        return self._index.n_collections if self._index is not None else 0

    @property
    def index(self) -> CampaignIndex | None:
        """The incremental index every reader delegates to (``None``
        before the first snapshot)."""
        return self._index

    def add_snapshot(self, snap: Snapshot) -> None:
        """Fold in the next snapshot (must arrive in collection order).

        :meth:`~repro.core.index.CampaignIndex.append_snapshot` validates
        before any state mutates: a gap, a duplicate, or a snapshot
        missing one of the stream's topics is a ``ValueError``, so the
        stream never silently diverges from a batch rebuild.
        """
        if self._index is None:
            if self._topic_keys is None:
                self._topic_keys = tuple(snap.topics)
            self._index = CampaignIndex.incremental(
                self._topic_keys, corpus=self._corpus
            )
        self._index.append_snapshot(snap)

    def _reader(self) -> CampaignIndex:
        """The index, or an empty one before the first snapshot."""
        if self._index is not None:
            return self._index
        return CampaignIndex.incremental(self.topic_keys, corpus=self._corpus)

    # -- RQ1: temporal consistency -------------------------------------------

    def jaccard_matrix(self, topic: str) -> list[list[float]]:
        """The full symmetric pairwise Jaccard matrix for one topic."""
        return self._reader().jaccard_matrix(topic)

    def consistency(self, topic: str) -> list[ConsistencyPoint]:
        """Equal to :func:`repro.core.consistency.consistency_series`."""
        return self._reader().consistency(topic)

    def gap_aware_consistency(self, topic: str) -> list[ConsistencyPoint]:
        """Equal to :func:`~repro.core.consistency.gap_aware_consistency_series`."""
        return self._reader().gap_aware_consistency(topic)

    # -- RQ2: attrition + return model ---------------------------------------

    def attrition(
        self, topics: list[str] | None = None, skip_degraded: bool = False
    ) -> AttritionResult:
        """Equal to :func:`repro.core.attrition.attrition_analysis`."""
        return self._reader().attrition(topics, skip_degraded=skip_degraded)

    def regression_records(self) -> list[RegressionRecord]:
        """Equal to :func:`repro.core.returnmodel.build_regression_records`."""
        return self._reader().regression_records()

    # -- rendering -----------------------------------------------------------

    def render_summary(self) -> str:
        """The RQ1/RQ2 summary ``repro campaign --analyze`` prints."""
        n = self.n_collections
        lines = [f"== streaming analysis ({n} collections) =="]
        if n < 2:
            lines.append("(need at least two collections for RQ1/RQ2 series)")
            return "\n".join(lines)
        lines.append("RQ1 — temporal consistency (Section 4.1):")
        for topic in self.topic_keys:
            points = self.consistency(topic)
            mean_prev = sum(p.j_previous for p in points) / len(points)
            final = points[-1]
            lines.append(
                f"  {topic:10s} mean J(t,t-1)={mean_prev:.3f}  "
                f"J(final,first)={final.j_first:.3f}  "
                f"shared w/ first={final.shared_fraction_with_first:.1%}"
            )
        try:
            attrition = self.attrition()
        except ValueError as exc:
            lines.append(f"RQ2 — attrition: unavailable ({exc})")
        else:
            matrix = attrition.matrix()
            lines.append(
                "RQ2 — attrition (Section 4.3, 2nd-order Markov over P/A): "
                f"P(P|PP)={matrix['PP'][PRESENT]:.3f}  "
                f"P(A|AA)={matrix['AA'][ABSENT]:.3f}  "
                f"sticky={'yes' if attrition.is_sticky else 'no'}  "
                f"({attrition.n_sequences} sequences)"
            )
        try:
            records = self.regression_records()
        except ValueError as exc:
            lines.append(f"RQ2 — return model: unavailable ({exc})")
        else:
            mean_freq = sum(r.frequency for r in records) / len(records)
            always = sum(1 for r in records if r.frequency == n)
            lines.append(
                f"RQ2 — return frequency (Section 5): {len(records)} videos "
                f"with metadata, mean frequency {mean_freq:.2f}/{n}, "
                f"{always} returned every time"
            )
        return "\n".join(lines)
