"""k-th order Markov chain estimation over symbol sequences.

Figure 3 of the paper estimates a second-order chain over per-video
presence (P) / absence (A) sequences: for every sliding window of two
states, count where the next state goes, then normalize per history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["MarkovChainEstimate", "estimate_markov_chain", "chain_from_counts"]


@dataclass
class MarkovChainEstimate:
    """Transition probabilities keyed by history tuples."""

    order: int
    states: tuple[str, ...]
    counts: dict[tuple[str, ...], dict[str, int]]
    probabilities: dict[tuple[str, ...], dict[str, float]]

    def probability(self, history: Sequence[str], next_state: str) -> float:
        """P(next_state | history); 0.0 for unseen histories."""
        history = tuple(history)
        if len(history) != self.order:
            raise ValueError(f"history must have length {self.order}")
        return self.probabilities.get(history, {}).get(next_state, 0.0)

    def observations(self, history: Sequence[str]) -> int:
        """Number of transitions observed out of a history."""
        return sum(self.counts.get(tuple(history), {}).values())

    def histories(self) -> list[tuple[str, ...]]:
        """All histories with at least one observed transition, sorted."""
        return sorted(self.probabilities)


def chain_from_counts(
    counts: dict[tuple[str, ...], dict[str, int]],
    states: Iterable[str],
    order: int = 2,
) -> MarkovChainEstimate:
    """Build an estimate from pre-accumulated transition counts.

    The maximum-likelihood probabilities are a pure function of the counts,
    so any accumulation scheme that produces the same counts — the
    sliding-window scan below, or the window encoding in
    :mod:`repro.core.index` — yields an identical estimate (dict
    equality ignores insertion order).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    probabilities: dict[tuple[str, ...], dict[str, float]] = {}
    for history, outgoing in counts.items():
        total = sum(outgoing.values())
        probabilities[history] = {s: c / total for s, c in outgoing.items()}
    return MarkovChainEstimate(
        order=order,
        states=tuple(sorted(states)),
        counts=counts,
        probabilities=probabilities,
    )


def estimate_markov_chain(
    sequences: Iterable[Sequence[str]], order: int = 2
) -> MarkovChainEstimate:
    """Estimate a k-th order chain from many (possibly short) sequences.

    Sequences shorter than ``order + 1`` contribute nothing.  Probabilities
    are maximum-likelihood (row-normalized counts).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    states: set[str] = set()
    for sequence in sequences:
        sequence = list(sequence)
        states.update(sequence)
        for i in range(len(sequence) - order):
            history = tuple(sequence[i : i + order])
            nxt = sequence[i + order]
            counts.setdefault(history, {}).setdefault(nxt, 0)
            counts[history][nxt] += 1

    return chain_from_counts(counts, states, order)
