"""Rank and linear correlation with significance.

Spearman's rho (Table 2) is Pearson on midranks; the p-value uses the
standard t approximation with n-2 degrees of freedom, which is what
scipy.stats.spearmanr reports for samples of this size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

__all__ = ["CorrelationResult", "pearson", "spearman"]


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation estimate with its two-sided p-value."""

    statistic: float
    p_value: float
    n: int


def _midranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=float)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson(x, y) -> CorrelationResult:
    """Pearson correlation with a t-test p-value."""
    x = np.asarray(list(x), dtype=float)
    y = np.asarray(list(y), dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0:
        return CorrelationResult(statistic=0.0, p_value=1.0, n=n)
    r = float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))
    if abs(r) >= 1.0:
        return CorrelationResult(statistic=r, p_value=0.0, n=n)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    p = float(2.0 * stdtr(n - 2, -abs(t)))
    return CorrelationResult(statistic=r, p_value=p, n=n)


def spearman(x, y) -> CorrelationResult:
    """Spearman rank correlation (midranks) with a t-test p-value."""
    x = np.asarray(list(x), dtype=float)
    y = np.asarray(list(y), dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    result = pearson(_midranks(x), _midranks(y))
    return CorrelationResult(statistic=result.statistic, p_value=result.p_value, n=x.size)
