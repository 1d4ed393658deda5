"""The rolling-window churn process.

Section 4.3 of the paper models per-video presence/absence across
collections with a second-order Markov chain and finds sticky "drop-in /
drop-out" dynamics: a video present (absent) in recent collections tends to
stay present (absent), with the effect strongest when the last two states
agree.

We realize this with a *latent* daily process per video, the sum of a slow
and a fast stationary AR(1) component:

    u_i(d) = sqrt(w) * s_i(d) + sqrt(1-w) * f_i(d)
    s_i(d) = rho_s * s_i(d-1) + sqrt(1 - rho_s^2) * eps_i(d)   (slow drift)
    f_i(d) = rho_f * f_i(d-1) + sqrt(1 - rho_f^2) * eta_i(d)   (fast jitter)

where the innovations are deterministic standard normals keyed by (topic
seed, day).  The fast component produces the small but nonzero differences
between *successive* collections; the slow component makes those
differences compound into the large first-to-last drift of Figure 1 —
exactly the "non-constant differences ... compound over time" pattern the
paper reports.  The engine ranks a query's eligible videos by a mix of this latent
state and the video's stable inclusion bias, and returns the top of the
ranking up to the hour's budget.  Threshold-crossing of a sticky latent
process observed every few days produces exactly the second-order-Markov
signature of Figure 3, and its mixing rate (``rho`` per day, scaled by the
topic's ``churn_volatility``) sets the Jaccard decay speed of Figure 1.

The process is defined from a fixed per-topic epoch (the topic window end),
so the state on a given calendar day is a pure function of (seed, topic,
day) — independent of what was queried before.  That is what makes repeated
identical queries on the same day consistent, while queries weeks apart
diverge, matching the paper's central observation.
"""

from __future__ import annotations

import math
from datetime import datetime
from typing import Iterator

import numpy as np

from repro.util.rng import seeded_normals, stable_hash
from repro.util.timeutil import day_index
from repro.world.topics import TopicSpec

__all__ = ["ChurnProcess", "daily_rho", "fast_daily_rho"]

#: Slow-component per-day drift at churn_volatility == 1.0.  With 16
#: collections spread over ~80 days this yields first-to-last slow-latent
#: correlations around 0.35, which (combined with the bias share) lands the
#: long-run Jaccard similarity near the paper's ~0.3-0.45 band.
_BASE_DAILY_DRIFT = 0.038
#: Fast-component per-day drift: decorrelates over a few days, producing the
#: small successive-collection differences of Figure 1 without destroying
#: long-run structure.
_FAST_DAILY_DRIFT = 0.25
#: Variance share of the slow component.
_SLOW_SHARE = 0.95

#: The two AR(1) lanes; each draws its own innovations per day.
_LANES = ("slow", "fast")

#: ``M``, a bound on every innovation's magnitude.  NumPy's ziggurat
#: ``standard_normal`` never returns ``|eps| >= 12.23``: its body returns
#: ``|eps| < r = 3.6541...``; its tail returns ``r + xx`` with
#: ``xx = -log1p(-U1) / r``, accepted only when ``xx**2 < 2 * yy`` for
#: ``yy = -log1p(-U2)``, and ``U2 <= 1 - 2**-53`` gives ``yy <= 53 ln 2``,
#: so ``xx < sqrt(106 ln 2) = 8.572`` and ``|eps| < 12.226``.  Rounding
#: ``M`` up to 13 leaves 6 % of headroom in ``B`` (below) for the two
#: roundings of each update, enough whenever ``1 - rho > 4e-15``; a lane
#: closer to 1 than that needs a horizon of more than 10**15 days and
#: always replays.
_INNOVATION_BOUND = 13.0
#: Coupling runs ``_HORIZON_MARGIN`` times the days after which the two
#: bracketing trajectories' exact gap ``2 B rho**K`` falls below ``2**-53``,
#: ``(ln 2B + 53 ln 2) / -ln rho``.  At seeds 20250209, 1001 and 7 the
#: paper topics' lanes coalesced within 1.11-1.29 times that, so 1.5 leaves
#: room; a lane that has still not coalesced replays from day 0.
_HORIZON_MARGIN = 1.5


def _innovation_scale(rho: float) -> float:
    """``c = sqrt(1 - rho**2)``, the innovation weight that keeps unit variance."""
    return float(np.sqrt(1.0 - rho * rho))


def _state_bound(rho: float) -> float:
    """``B = M * max(1, c / (1 - rho))``: no state, on any day, has ``|x| > B``.

    Day 0's state is ``eps_0``, inside ``[-M, M]``, and ``[-B, B]`` is
    invariant under ``x -> rho * x + c * eps`` because ``c * M <= (1 - rho) B``.
    """
    return _INNOVATION_BOUND * max(1.0, _innovation_scale(rho) / (1.0 - rho))


def _coupling_days(rho: float) -> int | None:
    """Days a cold start couples over, or None when the lane never forgets.

    ``rho == 1`` (zero volatility) keeps day 0's draw forever, so no run
    from ``+-B`` ever meets; ``rho == 0`` forgets the state in one step.
    """
    if rho >= 1.0:
        return None
    forget = -math.log(rho) if rho > 0.0 else math.inf
    unmargined = (math.log(2.0 * _state_bound(rho)) + 53 * math.log(2.0)) / forget
    return max(1, math.ceil(_HORIZON_MARGIN * unmargined))


def daily_rho(volatility: float) -> float:
    """Slow-component per-day AR(1) coefficient for a churn volatility."""
    if volatility < 0:
        raise ValueError("volatility must be non-negative")
    return float(np.exp(-_BASE_DAILY_DRIFT * volatility))


def fast_daily_rho(volatility: float) -> float:
    """Fast-component per-day AR(1) coefficient for a churn volatility."""
    if volatility < 0:
        raise ValueError("volatility must be non-negative")
    return float(np.exp(-_FAST_DAILY_DRIFT * volatility))


class ChurnProcess:
    """Deterministic per-day latent churn states for one topic's videos.

    The state on day ``D`` is defined by a replay from the epoch: day 0
    draws ``x = eps_0`` and every later day applies
    ``x = rho * x + c * eps_d`` with ``c = sqrt(1 - rho**2)``.  A cold
    start does not replay thousands of days: each lane couples from the
    past over its last ``_coupling_days(rho)`` days, which gives the
    replay's state bit for bit, and replays from day 0 only when the two
    bracketing trajectories have not met (see :meth:`_couple`).

    Two exact states are kept, so most queries advance a few steps
    instead of cold-starting:

    * the **cursor**, the state of the last day queried;
    * the **anchor**, the state of the earliest day that was cold-started.

    A query starts from the later of the two that is at or before its day
    and advances from there.  Per lane, it cold-starts instead when
    neither is, or when the gap exceeds that lane's ``_coupling_days``, so
    no query costs more than a cold start.  A cold start before the
    anchor becomes the new anchor.  So a 16-snapshot campaign pays one
    cold start per topic, and campaigns on different cadences that share
    one process do too: a date between two earlier ones advances from the
    anchor instead of restarting.  Memory stays at two states per lane.

    Not thread-safe: the engine serializes each topic's calls.
    """

    def __init__(self, spec: TopicSpec, n_videos: int, seed: int) -> None:
        if n_videos < 0:
            raise ValueError("n_videos must be non-negative")
        self._spec = spec
        self._n = n_videos
        self._seed = seed
        self._rho = {
            "slow": daily_rho(spec.churn_volatility),
            "fast": fast_daily_rho(spec.churn_volatility),
        }
        self._epoch = spec.window_end
        # (day, lane -> state): the last day queried, and the earliest day
        # cold-started.  States are never mutated, so the two may share.
        self._cursor: tuple[int, dict[str, np.ndarray]] | None = None
        self._anchor: tuple[int, dict[str, np.ndarray]] | None = None

    @property
    def rho(self) -> float:
        """The slow-component per-day AR(1) coefficient in effect."""
        return self._rho["slow"]

    @property
    def rho_fast(self) -> float:
        """The fast-component per-day AR(1) coefficient in effect."""
        return self._rho["fast"]

    @property
    def epoch(self) -> datetime:
        """Day 0 of the process (the topic window end)."""
        return self._epoch

    def latent_at(self, when: datetime) -> np.ndarray:
        """Latent state vector for all videos on the day containing ``when``.

        Requests before the epoch are clamped to day 0 (searches cannot
        predate the content window in the audit design).
        """
        day = max(0, day_index(self._epoch, when))
        base = max(
            (kept for kept in (self._cursor, self._anchor)
             if kept is not None and kept[0] <= day),
            key=lambda kept: kept[0],
            default=None,
        )
        state = {lane: self._lane_at(lane, day, base) for lane in _LANES}
        if self._anchor is None or day < self._anchor[0]:
            self._anchor = (day, state)
        self._cursor = (day, state)
        return (
            np.sqrt(_SLOW_SHARE) * state["slow"]
            + np.sqrt(1.0 - _SLOW_SHARE) * state["fast"]
        )

    def _lane_at(
        self, lane: str, day: int, base: tuple[int, dict[str, np.ndarray]] | None
    ) -> np.ndarray:
        """One lane's state on ``day``: advanced from ``base``, or cold-started.

        Advancing applies the replay's own update from an exact state, so
        both paths give the replay's bits; the gap cap only picks the
        cheaper one.
        """
        if base is not None:
            base_day, states = base
            if base_day == day:
                return states[lane]
            horizon = _coupling_days(self._rho[lane])
            if horizon is None or day - base_day <= horizon:
                return self._run(lane, states[lane], self._draws(lane, base_day + 1, day))
        return self._cold_start(lane, day)

    def _cold_start(self, lane: str, day: int) -> np.ndarray:
        horizon = _coupling_days(self._rho[lane])
        if horizon is not None and horizon < day:
            coupled = self._couple(lane, day - horizon, day)
            if coupled is not None:
                return coupled
        return self._replay(lane, day)

    def _replay(self, lane: str, day: int) -> np.ndarray:
        """The defining replay: day 0's draw, then every day up to ``day``."""
        draws = self._draws(lane, 0, day)
        return self._run(lane, next(draws), draws)

    def _couple(self, lane: str, start: int, day: int) -> np.ndarray | None:
        """The state on ``day`` by coupling from the past, or None.

        Runs the replay's update from ``-B`` and ``+B`` on day ``start``
        through ``day``.  The update ``fl(fl(rho*x) + fl(c*eps))`` is
        non-decreasing in ``x`` and every state lies in ``[-B, B]``, so the
        true state stays between the two trajectories; once they are
        bitwise equal, they are it.
        """
        rho, c = self._rho[lane], _innovation_scale(self._rho[lane])
        bound = _state_bound(rho)
        low = np.full(self._n, -bound)
        high = np.full(self._n, bound)
        for eps in self._draws(lane, start + 1, day):
            # In place, but the same two roundings as ``rho * x + c * eps``.
            step = c * eps
            low *= rho
            low += step
            high *= rho
            high += step
        if np.array_equal(low.view(np.uint64), high.view(np.uint64)):
            return low
        return None

    def _run(self, lane: str, x: np.ndarray, draws: Iterator[np.ndarray]) -> np.ndarray:
        rho, c = self._rho[lane], _innovation_scale(self._rho[lane])
        for eps in draws:
            x = rho * x + c * eps
        return x

    def _draws(self, lane: str, first: int, last: int) -> Iterator[np.ndarray]:
        """The lane's innovations on days ``first..last``, streamed."""
        key, seed = self._spec.key, self._seed
        return seeded_normals(
            (stable_hash("churn-eps", seed, key, d, lane) for d in range(first, last + 1)),
            self._n,
        )
