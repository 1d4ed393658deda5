"""Tests for interest-density suppression and the churn process."""

from __future__ import annotations

import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.sampling import churn
from repro.sampling.churn import ChurnProcess, daily_rho, fast_daily_rho
from repro.sampling.density import InterestDensity
from repro.util.rng import stable_hash
from repro.util.timeutil import UTC, day_index
from repro.world.corpus import scale_topic
from repro.world.topics import paper_topics, topic_by_key


class TestInterestDensity:
    def test_suppression_mask_shape(self):
        spec = topic_by_key("blm")
        density = InterestDensity(spec)
        mask = density.suppressed_mask()
        assert mask.shape == (spec.window_hours,)
        assert 0 < mask.sum() < spec.window_hours  # some but not all suppressed

    def test_peak_hours_not_suppressed(self):
        spec = topic_by_key("brexit")
        density = InterestDensity(spec)
        # The focal-date hours are the topic's peak.
        focal_hour = spec.window_days * 24
        assert not density.is_suppressed(focal_hour + 12)

    def test_suppressed_hours_zero_probability(self):
        spec = topic_by_key("capriot")
        density = InterestDensity(spec)
        suppressed_hours = np.where(density.suppressed_mask())[0]
        assert suppressed_hours.size
        h = int(suppressed_hours[0])
        assert density.hour_saturation(h, saturation=0.9, request_label="d") == 0.0

    def test_probability_capped_below_one(self):
        spec = topic_by_key("higgs")
        density = InterestDensity(spec, budget_jitter=0.5)
        unsuppressed = int(np.where(~density.suppressed_mask())[0][0])
        for i in range(50):
            q = density.hour_saturation(unsuppressed, 0.97, f"d{i}")
            assert 0.0 < q <= 0.995

    def test_probability_deterministic_per_request(self):
        spec = topic_by_key("grammys")
        density = InterestDensity(spec)
        unsuppressed = int(np.where(~density.suppressed_mask())[0][0])
        a = density.hour_saturation(unsuppressed, 0.5, "2025-02-09")
        b = density.hour_saturation(unsuppressed, 0.5, "2025-02-09")
        assert a == b

    def test_probability_varies_between_collections(self):
        spec = topic_by_key("grammys")
        density = InterestDensity(spec)
        unsuppressed = int(np.where(~density.suppressed_mask())[0][0])
        values = {density.hour_saturation(unsuppressed, 0.5, f"d{i}") for i in range(20)}
        assert len(values) > 1

    def test_probability_tracks_saturation(self):
        spec = topic_by_key("blm")
        density = InterestDensity(spec, budget_jitter=0.0)
        unsuppressed = int(np.where(~density.suppressed_mask())[0][0])
        low = density.hour_saturation(unsuppressed, 0.3, "d")
        high = density.hour_saturation(unsuppressed, 0.9, "d")
        assert high == pytest.approx(3 * low)

    def test_bad_saturation_rejected(self):
        spec = topic_by_key("blm")
        density = InterestDensity(spec)
        unsuppressed = int(np.where(~density.suppressed_mask())[0][0])
        with pytest.raises(ValueError):
            density.hour_saturation(unsuppressed, 0.0, "d")

    def test_out_of_range_hour_rejected(self):
        density = InterestDensity(topic_by_key("blm"))
        with pytest.raises(IndexError):
            density.is_suppressed(10_000)

    def test_relative_interest_averages_one(self):
        spec = topic_by_key("worldcup")
        density = InterestDensity(spec)
        values = [density.relative_interest(h) for h in range(density.n_hours)]
        assert np.mean(values) == pytest.approx(1.0)


class TestChurnRhos:
    def test_rho_decreases_with_volatility(self):
        assert daily_rho(0.2) > daily_rho(1.0) > daily_rho(3.0)
        assert fast_daily_rho(1.0) < daily_rho(1.0)

    def test_negative_volatility_rejected(self):
        with pytest.raises(ValueError):
            daily_rho(-1)
        with pytest.raises(ValueError):
            fast_daily_rho(-0.5)


class TestChurnProcess:
    def _process(self, key="blm", n=400, seed=3):
        return ChurnProcess(topic_by_key(key), n, seed)

    def test_same_day_same_state(self):
        p = self._process()
        d = datetime(2025, 2, 9, tzinfo=UTC)
        a = p.latent_at(d)
        b = p.latent_at(d + timedelta(hours=23))
        np.testing.assert_array_equal(a, b)

    def test_pure_function_of_day(self):
        # Querying out of order must not change any day's state.
        d0 = datetime(2025, 2, 9, tzinfo=UTC)
        p1 = self._process()
        forward = [p1.latent_at(d0 + timedelta(days=k)).copy() for k in (0, 5, 10)]
        p2 = self._process()
        direct = p2.latent_at(d0 + timedelta(days=10))
        np.testing.assert_array_equal(forward[2], direct)
        # And rewinding reproduces day 0 exactly.
        np.testing.assert_array_equal(p2.latent_at(d0), forward[0])

    def test_stationary_marginals(self):
        p = self._process(n=4000)
        d = datetime(2025, 3, 1, tzinfo=UTC)
        u = p.latent_at(d)
        assert abs(float(u.mean())) < 0.08
        assert float(u.std()) == pytest.approx(1.0, abs=0.08)

    def test_correlation_decays_with_lag(self):
        p = self._process(n=4000)
        d0 = datetime(2025, 2, 9, tzinfo=UTC)
        u0 = p.latent_at(d0).copy()
        u5 = p.latent_at(d0 + timedelta(days=5)).copy()
        u80 = p.latent_at(d0 + timedelta(days=80)).copy()
        c5 = np.corrcoef(u0, u5)[0, 1]
        c80 = np.corrcoef(u0, u80)[0, 1]
        assert c5 > 0.7  # short-run stickiness
        assert c80 < c5 - 0.3  # long-run compounding drift

    def test_volatility_controls_decay(self):
        d0 = datetime(2025, 2, 9, tzinfo=UTC)
        stable = ChurnProcess(topic_by_key("higgs"), 3000, 3)  # volatility 0.18
        churny = ChurnProcess(topic_by_key("blm"), 3000, 3)  # volatility 1.0
        cs = np.corrcoef(
            stable.latent_at(d0).copy(),
            stable.latent_at(d0 + timedelta(days=60)),
        )[0, 1]
        cc = np.corrcoef(
            churny.latent_at(d0).copy(),
            churny.latent_at(d0 + timedelta(days=60)),
        )[0, 1]
        assert cs > cc + 0.2

    def test_pre_epoch_clamped(self):
        p = self._process(key="higgs")  # epoch 2012-07-18
        early = p.latent_at(datetime(2000, 1, 1, tzinfo=UTC))
        epoch_day = p.latent_at(p.epoch)
        np.testing.assert_array_equal(early, epoch_day)

    def test_seed_sensitivity(self):
        d = datetime(2025, 2, 9, tzinfo=UTC)
        a = self._process(seed=1).latent_at(d)
        b = self._process(seed=2).latent_at(d)
        assert not np.allclose(a, b)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            ChurnProcess(topic_by_key("blm"), -1, 0)


# -- the churn state against an independent day-0 replay -----------------------

FIRST_COLLECTION = datetime(2025, 2, 9, tzinfo=UTC)
#: Query order: the first collection (a cold start, and the anchor), two
#: forward advances, a date behind the cursor but after the anchor (advanced
#: from the anchor), a date before the anchor (a second cold start) and a
#: pre-epoch date (day 0).
QUERIES = (
    FIRST_COLLECTION,
    FIRST_COLLECTION + timedelta(days=5),
    FIRST_COLLECTION + timedelta(days=80),
    FIRST_COLLECTION + timedelta(days=40),
    FIRST_COLLECTION - timedelta(days=30),
    datetime(2000, 1, 1, tzinfo=UTC),
)
COLD_STARTS = (QUERIES[0], QUERIES[4])


def _replay(spec, n: int, seed: int, whens) -> list[np.ndarray]:
    """The latent state at each of ``whens`` by replaying from day 0.

    Seeds every day's draw with its own ``default_rng(SeedSequence(...))``,
    independently of the process's batched seeding and coupling.
    """
    days = [max(0, day_index(spec.window_end, w)) for w in whens]
    lanes = {}
    for lane, rho in (
        ("slow", daily_rho(spec.churn_volatility)),
        ("fast", fast_daily_rho(spec.churn_volatility)),
    ):
        c = float(np.sqrt(1.0 - rho * rho))
        states = {}
        x = None
        for d in range(max(days) + 1):
            entropy = stable_hash("churn-eps", seed, spec.key, d, lane)
            eps = np.random.default_rng(np.random.SeedSequence(entropy)).standard_normal(n)
            x = eps if d == 0 else rho * x + c * eps
            if d in days:
                states[d] = x
        lanes[lane] = states
    share = churn._SLOW_SHARE
    return [
        np.sqrt(share) * lanes["slow"][d] + np.sqrt(1.0 - share) * lanes["fast"][d]
        for d in days
    ]


def _assert_bitwise_equal(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def _spy_paths(monkeypatch, calls: list) -> None:
    """Record which path each lane's cold start took: coupled, fallback, replay."""
    couple, replay = ChurnProcess._couple, ChurnProcess._replay

    def spy_couple(self, lane, start, day):
        got = couple(self, lane, start, day)
        calls.append((self._spec.key, lane, day, "fallback" if got is None else "coupled"))
        return got

    def spy_replay(self, lane, day):
        calls.append((self._spec.key, lane, day, "replay"))
        return replay(self, lane, day)

    monkeypatch.setattr(ChurnProcess, "_couple", spy_couple)
    monkeypatch.setattr(ChurnProcess, "_replay", spy_replay)


@pytest.fixture(
    scope="module",
    params=[(1.0, 20250209), (0.3, 20250209), (0.3, 1001), (0.3, 7)],
    ids=lambda p: f"scale{p[0]}-seed{p[1]}",
)
def paper_churn(request):
    """Every paper topic's process queried at QUERIES, with its cold-start paths."""
    scale, seed = request.param
    calls: list = []
    states = {}
    with pytest.MonkeyPatch.context() as mp:
        _spy_paths(mp, calls)
        for spec in paper_topics():
            scaled = scale_topic(spec, scale)
            process = ChurnProcess(scaled, scaled.n_videos, seed)
            states[spec.key] = (scaled, [process.latent_at(w) for w in QUERIES])
    return seed, states, calls


class TestChurnExactness:
    def test_matches_independent_replay(self, paper_churn):
        seed, states, _ = paper_churn
        for spec, got in states.values():
            for g, expected in zip(got, _replay(spec, spec.n_videos, seed, QUERIES)):
                _assert_bitwise_equal(g, expected)

    def test_cold_starts_couple_without_fallback(self, paper_churn):
        _, states, calls = paper_churn
        assert not [c for c in calls if c[3] == "fallback"]
        coupled = set()
        for spec, _ in states.values():
            rhos = {
                "slow": daily_rho(spec.churn_volatility),
                "fast": fast_daily_rho(spec.churn_volatility),
            }
            for when in COLD_STARTS:
                day = day_index(spec.window_end, when)
                for lane, rho in rhos.items():
                    paths = [c[3] for c in calls if c[:3] == (spec.key, lane, day)]
                    if churn._coupling_days(rho) < day:
                        assert paths == ["coupled"], (spec.key, lane, day)
                        coupled.add((spec.key, lane))
                    else:
                        assert paths == ["replay"], (spec.key, lane, day)
        # Every fast lane forgets its start well within its day offset; of
        # the slow lanes, only Capriot, Grammys and Higgs are still too young.
        slow_replays = {"capriot", "grammys", "higgs"}
        assert coupled == {
            (key, lane)
            for key in states
            for lane in ("slow", "fast")
            if not (lane == "slow" and key in slow_replays)
        }

    def test_date_behind_the_cursor_advances_from_the_anchor(self, paper_churn):
        _, states, calls = paper_churn
        for spec, _ in states.values():
            day = day_index(spec.window_end, QUERIES[3])
            assert not [c for c in calls if c[0] == spec.key and c[2] == day]

    def test_gap_beyond_the_horizon_cold_starts(self, monkeypatch):
        # From day 0, the first collection is 1,707 days on: past both of
        # BLM's lane horizons (1,657 and 247 days), so each lane couples
        # instead of advancing from day 0's state.
        calls: list = []
        _spy_paths(monkeypatch, calls)
        spec = scale_topic(topic_by_key("blm"), 0.05)
        process = ChurnProcess(spec, spec.n_videos, 7)
        whens = [datetime(2000, 1, 1, tzinfo=UTC), FIRST_COLLECTION]
        got = [process.latent_at(w) for w in whens]
        day = day_index(spec.window_end, FIRST_COLLECTION)
        assert day > churn._coupling_days(daily_rho(spec.churn_volatility))
        assert calls == [
            ("blm", "slow", 0, "replay"),
            ("blm", "fast", 0, "replay"),
            ("blm", "slow", day, "coupled"),
            ("blm", "fast", day, "coupled"),
        ]
        for g, expected in zip(got, _replay(spec, spec.n_videos, 7, whens)):
            _assert_bitwise_equal(g, expected)

    def test_interleaved_cadences_cold_start_once(self, monkeypatch):
        # Two campaigns on 5- and 7-day cadences sharing one process: every
        # date at or after the first advances from the cursor or the anchor.
        calls: list = []
        _spy_paths(monkeypatch, calls)
        spec = scale_topic(topic_by_key("brexit"), 0.05)
        process = ChurnProcess(spec, spec.n_videos, 7)
        whens = [
            FIRST_COLLECTION + timedelta(days=days)
            for pair in zip(range(0, 30, 5), range(0, 42, 7))
            for days in pair
        ]
        got = [process.latent_at(w) for w in whens]
        day = day_index(spec.window_end, FIRST_COLLECTION)
        assert [c[1:] for c in calls] == [
            ("slow", day, "coupled"), ("fast", day, "coupled"),
        ]
        for g, expected in zip(got, _replay(spec, spec.n_videos, 7, whens)):
            _assert_bitwise_equal(g, expected)

    def test_short_horizon_falls_back_to_replay(self, monkeypatch):
        calls: list = []
        _spy_paths(monkeypatch, calls)
        monkeypatch.setattr(churn, "_HORIZON_MARGIN", 0.05)
        spec = scale_topic(topic_by_key("blm"), 0.05)
        got = ChurnProcess(spec, spec.n_videos, 7).latent_at(FIRST_COLLECTION)
        day = day_index(spec.window_end, FIRST_COLLECTION)
        for lane in ("slow", "fast"):
            assert [c[3] for c in calls if c[1] == lane] == ["fallback", "replay"]
            assert [c[2] for c in calls if c[1] == lane] == [day, day]
        _assert_bitwise_equal(got, _replay(spec, spec.n_videos, 7, [FIRST_COLLECTION])[0])

    @pytest.mark.parametrize(
        "n,volatility",
        [(0, 1.0), (40, 0.0), (40, 1e3), (40, 1e5)],
        ids=["no-videos", "rho-one", "rho-tiny", "rho-zero"],
    )
    def test_edge_cases_match_replay(self, n, volatility):
        spec = dataclasses.replace(topic_by_key("grammys"), churn_volatility=volatility)
        process = ChurnProcess(spec, n, 20250209)
        whens = QUERIES[:5]
        got = [process.latent_at(w) for w in whens]
        for g, expected in zip(got, _replay(spec, n, 20250209, whens)):
            _assert_bitwise_equal(g, expected)

    def test_coupling_days_edges(self):
        assert churn._coupling_days(1.0) is None
        assert churn._coupling_days(0.0) == 1
        assert churn._coupling_days(daily_rho(1e3)) <= 2
        # Slower mixing needs a longer horizon.
        assert churn._coupling_days(daily_rho(0.2)) > churn._coupling_days(daily_rho(1.0))
