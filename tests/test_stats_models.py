"""Tests for OLS, ordinal regression, and Markov estimation."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.stats.design import build_design
from repro.stats.markov import estimate_markov_chain
from repro.stats.ols import fit_ols
from repro.stats.ordinal import fit_ordinal
from repro.stats.summaries import coefficient_table, summarize_model

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def linear_data():
    rng = np.random.default_rng(7)
    n = 1500
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    group = rng.choice(["g0", "g1"], size=n)
    y = 2.0 + 1.5 * x1 - 0.8 * x2 + 1.0 * (group == "g1") + rng.standard_normal(n)
    design = build_design(
        continuous={"x1": x1, "x2": x2},
        categorical={"group": (list(group), "g0")},
    )
    return design, y


class TestOLS:
    def test_recovers_coefficients(self, linear_data):
        design, y = linear_data
        result = fit_ols(design, y)
        assert result.coefficient("x1") == pytest.approx(1.5, abs=0.1)
        assert result.coefficient("x2") == pytest.approx(-0.8, abs=0.1)
        assert result.coefficient("g1 (group)") == pytest.approx(1.0, abs=0.15)
        assert result.coefficient("(intercept)") == pytest.approx(2.0, abs=0.15)

    def test_inference(self, linear_data):
        design, y = linear_data
        result = fit_ols(design, y)
        assert result.p_value("x1") < 1e-10
        assert result.f_p_value < 1e-10
        assert 0.5 < result.r_squared < 0.9
        lo, hi = result.conf_int[result.names.index("x1")]
        assert lo < 1.5 < hi

    def test_robust_se_vs_heteroskedasticity(self):
        # With heteroskedastic noise, HC1 SEs exceed what a naive constant-
        # variance formula would give for the variance-driving regressor.
        rng = np.random.default_rng(3)
        n = 2000
        x = rng.uniform(0.5, 3.0, size=n)
        y = x + rng.standard_normal(n) * x**2
        design = build_design(continuous={"x": x}, categorical={})
        robust = fit_ols(design, y, robust="HC1")
        # Naive OLS SE via standard formula:
        X = np.column_stack([np.ones(n), x])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        sigma2 = (resid**2).sum() / (n - 2)
        naive_se = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
        assert robust.std_errors[robust.names.index("x")] > naive_se

    def test_null_effect_not_significant(self):
        rng = np.random.default_rng(9)
        n = 500
        design = build_design(
            continuous={"noise": rng.standard_normal(n)}, categorical={}
        )
        result = fit_ols(design, rng.standard_normal(n))
        assert result.p_value("noise") > 0.01

    def test_more_params_than_rows_rejected(self):
        design = build_design(continuous={"x": np.array([1.0, 2.0])}, categorical={})
        with pytest.raises(ValueError):
            fit_ols(design, [1.0, 2.0])

    def test_bad_robust_flavor(self, linear_data):
        design, y = linear_data
        with pytest.raises(ValueError):
            fit_ols(design, y, robust="HC9")

    def test_y_length_mismatch(self, linear_data):
        design, _y = linear_data
        with pytest.raises(ValueError):
            fit_ols(design, [1.0, 2.0])


class TestOrdinal:
    @pytest.fixture(scope="class")
    def ordinal_data(self):
        rng = np.random.default_rng(11)
        n = 2500
        x = rng.standard_normal(n)
        latent = 1.2 * x + rng.logistic(size=n)
        edges = np.quantile(latent, [0.3, 0.6, 0.85])
        y = np.digitize(latent, edges)
        design = build_design(continuous={"x": x}, categorical={})
        return design, y

    def test_recovers_logit_coefficient(self, ordinal_data):
        design, y = ordinal_data
        result = fit_ordinal(design, y, link="logit")
        assert result.converged
        assert result.coefficient("x") == pytest.approx(1.2, abs=0.15)
        assert result.p_value("x") < 1e-10

    def test_thresholds_ordered(self, ordinal_data):
        design, y = ordinal_data
        result = fit_ordinal(design, y, link="logit")
        assert np.all(np.diff(result.thresholds) > 0)
        assert result.n_categories == 4

    def test_lr_test_and_pseudo_r2(self, ordinal_data):
        design, y = ordinal_data
        result = fit_ordinal(design, y, link="logit")
        assert result.lr_statistic > 100
        assert result.lr_p_value < 1e-10
        assert 0.0 < result.pseudo_r_squared < 1.0
        assert result.log_likelihood > result.null_log_likelihood

    def test_null_effect(self):
        rng = np.random.default_rng(13)
        n = 800
        design = build_design(
            continuous={"noise": rng.standard_normal(n)}, categorical={}
        )
        y = rng.integers(0, 3, size=n)
        result = fit_ordinal(design, y, link="logit")
        assert result.p_value("noise") > 0.01
        assert result.pseudo_r_squared < 0.01

    def test_cloglog_link_fits(self, ordinal_data):
        design, y = ordinal_data
        result = fit_ordinal(design, y, link="cloglog")
        assert result.converged
        assert result.coefficient("x") > 0.3  # same sign, different scale
        assert result.link == "cloglog"

    def test_proportional_odds_interpretation(self, ordinal_data):
        # Positive beta must shift mass toward higher categories.
        design, y = ordinal_data
        result = fit_ordinal(design, y, link="logit")
        assert result.coefficient("x") > 0
        hi = np.asarray(y)[design.column("x") > 1].mean()
        lo = np.asarray(y)[design.column("x") < -1].mean()
        assert hi > lo

    def test_unknown_link_rejected(self, ordinal_data):
        design, y = ordinal_data
        with pytest.raises(ValueError):
            fit_ordinal(design, y, link="probit")

    def test_single_category_rejected(self):
        design = build_design(continuous={"x": np.zeros(10)}, categorical={})
        with pytest.raises(ValueError):
            fit_ordinal(design, np.zeros(10, dtype=int))

    def test_empty_category_rejected(self):
        design = build_design(continuous={"x": np.zeros(10)}, categorical={})
        y = np.array([0, 0, 0, 2, 2, 2, 2, 2, 0, 0])  # category 1 unobserved
        with pytest.raises(ValueError):
            fit_ordinal(design, y)

    def test_negative_category_rejected(self):
        design = build_design(continuous={"x": np.zeros(4)}, categorical={})
        with pytest.raises(ValueError):
            fit_ordinal(design, [-1, 0, 1, 1])

    def test_thresholds_closer_than_a_difference_step_still_return(self):
        # The two fitted thresholds end ~1.6e-4 apart.  A 4-point Hessian
        # with steps of 1e-4 evaluated _nll at crossed thresholds (inf), and
        # pinv of that matrix never returned; run in a subprocess so a hang
        # fails by timeout instead of stalling the suite.
        script = """
import numpy as np
from repro.stats.design import build_design
from repro.stats.ordinal import fit_ordinal

rng = np.random.default_rng(0)
x = rng.standard_normal(30_000)
y = np.where(x + rng.logistic(size=x.size) > 0, 2, 0)
y[np.argmin(np.abs(x))] = 1  # a single middle-category row
result = fit_ordinal(build_design(continuous={"x": x}, categorical={}), y)
print(np.diff(result.thresholds)[0], result.coefficients[0], result.std_errors[0],
      result.converged)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env, check=True,
        )
        gap, beta, se, converged = done.stdout.split()
        assert 0 < float(gap) < 2e-4
        assert float(beta) == pytest.approx(1.0, abs=0.05)
        assert 0 < float(se) < 0.02
        assert converged == "True"


class TestMarkov:
    def test_deterministic_sequence(self):
        chain = estimate_markov_chain(["PPPPPP"], order=2)
        assert chain.probability(("P", "P"), "P") == 1.0
        assert chain.probability(("P", "P"), "A") == 0.0

    def test_counts_pool_across_sequences(self):
        chain = estimate_markov_chain(["PPA", "PPP"], order=2)
        assert chain.probability(("P", "P"), "A") == pytest.approx(0.5)
        assert chain.observations(("P", "P")) == 2

    def test_short_sequences_ignored(self):
        chain = estimate_markov_chain(["PA", "P", ""], order=2)
        assert chain.histories() == []

    def test_first_order(self):
        chain = estimate_markov_chain(["ABABAB"], order=1)
        assert chain.probability(("A",), "B") == 1.0

    def test_sticky_process_detected(self):
        # An AR-like sticky binary chain must show diagonal dominance.
        rng = np.random.default_rng(5)
        sequences = []
        for _ in range(200):
            state = rng.integers(0, 2)
            seq = []
            for _ in range(16):
                if rng.random() < 0.15:
                    state = 1 - state
                seq.append("P" if state else "A")
            sequences.append("".join(seq))
        chain = estimate_markov_chain(sequences, order=2)
        assert chain.probability(("P", "P"), "P") > 0.8
        assert chain.probability(("A", "A"), "A") > 0.8
        assert chain.probability(("A", "P"), "P") < chain.probability(("P", "P"), "P")

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            estimate_markov_chain(["PPP"], order=0)

    def test_history_length_validation(self):
        chain = estimate_markov_chain(["PPPP"], order=2)
        with pytest.raises(ValueError):
            chain.probability(("P",), "P")


class TestSummaries:
    def test_coefficient_table_skips_intercept(self, linear_data):
        design, y = linear_data
        result = fit_ols(design, y)
        rows = coefficient_table(result)
        assert all(row.name != "(intercept)" for row in rows)
        assert len(rows) == len(design.names)

    def test_summarize_renders_stars_and_fit(self, linear_data):
        design, y = linear_data
        result = fit_ols(design, y)
        text = summarize_model(result, "My model")
        assert "My model" in text
        assert "***" in text
        assert "R^2" in text
        assert "x1" in text
