"""The Newton fitter of ``repro.stats.ordinal``: derivatives, convergence, guards.

The closed-form score and Hessian are checked against central differences:
the score against differences of ``_nll``, the Hessian against differences
of the score.  Every case is small enough to run in well under a second.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import ordinal
from repro.stats.design import build_design
from repro.stats.ordinal import _nll, _score_hessian, fit_ordinal

def ordinal_sample(seed: int, n: int, K: int, p: int, link: str):
    """(X, y) from the cumulative-link model itself, every category observed."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.linspace(0.5, -0.8, p)
    noise = rng.logistic(size=n) if link == "logit" else -rng.gumbel(size=n)
    latent = X @ beta + noise
    y = np.digitize(latent, np.quantile(latent, np.arange(1, K) / K))
    assert np.bincount(y, minlength=K).min() > 0
    return X, y


def central_score(params, X, y, K, link, h=1e-5):
    grad = np.empty_like(params)
    for j in range(params.size):
        e = np.zeros_like(params)
        e[j] = h
        grad[j] = (_nll(params + e, X, y, K, link) - _nll(params - e, X, y, K, link)) / (2 * h)
    return grad


def central_hessian(params, X, y, K, link, h=1e-5):
    hess = np.empty((params.size, params.size))
    for j in range(params.size):
        e = np.zeros_like(params)
        e[j] = h
        hess[:, j] = (
            _score_hessian(params + e, X, y, K, link)[0]
            - _score_hessian(params - e, X, y, K, link)[0]
        ) / (2 * h)
    return hess


def away_from_optimum(X, y, K, link, seed):
    """Start thresholds and beta, both jittered: a generic evaluation point."""
    rng = np.random.default_rng(seed)
    theta = ordinal._start_thresholds(y, K, link) + rng.uniform(-0.05, 0.05, K - 1)
    return np.concatenate([np.sort(theta), rng.uniform(-0.6, 0.6, X.shape[1])])


CASES = [
    (link, K, p)
    for link in ("logit", "cloglog")
    for K, p in ((2, 3), (4, 3), (16, 3), (4, 0))
]


@pytest.mark.parametrize("link,K,p", CASES)
def test_score_matches_central_differences(link, K, p):
    X, y = ordinal_sample(K + p, 600, K, p, link)
    params = away_from_optimum(X, y, K, link, seed=K)
    grad, _hess = _score_hessian(params, X, y, K, link)
    np.testing.assert_allclose(grad, central_score(params, X, y, K, link), rtol=1e-6, atol=1e-5)


@pytest.mark.parametrize("link,K,p", CASES)
def test_hessian_matches_central_differences_of_score(link, K, p):
    X, y = ordinal_sample(K + p, 600, K, p, link)
    params = away_from_optimum(X, y, K, link, seed=K)
    _grad, hess = _score_hessian(params, X, y, K, link)
    np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-9)
    np.testing.assert_allclose(hess, central_hessian(params, X, y, K, link), rtol=1e-6, atol=1e-5)


def test_all_zero_column_has_zero_score_row_and_zero_se():
    X, y = ordinal_sample(5, 600, 4, 2, "logit")
    X = np.column_stack([X, np.zeros(X.shape[0])])
    params = away_from_optimum(X, y, 4, "logit", seed=5)
    grad, hess = _score_hessian(params, X, y, 4, "logit")
    assert grad[-1] == 0.0
    assert not hess[-1].any() and not hess[:, -1].any()
    design = build_design(continuous={"a": X[:, 0], "b": X[:, 1], "zero": X[:, 2]}, categorical={})
    for link in ("logit", "cloglog"):
        result = fit_ordinal(design, y, link=link)
        assert result.converged
        assert result.coefficient("zero") == 0.0
        assert result.std_errors[-1] == 0.0
        assert result.p_value("zero") == 1.0
        assert np.all(result.std_errors[:2] > 0)


def test_cloglog_derivative_is_zero_where_the_cdf_clips():
    # One middle-category row whose upper z is 31 (> 30: _cdf clips, so
    # F(z_up) is exactly 1) and whose lower z is 1.
    X = np.array([[-11.0]])
    y = np.array([1])
    params = np.array([-10.0, 20.0, 1.0])
    grad, hess = _score_hessian(params, X, y, 3, "cloglog")
    assert grad[1] == 0.0
    assert not hess[1].any()
    assert grad[0] != 0.0
    np.testing.assert_allclose(grad, central_score(params, X, y, 3, "cloglog"), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(
        hess, central_hessian(params, X, y, 3, "cloglog"), rtol=1e-6, atol=1e-9
    )
    dens, slope = ordinal._density(np.array([30.5, 100.0, -700.5, -1e4]), "cloglog")
    assert not dens.any() and not slope.any()


def test_clipped_observation_contributes_nothing():
    # A bottom-category row 25 logits above its threshold and a top-category
    # row 25 below it have probability ~1e-11 < _EPS: _nll clips each to a
    # constant, so neither moves the score or the Hessian.
    X = np.array([[0.0], [25.0], [-25.0]])
    y = np.array([0, 0, 1])
    params = np.array([0.0, 1.0])
    grad, hess = _score_hessian(params, X, y, 2, "logit")
    alone_grad, alone_hess = _score_hessian(params, X[:1], y[:1], 2, "logit")
    np.testing.assert_array_equal(grad, alone_grad)
    np.testing.assert_array_equal(hess, alone_hess)
    np.testing.assert_allclose(grad, central_score(params, X, y, 2, "logit"), atol=1e-9)


# fit_ordinal needs a predictor; each fit's null model covers p = 0.
@pytest.mark.parametrize("link,K,p", [case for case in CASES if case[2] > 0])
def test_newton_converges_within_twenty_iterations(monkeypatch, link, K, p):
    monkeypatch.setattr(ordinal, "_MAX_ITER", 20)
    X, y = ordinal_sample(K + p, 2000, K, p, link)
    design = build_design(continuous={f"x{j}": X[:, j] for j in range(p)}, categorical={})
    result = fit_ordinal(design, y, link=link)
    assert result.converged
    grad, _hess = _score_hessian(
        np.concatenate([result.thresholds, result.coefficients]), X, y, K, link
    )
    assert np.abs(grad).max() <= ordinal._GTOL * y.size


def test_converged_requires_the_null_fit_to_converge(monkeypatch):
    X, y = ordinal_sample(3, 500, 3, 1, "logit")
    design = build_design(continuous={"x": X[:, 0]}, categorical={})
    assert fit_ordinal(design, y).converged
    newton = ordinal._newton

    def null_fails(X, y, K, link):
        params, converged = newton(X, y, K, link)
        return params, converged and X.shape[1] > 0

    monkeypatch.setattr(ordinal, "_newton", null_fails)
    assert not fit_ordinal(design, y).converged


def test_non_finite_hessian_gives_nan_ses_without_calling_lapack(monkeypatch):
    X, y = ordinal_sample(3, 500, 3, 1, "logit")
    design = build_design(continuous={"x": X[:, 0]}, categorical={})
    score_hessian = ordinal._score_hessian

    def inf_hessian(params, X, y, K, link):
        grad, hess = score_hessian(params, X, y, K, link)
        hess[0, 0] = np.inf
        return grad, hess

    def no_lapack(*_args, **_kwargs):
        raise AssertionError("LAPACK called on a non-finite matrix")

    monkeypatch.setattr(ordinal, "_score_hessian", inf_hessian)
    monkeypatch.setattr(np.linalg, "pinv", no_lapack)
    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    result = fit_ordinal(design, y)
    assert not result.converged
    assert np.isnan(result.std_errors).all()
    assert np.isnan(result.p_values).all()
    assert np.isnan(result.conf_int).all()


def test_failed_svd_gives_nan_ses_and_not_converged(monkeypatch):
    X, y = ordinal_sample(3, 500, 3, 1, "logit")
    design = build_design(continuous={"x": X[:, 0]}, categorical={})

    def svd_fails(*_args, **_kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", svd_fails)
    result = fit_ordinal(design, y)
    assert not result.converged
    assert np.isnan(result.std_errors).all()
