"""Proportional-odds (cumulative link) ordinal regression.

The paper's main model (Table 3) is an ordinal regression of binned return
frequency with a logit link; the robustness model (Table 7) treats all 16
frequencies as categories with a complementary log-log link ("due to the
distribution being skewed towards the highest value").

Model: for outcome categories 0..K-1 with thresholds theta_1 < ... <
theta_{K-1},

    P(Y <= k | x) = F(theta_{k+1} - x @ beta)

with F the inverse link (logistic sigmoid, or cloglog's Gumbel CDF).  Both
densities are log-concave, so the negative log-likelihood is convex in
(theta, beta).  It is minimized by damped Newton steps on its closed-form
score and Hessian, starting from the thresholds of the observed cumulative
shares and beta = 0; each step is halved until the thresholds stay ordered
and the likelihood does not fall.  The Wald standard errors come from the
same Hessian at the optimum, and fit is reported as the LR chi-square
against the intercept-only model plus McFadden's pseudo-R^2 — the
quantities the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from repro.stats.design import DesignMatrix

__all__ = ["OrdinalResult", "fit_ordinal"]

_EPS = 1e-10
# A fit has converged when max |score| <= _GTOL * n.  Below about that, a
# Newton step changes the NLL by less than the NLL's own rounding error.
_GTOL = 1e-8
_MAX_ITER = 100
_MAX_HALVINGS = 60


@dataclass
class OrdinalResult:
    """Fitted cumulative-link model."""

    link: str
    names: list[str]  # predictor names (no intercept; thresholds separate)
    coefficients: np.ndarray
    std_errors: np.ndarray
    p_values: np.ndarray
    conf_int: np.ndarray
    thresholds: np.ndarray
    log_likelihood: float
    null_log_likelihood: float
    lr_statistic: float
    lr_p_value: float
    pseudo_r_squared: float
    n: int
    n_categories: int
    converged: bool

    def coefficient(self, name: str) -> float:
        """Point estimate for a named predictor."""
        return float(self.coefficients[self.names.index(name)])

    def p_value(self, name: str) -> float:
        """Wald p-value for a named predictor."""
        return float(self.p_values[self.names.index(name)])


def _cdf(z: np.ndarray, link: str) -> np.ndarray:
    if link == "logit":
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if link == "cloglog":
        return -np.expm1(-np.exp(np.clip(z, -700, 30)))
    raise ValueError(f"unsupported link: {link!r}")


def _category_probs(
    theta: np.ndarray, eta: np.ndarray, y: np.ndarray, link: str
) -> np.ndarray:
    """P(Y = y_i | x_i) for every observation."""
    k_max = theta.shape[0]  # K-1 thresholds
    upper = np.where(y < k_max, _cdf(theta[np.minimum(y, k_max - 1)] - eta, link), 1.0)
    lower = np.where(y > 0, _cdf(theta[np.maximum(y - 1, 0)] - eta, link), 0.0)
    return np.clip(upper - lower, _EPS, 1.0)


def _nll(params: np.ndarray, X: np.ndarray, y: np.ndarray, K: int, link: str) -> float:
    theta = params[: K - 1]
    beta = params[K - 1 :]
    if np.any(np.diff(theta) <= 0):
        return np.inf
    eta = X @ beta if beta.size else np.zeros(X.shape[0])
    return -float(np.log(_category_probs(theta, eta, y, link)).sum())


def _start_thresholds(y: np.ndarray, K: int, link: str) -> np.ndarray:
    cum = np.cumsum(np.bincount(y, minlength=K)[:-1]) / y.shape[0]
    cum = np.clip(cum, 0.01, 0.99)
    cum = np.maximum.accumulate(cum + np.arange(K - 1) * 1e-6)
    if link == "logit":
        return np.log(cum / (1.0 - cum))
    return np.log(-np.log(1.0 - cum))


def _density(z: np.ndarray, link: str) -> tuple[np.ndarray, np.ndarray]:
    """F'(z) and F''(z) of the inverse link; both 0 wherever ``_cdf`` clips z."""
    if link == "logit":
        cdf = _cdf(z, link)
        dens = cdf * (1.0 - cdf)
        return dens, dens * (1.0 - 2.0 * cdf)
    zc = np.clip(z, -700, 30)
    ez = np.exp(zc)
    dens = np.where(zc == z, np.exp(zc - ez), 0.0)
    return dens, dens * (1.0 - ez)


def _score_hessian(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, K: int, link: str
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradient and Hessian of ``_nll`` in (theta, beta).

    Observation i contributes -log(F(z_up) - F(z_low)), where
    z_up = a_up @ params and z_low = a_low @ params are linear, with
    a = (e_threshold, -x_i); the top category has no upper term and the
    bottom one no lower term.  With p the category probability,
    r = F'(z_up) / p and s = F'(z_low) / p, the term's gradient is
    s a_low - r a_up, and its Hessian is
    (r^2 - F''(z_up)/p) a_up a_up' + (s^2 + F''(z_low)/p) a_low a_low'
    - r s (a_up a_low' + a_low a_up').  An observation whose probability
    ``_nll`` clips at ``_EPS`` is constant there and contributes nothing.
    """
    n = y.shape[0]
    k_max = K - 1
    theta, beta = params[:k_max], params[k_max:]
    eta = X @ beta if beta.size else np.zeros(n)
    up, low = y < k_max, y > 0
    z_up = theta[np.minimum(y, k_max - 1)] - eta
    z_low = theta[np.maximum(y - 1, 0)] - eta
    prob = _category_probs(theta, eta, y, link)
    inv_up = np.where(up & (prob > _EPS), 1.0 / prob, 0.0)
    inv_low = np.where(low & (prob > _EPS), 1.0 / prob, 0.0)
    dens_up, slope_up = _density(z_up, link)
    dens_low, slope_low = _density(z_low, link)
    r = dens_up * inv_up
    s = dens_low * inv_low

    a_up = np.zeros((n, k_max + X.shape[1]))
    a_up[up, y[up]] = 1.0
    a_up[:, k_max:] = -X
    a_low = np.zeros_like(a_up)
    a_low[low, y[low] - 1] = 1.0
    a_low[:, k_max:] = -X

    grad = a_low.T @ s - a_up.T @ r
    hess = (a_up.T * (r * r - slope_up * inv_up)) @ a_up
    hess += (a_low.T * (s * s + slope_low * inv_low)) @ a_low
    cross = (a_up.T * (r * s)) @ a_low
    hess -= cross + cross.T
    return grad, hess


def _newton(X: np.ndarray, y: np.ndarray, K: int, link: str) -> tuple[np.ndarray, bool]:
    """Minimize ``_nll`` by damped Newton steps; return (params, converged).

    Starts from the cumulative-share thresholds and beta = 0.  Each step is
    halved until the thresholds stay strictly increasing (``_nll`` finite)
    and the NLL does not rise.  Converged means max |score| <= ``_GTOL`` * n.
    """
    params = np.concatenate([_start_thresholds(y, K, link), np.zeros(X.shape[1])])
    nll = _nll(params, X, y, K, link)
    for _ in range(_MAX_ITER):
        grad, hess = _score_hessian(params, X, y, K, link)
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            return params, False
        if np.abs(grad).max() <= _GTOL * y.shape[0]:
            return params, True
        # Least squares gives the minimum-norm step when a predictor column is
        # all zero and its Hessian row is 0.
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        for _ in range(_MAX_HALVINGS):
            trial = params - step
            trial_nll = _nll(trial, X, y, K, link)
            if trial_nll <= nll:
                break
            step = step / 2.0
        else:
            return params, False
        params, nll = trial, trial_nll
    return params, False


def fit_ordinal(design: DesignMatrix, y, link: str = "logit") -> OrdinalResult:
    """Fit the cumulative-link model of ``y`` (0-based categories) on a design."""
    y = np.asarray(list(y), dtype=int)
    if y.shape[0] != design.n:
        raise ValueError(f"y has {y.shape[0]} rows, design has {design.n}")
    if y.min() < 0:
        raise ValueError("categories must be 0-based non-negative integers")
    K = int(y.max()) + 1
    if K < 2:
        raise ValueError("need at least two outcome categories")
    counts = np.bincount(y, minlength=K)
    if np.any(counts == 0):
        raise ValueError(
            f"every category must be observed; empty: {np.where(counts == 0)[0].tolist()}"
        )
    X = design.matrix
    p = design.p

    params, converged = _newton(X, y, K, link)
    ll = -_nll(params, X, y, K, link)

    # Intercept-only null model for the LR test and pseudo-R^2.
    X_null = np.zeros((y.shape[0], 0))
    null_params, null_converged = _newton(X_null, y, K, link)
    ll_null = -_nll(null_params, X_null, y, K, link)
    converged = converged and null_converged

    lr = max(0.0, 2.0 * (ll - ll_null))
    lr_p = float(chdtrc(p, lr)) if p > 0 else 1.0
    pseudo_r2 = 1.0 - ll / ll_null if ll_null != 0 else 0.0

    # Wald inference from the analytic Hessian in (theta, beta) space.
    hess = _score_hessian(params, X, y, K, link)[1]
    std_errors = np.full(p, np.nan)
    if np.isfinite(hess).all():  # LAPACK's SVD may never return on inf or NaN
        try:
            variances = np.diag(np.linalg.pinv(hess))[K - 1 :]
            std_errors = np.sqrt(np.clip(variances, 0.0, None))
        except np.linalg.LinAlgError:  # the SVD did not converge
            pass
    converged = converged and not np.isnan(std_errors).any()

    beta = params[K - 1 :]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std_errors == 0, 0.0, beta / std_errors)
    p_values = 2.0 * ndtr(-np.abs(z))
    half = 1.959963984540054 * std_errors
    conf_int = np.column_stack([beta - half, beta + half])

    return OrdinalResult(
        link=link,
        names=list(design.names),
        coefficients=beta,
        std_errors=std_errors,
        p_values=p_values,
        conf_int=conf_int,
        thresholds=params[: K - 1],
        log_likelihood=ll,
        null_log_likelihood=ll_null,
        lr_statistic=lr,
        lr_p_value=lr_p,
        pseudo_r_squared=float(pseudo_r2),
        n=int(y.shape[0]),
        n_categories=K,
        converged=converged,
    )
