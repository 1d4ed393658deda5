"""Ordinary least squares with heteroskedasticity-robust standard errors.

Appendix C.1 of the paper fits "a multiple Ordinary Least Squares (OLS)
regression with robust standard errors" and reports standardized betas, an
overall F test, and R^2.  This implements exactly that: QR-based OLS, HC1
(the common default for "robust SEs"), normal-approximation p-values and
95% CIs, and the standard overall F statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc, ndtr

from repro.stats.design import DesignMatrix

__all__ = ["OLSResult", "fit_ols"]


@dataclass
class OLSResult:
    """Fitted OLS model with robust inference."""

    names: list[str]  # includes "(intercept)" first
    coefficients: np.ndarray
    std_errors: np.ndarray
    p_values: np.ndarray
    conf_int: np.ndarray  # shape (p, 2)
    r_squared: float
    f_statistic: float
    f_p_value: float
    df_model: int
    df_resid: int
    n: int

    def coefficient(self, name: str) -> float:
        """Point estimate for a named predictor."""
        return float(self.coefficients[self.names.index(name)])

    def p_value(self, name: str) -> float:
        """Robust p-value for a named predictor."""
        return float(self.p_values[self.names.index(name)])


def fit_ols(design: DesignMatrix, y, robust: str = "HC1") -> OLSResult:
    """Fit OLS of ``y`` on the design (intercept added automatically)."""
    y = np.asarray(list(y), dtype=float)
    if y.shape[0] != design.n:
        raise ValueError(f"y has {y.shape[0]} rows, design has {design.n}")
    if robust not in ("HC0", "HC1"):
        raise ValueError(f"unsupported robust flavor: {robust!r}")

    n = design.n
    X = np.column_stack([np.ones(n), design.matrix])
    names = ["(intercept)"] + list(design.names)
    p = X.shape[1]
    if n <= p:
        raise ValueError(f"need more observations ({n}) than parameters ({p})")

    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    residuals = y - X @ beta

    xtx_inv = np.linalg.pinv(X.T @ X)
    # Sandwich covariance: (X'X)^-1 X' diag(e^2) X (X'X)^-1.
    meat = X.T @ (X * (residuals**2)[:, None])
    cov = xtx_inv @ meat @ xtx_inv
    if robust == "HC1":
        cov = cov * n / (n - p)
    std_errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std_errors > 0, beta / std_errors, 0.0)
    p_values = 2.0 * ndtr(-np.abs(z))
    half = 1.959963984540054 * std_errors
    conf_int = np.column_stack([beta - half, beta + half])

    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    df_model = p - 1
    df_resid = n - p
    if ss_res > 0 and df_model > 0:
        f_stat = (ss_tot - ss_res) / df_model / (ss_res / df_resid)
        f_p = float(fdtrc(df_model, df_resid, f_stat))
    else:  # perfect fit or degenerate design
        f_stat, f_p = float("inf"), 0.0

    return OLSResult(
        names=names,
        coefficients=beta,
        std_errors=std_errors,
        p_values=p_values,
        conf_int=conf_int,
        r_squared=r_squared,
        f_statistic=float(f_stat),
        f_p_value=f_p,
        df_model=df_model,
        df_resid=df_resid,
        n=n,
    )
