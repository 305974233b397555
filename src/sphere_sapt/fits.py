"""Least-squares slope fitting for log-log convergence data, by thin QR (no LAPACK)."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["SlopeFit", "least_squares", "loglog_slope"]

# two-sided 95% (upper 97.5%) Student-t quantiles for 1..30 degrees of freedom
_T975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)
_Z975 = 1.959963984540054


def _t975(dof: int) -> float:
    """Upper 97.5% Student-t quantile.

    Tabulated to 30 degrees of freedom; beyond that the Cornish-Fisher
    expansion about the normal quantile (Abramowitz & Stegun 26.7.5), whose
    truncation error there is below 1e-6.
    """
    if dof <= len(_T975):
        return _T975[dof - 1]
    z = _Z975
    g = (
        (z**3 + z) / 4,
        (5 * z**5 + 16 * z**3 + 3 * z) / 96,
        (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384,
        (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160,
    )
    return z + sum(gk / dof ** (k + 1) for k, gk in enumerate(g))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    ci95: float | None  # half-width of the 95% slope interval; None for two points
    n_points: int
    residual: float  # rms residual in log space

    def as_dict(self) -> dict:
        return asdict(self)


def least_squares(A: np.ndarray, b: np.ndarray):
    """Coefficients x minimising |A x - b|, the residuals b - A x and the
    covariance of x, its residual variance over max(n - k, 1) degrees of
    freedom for n rows and k columns, by thin QR: CGS2 over the columns, carrying
    T = R^-1 along (Q = A T), x = T Q^T b and the covariance sigma^2 T T^T.
    ArithmeticError for a column numerically dependent on the earlier ones."""
    n, k = A.shape
    Q, T = np.zeros((n, k)), np.zeros((k, k))
    for c in range(k):
        v, t = A[:, c], np.eye(k)[c]
        for _pass in range(2):
            r = Q.T @ v
            v, t = v - Q @ r, t - T @ r
        norm = np.linalg.norm(v)
        if not norm > 1e-12 * np.linalg.norm(A[:, c]):
            raise ArithmeticError(f"least squares: column {c} of the design depends on the earlier ones")
        Q[:, c], T[:, c] = v / norm, t / norm
    coef = T @ (Q.T @ b)
    resid = b - A @ coef
    return coef, resid, float(resid @ resid) / max(n - k, 1) * (T @ T.T)


def loglog_slope(x, y) -> SlopeFit:
    """Fit log y = slope log x + intercept with a slope confidence interval.

    Raises ArithmeticError naming the first point that has no logarithm.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    bad = np.flatnonzero(~((x > 0) & (y > 0)))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"log-log fit needs positive values, got y = {float(y[i])!r} at x = {float(x[i])!r}")
    lx, ly = np.log(x), np.log(y)
    coef, resid, cov = least_squares(np.stack([lx, np.ones(n)], axis=1), ly)
    if n == 2:
        return SlopeFit(float(coef[0]), float(coef[1]), None, n, 0.0)
    return SlopeFit(
        float(coef[0]),
        float(coef[1]),
        float(_t975(n - 2) * np.sqrt(cov[0, 0])),
        n,
        float(np.sqrt(np.mean(resid**2))),
    )
