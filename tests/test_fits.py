"""Log-log slope fits and their confidence intervals."""

import numpy as np
import pytest

from sphere_sapt import star
from sphere_sapt.fits import _t975, least_squares, loglog_slope


def test_t_quantiles_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in (*range(1, 41), 50, 80, 120, 1000):
        assert _t975(dof) == pytest.approx(stats.t.ppf(0.975, dof), abs=1e-3)


def test_two_point_fit_has_no_interval():
    fit = loglog_slope([10, 20], [1.0, 0.25])
    assert fit.slope == pytest.approx(-2.0)
    assert fit.ci95 is None


def test_interval_widens_with_t_quantile():
    # at 10 degrees of freedom the interval uses t = 2.228, not z = 1.96
    rng = np.random.default_rng(3)
    x = np.arange(1.0, 13.0)
    y = x**-1.5 * np.exp(0.01 * rng.normal(size=x.size))
    fit = loglog_slope(x, y)
    lx = np.log(x)
    resid = np.log(y) - (fit.slope * lx + fit.intercept)
    se = np.sqrt(resid @ resid / 10 / np.sum((lx - lx.mean()) ** 2))
    assert fit.ci95 == pytest.approx(2.228 * se, rel=1e-9)


@pytest.mark.parametrize("y, bad", [([0.5, 0.0, 0.0], "y = 0.0 at x = 20.0"), ([1.0, 0.5, -0.1], "y = -0.1 at x = 40.0")])
def test_nonpositive_value_raises_naming_it(y, bad):
    with pytest.raises(ArithmeticError, match=bad):
        loglog_slope([10, 20, 40], y)


def _design(name, monkeypatch):
    """Design matrix and target: a log-log slope fit over four sizes, the real
    design of calibrate's default fit (sw product: the three ansatz columns
    over pairs and nodes, real and imaginary parts stacked), or a degree-8
    Vandermonde on [0, 1] (condition number ~1e6)."""
    rng = np.random.default_rng(7)
    if name == "slope":
        lx = np.log([11.0, 21.0, 41.0, 81.0])
        return np.stack([lx, np.ones(4)], axis=1), -2 * lx + 0.3 + 1e-3 * rng.normal(size=4)
    if name == "vandermonde":
        x = np.linspace(0.0, 1.0, 30)
        return np.vander(x, 9), np.cos(3 * x) + 1e-6 * rng.normal(size=30)
    seen = []
    monkeypatch.setattr(star, "least_squares", lambda A, b: seen.append((A, b)) or least_squares(A, b))
    star.calibrate_order1((10, 20, 40, 80), star.calibration_corpus(6, 3, seed=11), product="sw")
    return seen[0]


@pytest.mark.parametrize("name", ["slope", "calibrate", "vandermonde"])
def test_least_squares_matches_lapack(name, monkeypatch):
    # coefficients, residuals and covariance against lstsq and inv(A^T A); the
    # tolerances scale with the condition number kappa: kappa^2 for (A^T A)^-1,
    # which the oracle forms from the normal equations, and for the residual
    # variance the residuals' error relative to their own size
    A, b = _design(name, monkeypatch)
    coef, resid, cov = least_squares(A, b)
    want = np.linalg.lstsq(A, b, rcond=None)[0]
    want_resid = b - A @ want
    dof = max(len(b) - A.shape[1], 1)
    var, want_var = float(resid @ resid) / dof, float(want_resid @ want_resid) / dof
    kappa = np.linalg.cond(A)
    tol = 10 * kappa * np.finfo(float).eps
    assert np.max(np.abs(coef - want)) <= tol * np.max(np.abs(want))
    assert np.max(np.abs(resid - want_resid)) <= tol * np.max(np.abs(b))
    assert abs(var / want_var - 1) <= 2 * tol * np.max(np.abs(b)) / np.max(np.abs(want_resid))
    inv = np.linalg.inv(A.T @ A)
    assert np.max(np.abs(cov / var - inv)) <= kappa * tol * np.max(np.abs(inv))


def test_least_squares_refuses_a_dependent_column():
    A = np.stack([np.ones(5), np.arange(5.0), 2 * np.ones(5)], axis=1)
    with pytest.raises(ArithmeticError, match="column 2"):
        least_squares(A, np.arange(5.0))


@pytest.mark.parametrize("ds", [(41.0, 81.0), (21.0, 41.0, 81.0), (2561.0, 5121.0), (1281.0, 2561.0, 5121.0)])
def test_richardson_weights_cancel_the_inverse_powers(ds):
    # sum w = 1 and sum w / d^p = 0 for p = 1 .. len(ds) - 1, so the extrapolation
    # keeps T1 of T1 + T2/d + T3/d^2 + ...; they solve the Vandermonde system
    ds = np.array(ds)
    w = star._richardson_weights(ds)
    assert abs(w.sum() - 1) < 1e-13
    for p in range(1, len(ds)):
        assert abs(w @ ds**-p) < 1e-13
    rhs = np.eye(len(ds))[0]
    assert np.max(np.abs(w - np.linalg.solve(np.vander(1 / ds, len(ds), increasing=True).T, rhs))) < 1e-12
