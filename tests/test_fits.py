"""Log-log slope fits and their confidence intervals."""

import numpy as np
import pytest

from sphere_sapt.fits import _t975, loglog_slope


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
