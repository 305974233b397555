"""The principal symbol and the gap profile sampled on grids, as oracles for the tests."""

from __future__ import annotations

import numpy as np

from sphere_sapt.model import ModelParams, _symbol_field, gap_N
from sphere_sapt.sphere import Grid


def principal_symbol_field(params: ModelParams, grid: Grid) -> np.ndarray:
    """H_0(n) = (1-lam) S3 + lam n.S sampled at the nodes."""
    return _symbol_field(params, grid, params.lam)


def gap_profile(lam: float, n_theta: int = 181):
    """(theta grid, N values, min N over theta)."""
    theta = np.linspace(0.0, np.pi, n_theta)
    prof = gap_N(theta, lam)
    return theta, prof, float(prof.min())
