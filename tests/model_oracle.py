"""The principal symbol sampled on a grid, as an oracle for the tests."""

from __future__ import annotations

import numpy as np

from sphere_sapt.model import ModelParams, _symbol_field
from sphere_sapt.sphere import Grid


def principal_symbol_field(params: ModelParams, grid: Grid) -> np.ndarray:
    """H_0(n) = (1-lam) S3 + lam n.S sampled at the nodes."""
    return _symbol_field(params, grid, params.lam)
