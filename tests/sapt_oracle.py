"""The Hausdorff distance from the full distance matrix, as an oracle for the
tests; the package finds each nearest point by a sorted merge."""

from __future__ import annotations

import numpy as np


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
