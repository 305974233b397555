"""Oracles for the tests: the Hausdorff distance from the full distance
matrix (the package finds each nearest point by a sorted merge), and the
Heisenberg conjugation through eigh (the package uses that quantize(h0) is
diagonal)."""

from __future__ import annotations

import numpy as np


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def heisenberg(hq: np.ndarray, oq: np.ndarray, s: float) -> np.ndarray:
    """U oq U^dagger with U = exp(i s hq), from the eigendecomposition of hq."""
    w, V = np.linalg.eigh(hq)
    U = (V * np.exp(1j * w * s)) @ V.conj().T
    return U @ oq @ U.conj().T
