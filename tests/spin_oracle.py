"""Dense tensor operators and spin coherent states, as oracles for the
tests; the package stores a tensor basis as one orthogonal matrix per band
offset and never needs a coherent state."""

from __future__ import annotations

import numpy as np

from sphere_sapt.spin import SpinIrrep, wigner_zyz


def dense(tb: tuple, l: int, m: int) -> np.ndarray:
    """T_lm as a d x d matrix, from the blocks tb = tensor_basis(two_j)."""
    band = tb[abs(m)][l - abs(m)]
    return np.diag(band if m >= 0 else (-1) ** m * band, k=m)


def coherent_state(irrep: SpinIrrep, n: np.ndarray) -> np.ndarray:
    """Spin coherent state: the highest-weight vector rotated to point n."""
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError("coherent_state requires a unit vector")
    theta = np.arccos(np.clip(n[2], -1, 1))
    phi = np.arctan2(n[1], n[0])
    u = wigner_zyz(irrep, phi, theta, phi)
    return u.conj().T[:, 0].copy()
