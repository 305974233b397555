"""Dense tensor operators, spin coherent states and J2's eigenpairs from
LAPACK, as oracles for the tests; the package stores a tensor basis as one
orthogonal matrix per band offset, never needs a coherent state and builds
J2's eigenbasis in closed form."""

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


def j2_eigh(two_j: int) -> tuple:
    """The eigenpairs (w ascending, V) of J2 = (J+ - J-) / 2i from LAPACK's
    eigh, with J+ built here from the ladder amplitudes."""
    i = np.arange(1, two_j + 1)
    Jp = np.diag(np.sqrt(i * (two_j + 1 - i)), 1)
    return np.linalg.eigh((Jp - Jp.T) / 2j)


def rotation_eigh(two_j: int, alpha: float, beta: float, gamma: float, eig: tuple) -> np.ndarray:
    """exp(-i alpha J3) exp(i beta J2) exp(i gamma J3) over the eigenpairs
    eig = j2_eigh(two_j), its middle factor kept complex."""
    w, V = eig
    m = two_j / 2 - np.arange(two_j + 1)
    mid = (V * np.exp(1j * beta * w)) @ V.conj().T
    return np.exp(-1j * alpha * m)[:, None] * mid * np.exp(1j * gamma * m)[None, :]
