"""Exact finite-dimensional su(2) representation theory.

Spin matrices, trace-orthonormal tensor operators stored as one real
orthogonal matrix per band offset m, ZYZ rotations and spin coherent
states.  Basis ordering everywhere: index 0 is the highest weight, so
J3 = diag(j, j-1, ..., -j).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SpinIrrep",
    "make_irrep",
    "tensor_basis",
    "wigner_zyz",
    "coherent_state",
]


@dataclass(frozen=True)
class SpinIrrep:
    """Irreducible su(2) representation of dimension d = two_j + 1."""

    two_j: int
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray

    @property
    def d(self) -> int:
        return self.two_j + 1

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def casimir(self) -> float:
        return self.j * (self.j + 1)

    @property
    def Jvec(self) -> np.ndarray:
        return np.stack([self.J1, self.J2, self.J3])


@lru_cache(maxsize=None)
def make_irrep(two_j: int) -> SpinIrrep:
    """Standard ladder-operator construction of the spin-j matrices."""
    if two_j < 0:
        raise ValueError("two_j must be a nonnegative integer")
    d = two_j + 1
    j = two_j / 2
    mvals = j - np.arange(d)  # descending j..-j
    # J+ e_i = sqrt(i (2j+1-i)) e_{i-1}  (raising moves toward index 0)
    i = np.arange(1, d)
    raise_amp = np.sqrt(i * (two_j + 1 - i))
    Jp = np.zeros((d, d), dtype=complex)
    Jp[i - 1, i] = raise_amp
    Jm = Jp.conj().T
    J1 = (Jp + Jm) / 2
    J2 = (Jp - Jm) / 2j
    J3 = np.diag(mvals).astype(complex)
    for a in (J1, J2, J3):
        a.setflags(write=False)
    return SpinIrrep(two_j, J1, J2, J3)


# ---------------------------------------------------------------------------
# Tensor operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorBasis:
    """All tensor operators of an irrep, one orthogonal matrix per band offset.

    Q[m] (0 <= m <= 2j) is a real orthogonal (d-m) x (d-m) matrix whose row
    l - m holds the nonzero entries of T_lm, which sit on the matrix diagonal
    with offset m (row i, column i + m).  Negative offsets follow from
    T_{l,-m} = (-1)^m T_lm^T.
    """

    two_j: int
    Q: tuple = field(repr=False)

    @property
    def d(self) -> int:
        return self.two_j + 1

    def dense(self, l: int, m: int) -> np.ndarray:
        band = self.Q[abs(m)][l - abs(m)]
        return np.diag(band if m >= 0 else (-1) ** m * band, k=m)


@lru_cache(maxsize=None)
def tensor_basis(two_j: int) -> TensorBasis:
    """Build the full set {T_lm : l <= two_j, |m| <= l}.

    For each band offset m >= 0 the family {T_lm}_{l >= m} is generated by a
    Stieltjes (Lanczos) recurrence: the seed T_mm is the trace-normalized
    m-th power of J+ with sign (-1)^m, and multiplying by the diagonal row
    quantum number steps up in l.  Each step is orthogonalized twice against
    all earlier rows of Q[m], one matrix product per pass ("twice is
    enough", CGS2), which keeps Q[m] orthogonal to machine precision at any
    dimension.  The seed is grown from the one of offset m - 1 by a single
    ladder factor and renormalized, so it never overflows.  The result
    coincides with the Clebsch-Gordan matrix-element construction in the
    Condon-Shortley convention (cross-checked in the test suite).
    """
    d = two_j + 1
    j = two_j / 2
    Q = []
    seed = np.full(d, d**-0.5)
    for m in range(d):
        n = d - m
        if m:
            # (J+^m)[i, i+m] / (J+^(m-1))[i, i+m-1] = sqrt((i+m)(2j-i-m+1))
            i = np.arange(n)
            seed = seed[:n] * np.sqrt((i + m) * (two_j - i - m + 1))
            seed /= np.linalg.norm(seed)
        m1 = j - np.arange(n)  # row quantum numbers of the band
        Qm = np.empty((n, n))
        Qm[0] = (-1) ** m * seed
        for r in range(1, n):
            w = m1 * Qm[r - 1]
            for _pass in range(2):
                w -= Qm[:r].T @ (Qm[:r] @ w)
            Qm[r] = w / np.linalg.norm(w)
        Qm.setflags(write=False)
        Q.append(Qm)
    return TensorBasis(two_j, tuple(Q))


# ---------------------------------------------------------------------------
# Rotations and coherent states
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _j2_eig(two_j: int):
    irr = make_irrep(two_j)
    w, V = np.linalg.eigh(irr.J2)
    return w, V


def wigner_zyz(irrep: SpinIrrep, alpha, beta, gamma) -> np.ndarray:
    """Rotation matrix exp(-i alpha J3) exp(i beta J2) exp(i gamma J3).

    The angles may be arrays of one shape; the result then has that shape
    followed by (d, d).
    """
    mvals = irrep.j - np.arange(irrep.d)
    w, V = _j2_eig(irrep.two_j)
    mid = np.einsum("ak,...k,bk->...ab", V, np.exp(1j * np.multiply.outer(beta, w)), V.conj())
    left = np.exp(-1j * np.multiply.outer(alpha, mvals))
    right = np.exp(1j * np.multiply.outer(gamma, mvals))
    return left[..., :, None] * mid * right[..., None, :]


def rotation_from_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SO(3) image of the ZYZ rotation, acting on column vectors n."""
    u = wigner_zyz(make_irrep(1), alpha, beta, gamma)
    sig = make_irrep(1).Jvec * 2  # Pauli matrices
    R = np.empty((3, 3))
    for b in range(3):
        v = u @ sig[b] @ u.conj().T
        for a_ in range(3):
            R[a_, b] = 0.5 * np.trace(sig[a_] @ v).real
    return R


def coherent_state(irrep: SpinIrrep, n: np.ndarray) -> np.ndarray:
    """Spin coherent state: the highest-weight vector rotated to point n."""
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError("coherent_state requires a unit vector")
    theta = np.arccos(np.clip(n[2], -1, 1))
    phi = np.arctan2(n[1], n[0])
    u = wigner_zyz(irrep, phi, theta, phi)
    return u.conj().T[:, 0].copy()
