"""Exact finite-dimensional su(2) representation theory.

Spin matrices, trace-orthonormal tensor operators stored as one real
matrix per band offset m (its rows up to a band limit L, built one offset
at a time), and ZYZ rotations.  Basis ordering everywhere: index 0 is the highest
weight, so J3 = diag(j, j-1, ..., -j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SpinIrrep",
    "make_irrep",
    "offset_block",
    "tensor_basis",
    "wigner_zyz",
]


@dataclass(frozen=True)
class SpinIrrep:
    """Irreducible su(2) representation of dimension d = two_j + 1.

    The dense spin matrices are built on first use, so an irrep that only
    names a dimension (a quantization kernel, the sectors of the model)
    costs nothing at any two_j.
    """

    two_j: int

    @property
    def d(self) -> int:
        return self.two_j + 1

    @property
    def j(self) -> float:
        return self.two_j / 2

    @cached_property
    def Jvec(self) -> np.ndarray:
        """(J1, J2, J3) as one read-only (3, d, d) array, from the standard
        ladder-operator construction."""
        d, two_j = self.d, self.two_j
        mvals = self.j - np.arange(d)  # descending j..-j
        # J+ e_i = sqrt(i (2j+1-i)) e_{i-1}  (raising moves toward index 0)
        i = np.arange(1, d)
        Jp = np.zeros((d, d), dtype=complex)
        Jp[i - 1, i] = np.sqrt(i * (two_j + 1 - i))
        Jm = Jp.conj().T
        out = np.stack([(Jp + Jm) / 2, (Jp - Jm) / 2j, np.diag(mvals).astype(complex)])
        out.setflags(write=False)
        return out

    @cached_property
    def J2_eig(self) -> tuple:
        """The eigenpairs (w, V) of J2, read-only: every rotation of this irrep reads them."""
        w, V = np.linalg.eigh(self.Jvec[1])
        w.setflags(write=False)
        V.setflags(write=False)
        return w, V


@lru_cache(maxsize=None)
def make_irrep(two_j: int) -> SpinIrrep:
    """The spin-j irrep, one object per two_j."""
    if two_j < 0:
        raise ValueError("two_j must be a nonnegative integer")
    return SpinIrrep(two_j)


# ---------------------------------------------------------------------------
# Tensor operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def offset_block(two_j: int, m: int, L: int) -> np.ndarray:
    """Rows l <= L of Q[m]: the tensor operators T_lm, m <= l <= L, of one
    band offset 0 <= m <= L <= two_j, as a (L + 1 - m) x (d - m) matrix.

    Row l - m holds the nonzero entries of T_lm, which sit on the matrix
    diagonal with offset m (row i, column i + m); negative offsets follow
    from T_{l,-m} = (-1)^m T_lm^T.  At L = two_j the block is square and
    orthogonal.  The result coincides with the Clebsch-Gordan
    matrix-element construction in the Condon-Shortley convention
    (cross-checked in the test suite).

    The family {T_lm}_{l >= m} is generated by a Stieltjes (Lanczos)
    recurrence: the seed T_mm is the trace-normalized m-th power of J+ with
    sign (-1)^m, and multiplying by the diagonal row quantum number steps up
    in l.  Each step is orthogonalized twice against all earlier rows, one
    matrix product per pass ("twice is enough", CGS2), which keeps the
    block orthonormal to machine precision at any dimension.  Row r reads
    only rows < r, so the rows l <= L are those of the full basis bit for
    bit, at O(d L^2) work; the offsets are independent of each other.
    """
    if not 0 <= m <= L <= two_j:
        raise ValueError(f"a tensor basis of two_j = {two_j} needs 0 <= m <= L <= {two_j}, got m = {m}, L = {L}")
    # the seed: the diagonal of J+^k grown one ladder factor at a time,
    # (J+^k)[i, i+k] / (J+^(k-1))[i, i+k-1] = sqrt((i+k)(2j-i-k+1)), and
    # renormalized at each step, so it never overflows (J+^m does from two_j = 99)
    seed = np.full(two_j + 1, (two_j + 1) ** -0.5)
    for k in range(1, m + 1):
        i = np.arange(two_j + 1 - k)
        seed = seed[: len(i)] * np.sqrt((i + k) * (two_j - i - k + 1))
        seed /= np.linalg.norm(seed)
    n = two_j + 1 - m
    m1 = two_j / 2 - np.arange(n)  # row quantum numbers of the band
    Qm = np.empty((L + 1 - m, n))
    Qm[0] = (-1) ** m * seed
    for r in range(1, L + 1 - m):
        w = m1 * Qm[r - 1]
        for _pass in range(2):
            w -= Qm[:r].T @ (Qm[:r] @ w)
        Qm[r] = w / np.linalg.norm(w)
    Qm.setflags(write=False)
    return Qm


@lru_cache(maxsize=None)
def tensor_basis(two_j: int) -> tuple:
    """The full set {T_lm : l <= two_j, |m| <= l}: the blocks
    offset_block(two_j, m, two_j), m = 0..two_j (the cached blocks, not copies)."""
    return tuple(offset_block(two_j, m, two_j) for m in range(two_j + 1))


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


def wigner_zyz(irrep: SpinIrrep, alpha, beta, gamma) -> np.ndarray:
    """Rotation matrix exp(-i alpha J3) exp(i beta J2) exp(i gamma J3).

    The angles may be arrays of one shape; the result then has that shape
    followed by (d, d).  The middle factor is one batched matrix product,
    (V e^{i beta w}) V^dagger over the eigenpairs (w, V) of J2, and is real,
    as i J2 = (J+ - J-) / 2 is: its imaginary round-off is dropped.
    """
    mvals = irrep.j - np.arange(irrep.d)
    w, V = irrep.J2_eig
    mid = ((V * np.exp(1j * np.multiply.outer(beta, w))[..., None, :]) @ V.conj().T).real
    left = np.exp(-1j * np.multiply.outer(alpha, mvals))
    right = np.exp(1j * np.multiply.outer(gamma, mvals))
    return left[..., :, None] * mid * right[..., None, :]


def rotation_from_zyz(alpha, beta, gamma) -> np.ndarray:
    """SO(3) image of the ZYZ rotation, acting on column vectors n; angle
    arrays of one shape give that shape followed by (3, 3)."""
    u = wigner_zyz(make_irrep(1), alpha, beta, gamma)
    sig = make_irrep(1).Jvec * 2  # Pauli matrices
    # R_ab = tr(sig_a u sig_b u^dagger) / 2
    return 0.5 * np.einsum("aij,...jk,bkl,...il->...ab", sig, u, sig, u.conj()).real
