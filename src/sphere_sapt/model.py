"""The coupled two-spin (spin-orbit) model.

H = (1 - lam) 1 (x) S3 + lam (2/d_slow) J . S on H_slow (x) H_fast, with the
slow factor dequantized on the sphere.  H is kept as one array, its three
slow offset diagonals of fast blocks (hamiltonian_diagonals, in the layout of
swq.quantize_diagonals); kernel-check reads its symbols from it, and
sector_blocks reads it, as it reads every quantized band symbol, into the
sectors of M = J3 (x) 1 + 1 (x) S3.  Provides the principal symbol
(operator-valued coefficients, l <= 1), the principal bands
E_m(n, lam) = N(n, lam) m, eigenframes and projectors, the gap N, and the
pointwise reference unitary in ZYZ form.  The bands touch only at
(lam = 1/2, n = -e3); ModelParams.require_gap is the one rule that
refuses a coupling there, and ModelParams.topological the one side of it.

Angle conventions: the tilted axis n_lam = ((1-lam) e3 + lam n)/N has polar
angle theta' with cos(theta') = ((1-lam) + lam cos(theta))/N and
sin(theta') = lam sin(theta)/N (the latter is forced by |n_lam| = 1), and
azimuth phi' = phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .spin import SpinIrrep, make_irrep, wigner_zyz
from .sphere import SphereSymbol, vector_symbol_coeffs
from .swq import _scatter

__all__ = [
    "ModelParams",
    "BandData",
    "band_index",
    "hamiltonian_diagonals",
    "build_hamiltonian",
    "sector_blocks",
    "hamiltonian_symbol",
    "gap_N",
    "tilt_angles",
    "reference_unitary_field",
    "principal_bands",
]


@dataclass(frozen=True)
class ModelParams:
    two_j: int
    two_s: int
    lam: float

    def __post_init__(self):
        if self.two_s < 0:
            raise ValueError(f"two_s must be >= 0, got {self.two_s}")
        if self.two_j <= self.two_s:
            raise ValueError("slow sector must be larger: two_j > two_s")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")

    def require_gap(self) -> None:
        """The one rule for a gapped principal symbol.  Its bands touch only
        where N(pi, lam) = |1 - 2 lam| vanishes: ValueError within 1e-12 of
        the closing lam = 1/2."""
        if abs(self.lam - 0.5) < 1e-12:
            raise ValueError("no spectral gap within 1e-12 of the closing lam = 1/2")

    @property
    def topological(self) -> bool:
        """lam >= 1/2, the side of the closing with a nontrivial band bundle
        (the closing itself labels its finite-d levels as this side's)."""
        return self.lam >= 0.5

    @property
    def d_j(self) -> int:
        return self.two_j + 1

    @property
    def d_s(self) -> int:
        return self.two_s + 1

    @property
    def slow(self) -> SpinIrrep:
        return make_irrep(self.two_j)

    @property
    def fast(self) -> SpinIrrep:
        return make_irrep(self.two_s)


@dataclass
class BandData:
    """Per-band spectral data of the principal symbol on a grid."""

    frame: np.ndarray  # psi_m(n_lam) at nodes, (..., d_s)
    projector: np.ndarray  # (..., d_s, d_s)
    u0: np.ndarray  # reference unitary at nodes, (..., d_s, d_s)


def band_index(two_s: int, m: float) -> int:
    """Position k of band m = s - k in s, s-1, ..., -s; any other label is rejected."""
    k = two_s / 2 - float(m)
    if not (k.is_integer() and 0 <= k <= two_s):
        raise ValueError(f"band label m={m} is not one of s, s-1, ..., -s for s = {two_s / 2}")
    return int(k)


def hamiltonian_diagonals(params: ModelParams) -> np.ndarray:
    """H's slow offset diagonals, row-indexed as swq.quantize_diagonals lays
    them out: shape (3, d, d_s, d_s), entry [1 + a, r] the fast block
    (r, r + a), zero where r + a leaves the matrix.  J.S = J3 S3 + (J+ S- + J- S+) / 2
    gives, with J3 = j - r,

        offset  0:  ((1 - lam) + (2 lam / d)(j - r)) S3
        offset +1:  (lam / d) sqrt((r + 1)(2j - r)) S-
        offset -1:  (lam / d) sqrt(r (2j - r + 1)) S+

    for any fast spin.  O(d d_s^2) work and memory at any two_j.
    """
    lam, d, two_j, S = params.lam, params.d_j, params.two_j, params.fast.Jvec
    Sp = (S[0] + 1j * S[1]).real  # S+ = S1 + i S2
    r = np.arange(d)[:, None, None]
    D = np.zeros((3, d) + Sp.shape)
    D[1] = ((1 - lam) + 2 * lam / d * (two_j / 2 - r)) * S[2].real
    D[2, :-1] = lam / d * np.sqrt((r[:-1] + 1) * (two_j - r[:-1])) * Sp.T
    D[0, 1:] = lam / d * np.sqrt(r[1:] * (two_j - r[1:] + 1)) * Sp
    return D


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """The dense 2d x 2d H on H_slow (x) H_fast, the scatter of its diagonals.
    No command calls it."""
    return _scatter(hamiltonian_diagonals(params))


def sector_blocks(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An operator that conserves M = J3 (x) 1 + 1 (x) S3 on its sectors,
    read from its row-indexed offset diagonals D, shape (2K + 1, d, 2, 2)
    (a spin-1/2 fast sector; the layout of hamiltonian_diagonals and
    swq.quantize_diagonals): the one read for H and every band symbol.

    With slow index i (J3 = j - i) and fast spin up (+) or down (-), sector
    M = j - i - 1/2 holds (i + 1, +) and (i, -), for i = 0 .. d - 2, coupled
    by offset -1 at row i + 1 (entry (+, -); J- S+ in H) and offset +1 at
    row i (entry (-, +)); with K = 0 the blocks are diagonal.  Returns
    blocks, shape (d - 1, 2, 2), each sector's block in the basis
    ((i + 1, +), (i, -)), and edges, the entries of the two 1 x 1 sectors
    (0, +) and (d - 1, -), M = +-(j + 1/2).  O(d) work and memory.
    """
    if D.shape[2:] != (2, 2):
        raise ValueError(f"the M-sectors are implemented for a spin-1/2 fast sector, got two_s = {D.shape[-1] - 1}")
    K = len(D) // 2
    up, down = D[K, :, 0, 0], D[K, :, 1, 1]  # <(i, +)| D |(i, +)> and <(i, -)| D |(i, -)>
    blocks = np.zeros((D.shape[1] - 1, 2, 2), dtype=D.dtype)
    blocks[:, 0, 0], blocks[:, 1, 1] = up[1:], down[:-1]
    if K:
        blocks[:, 0, 1], blocks[:, 1, 0] = D[K - 1, 1:, 0, 1], D[K + 1, :-1, 1, 0]
    return blocks, np.array([up[0], down[-1]])


def hamiltonian_symbol(params: ModelParams) -> SphereSymbol:
    """Principal symbol H_0 = (1-lam) S3 + lam n.S of the Hamiltonian, at L = 1."""
    fast, lam = params.fast, params.lam
    c = np.zeros((2, 3, fast.d, fast.d), dtype=complex)
    for n, S in zip(vector_symbol_coeffs(), fast.Jvec):
        c += n.coeffs[..., None, None] * (lam * S)
    c[0, 1] += sqrt(4 * pi) * (1 - lam) * fast.Jvec[2]
    return SphereSymbol(c)


def gap_N(theta, lam: float):
    """Spectral distance N(theta, lam) between adjacent principal bands.

    N^2 = (1 - 2 lam)^2 + 2 lam (1 - lam)(1 + cos theta), a sum of two
    nonnegative terms for lam in [0, 1]: at theta = pi it is exactly
    |1 - 2 lam|, with no cancellation near the closing lam = 1/2."""
    return np.sqrt((1 - 2 * lam) ** 2 + 2 * lam * (1 - lam) * (1 + np.cos(theta)))


def tilt_angles(theta, lam: float):
    """(cos, sin) of the tilted polar angle."""
    N = gap_N(theta, lam)
    safe = np.where(N > 1e-300, N, 1.0)  # angles undefined at the degeneracy
    return ((1 - lam) + lam * np.cos(theta)) / safe, lam * np.sin(theta) / safe


def reference_unitary_field(params: ModelParams, theta, phi) -> np.ndarray:
    """u0(n) rotating the tilted axis to e3: u0 H0 u0^dagger = N S3.

    Smooth on all of S^2 for lam < 1/2; for lam > 1/2 it is singular at
    theta = pi (non-trivial adiabatic bundle).
    """
    ct, st = tilt_angles(theta, params.lam)
    beta = np.arctan2(st, ct)
    return wigner_zyz(params.fast, phi, beta, phi)


def principal_bands(params: ModelParams, theta, phi, m: float) -> BandData:
    """Band data of the principal symbol at the given points.

    m runs over s, s-1, ..., -s.  The gap closing at (lam = 1/2, n = -e3)
    is not checked here: sapt and berry call ModelParams.require_gap.
    """
    idx = band_index(params.two_s, m)
    u0 = reference_unitary_field(params, theta, phi)
    frame = u0[..., idx, :].conj()  # u0^dagger psi_m
    projector = frame[..., :, None] * frame[..., None, :].conj()
    return BandData(frame, projector, u0)
