"""The coupled two-spin (spin-orbit) model.

H = (1 - lam) 1 (x) S3 + lam (2/d_slow) J . S on H_slow (x) H_fast, with the
slow factor dequantized on the sphere.  Provides the principal symbol
(operator-valued coefficients, l <= 1), the principal bands
E_m(n, lam) = N(n, lam) m, eigenframes and projectors, the gap N, and the
pointwise reference unitary in ZYZ form.

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

__all__ = [
    "ModelParams",
    "BandData",
    "band_index",
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


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Exact Hamiltonian matrix on H_slow (x) H_fast."""
    J = params.slow.Jvec
    S = params.fast.Jvec
    lam = params.lam
    H = (1 - lam) * np.kron(np.eye(params.d_j), S[2])
    H = H + lam * (2 / params.d_j) * sum(np.kron(J[a], S[a]) for a in range(3))
    return H


def sector_blocks(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """H on the sectors of M = J3 (x) 1 + 1 (x) S3, for a spin-1/2 fast sector.

    H commutes with M.  With slow index i (J3 = j - i) and fast spin up (+)
    or down (-), sector M = j - i - 1/2 holds (i + 1, +) and (i, -), for
    i = 0 .. d - 2, and J- S+ couples them with the ladder amplitude
    sqrt((i + 1)(2j - i)).  Returns blocks, shape (d - 1, 2, 2), the real
    symmetric block of each sector in the basis ((i + 1, +), (i, -)), and
    edges, the energies of the two 1 x 1 sectors (0, +) and (d - 1, -),
    M = +-(j + 1/2).  O(d) work and memory at any two_j.
    """
    if params.two_s != 1:
        raise ValueError(f"the M-sectors are implemented for a spin-1/2 fast sector, got two_s = {params.two_s}")
    lam, d, two_j = params.lam, params.d_j, params.two_j
    mu = two_j / 2 - np.arange(d)  # slow J3 eigenvalues
    up = (1 - lam) / 2 + lam / d * mu  # <(i, +)| H |(i, +)>
    down = -(1 - lam) / 2 - lam / d * mu  # <(i, -)| H |(i, -)>
    i = np.arange(d - 1)
    c = lam / d * np.sqrt((i + 1) * (two_j - i))
    blocks = np.stack([np.stack([up[1:], c], axis=-1), np.stack([c, down[:-1]], axis=-1)], axis=-2)
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
    """Spectral distance N(theta, lam) between adjacent principal bands."""
    c = np.cos(theta)
    return np.sqrt(lam**2 + (1 - lam) ** 2 + 2 * lam * (1 - lam) * c)


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
    is not checked here: sapt refuses lam = 1/2 and chern_plaquette checks
    the gap on its grid.
    """
    idx = band_index(params.two_s, m)
    u0 = reference_unitary_field(params, theta, phi)
    frame = u0[..., idx, :].conj()  # u0^dagger psi_m
    projector = frame[..., :, None] * frame[..., None, :].conj()
    return BandData(frame, projector, u0)
