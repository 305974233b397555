"""The coupled two-spin (spin-orbit) model.

H = (1 - lam) 1 (x) S3 + lam (2/d_slow) J . S on H_slow (x) H_fast, with the
slow factor dequantized on the sphere.  Provides the exact operator-valued
symbol, the principal bands E_m(n, lam) = N(n, lam) m, eigenframes and
projectors, the gap profile, and the pointwise reference unitary in ZYZ
form.

Angle conventions: the tilted axis n_lam = ((1-lam) e3 + lam n)/N has polar
angle theta' with cos(theta') = ((1-lam) + lam cos(theta))/N and
sin(theta') = lam sin(theta)/N (the latter is forced by |n_lam| = 1), and
azimuth phi' = phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, pi, sqrt

import numpy as np

from .spin import SpinIrrep, make_irrep, wigner_zyz
from .sphere import Grid, SphereSymbol, vector_symbol_coeffs

__all__ = [
    "ModelParams",
    "BandData",
    "band_index",
    "build_hamiltonian",
    "hamiltonian_symbol",
    "gap_N",
    "gap_profile",
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

    m: float
    energy: np.ndarray  # E_m(n, lam) at nodes
    frame: np.ndarray  # psi_m(n_lam) at nodes, (..., d_s)
    projector: np.ndarray  # (..., d_s, d_s)
    u0: np.ndarray  # reference unitary at nodes, (..., d_s, d_s)
    degenerate: bool


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


def _ns_coeffs(fast: SpinIrrep, scale: float) -> np.ndarray:
    """Coefficients of the matrix-valued symbol scale * n . S at L=1."""
    S = fast.Jvec
    nsyms = vector_symbol_coeffs()
    k = fast.d
    c = np.zeros((2, 3, k, k), dtype=complex)
    for a in range(3):
        c += nsyms[a].truncated(1).coeffs[..., None, None] * (scale * S[a])
    return c


def hamiltonian_symbol(params: ModelParams, order: int = 1) -> list[SphereSymbol]:
    """Exact semiclassical symbol terms [H_0, H_1, ...] of the Hamiltonian.

    H_0 = (1-lam) S3 + lam n.S; odd terms vanish; the even tail follows the
    closed-form expansion of sqrt(1 - d^{-2}).
    """
    fast = params.fast
    lam = params.lam
    terms: list[SphereSymbol] = []
    c0 = _ns_coeffs(fast, lam)
    c0[0, 1] += sqrt(4 * pi) * (1 - lam) * np.asarray(fast.J3)
    terms.append(SphereSymbol(c0))
    for k in range(1, order + 1):
        if k % 2 == 1:
            terms.append(SphereSymbol(np.zeros_like(c0)))
        else:
            half = k // 2
            coeff = lam * comb(2 * half, half) / (1 - 2 * half) / 4**half
            # this is the d^{-2 half} coefficient; expansion is in 1/d
            terms.append(SphereSymbol(_ns_coeffs(fast, coeff)))
    return terms


def _symbol_field(params: ModelParams, grid: Grid, c: float) -> np.ndarray:
    """Samples of (1-lam) S3 + c n.S at the grid nodes."""
    S = np.asarray(params.fast.Jvec)
    return (1 - params.lam) * S[2][None, None] + c * np.einsum("atp,aij->tpij", grid.nvec, S)


def exact_symbol_field(params: ModelParams, grid: Grid) -> np.ndarray:
    """Samples of the full symbol (1-lam) S3 + lam sqrt(1-d^{-2}) n.S."""
    return _symbol_field(params, grid, params.lam * sqrt(1 - params.d_j ** (-2)))


def lower_hamiltonian_symbol_field(params: ModelParams, grid: Grid) -> np.ndarray:
    """Samples of (1-lam) S3 + lam (1 - 1/d) n.S (coherent-state symbol)."""
    return _symbol_field(params, grid, params.lam * (1 - 1 / params.d_j))


def gap_N(theta, lam: float):
    """Spectral distance N(theta, lam) between adjacent principal bands."""
    c = np.cos(theta)
    return np.sqrt(lam**2 + (1 - lam) ** 2 + 2 * lam * (1 - lam) * c)


def gap_profile(lam: float, n_theta: int = 181):
    """(theta grid, N values, min N over theta)."""
    theta = np.linspace(0.0, pi, n_theta)
    prof = gap_N(theta, lam)
    return theta, prof, float(prof.min())


def tilt_angles(theta, lam: float):
    """(cos, sin, derivative d theta'/d theta) of the tilted polar angle."""
    N = gap_N(theta, lam)
    safe = np.where(N > 1e-300, N, 1.0)  # angles undefined at the degeneracy
    ct = ((1 - lam) + lam * np.cos(theta)) / safe
    st = lam * np.sin(theta) / safe
    dtp = lam * (lam + (1 - lam) * np.cos(theta)) / safe**2
    return ct, st, dtp


def reference_unitary_field(params: ModelParams, theta, phi) -> np.ndarray:
    """u0(n) rotating the tilted axis to e3: u0 H0 u0^dagger = N S3.

    Smooth on all of S^2 for lam < 1/2; for lam > 1/2 it is singular at
    theta = pi (non-trivial adiabatic bundle).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ct, st, _ = tilt_angles(theta, params.lam)
    beta = np.arctan2(st, ct)
    return wigner_zyz(params.fast, phi, beta, phi)


def principal_bands(params: ModelParams, theta, phi, m: float) -> BandData:
    """Band data of the principal symbol at the given points.

    m runs over s, s-1, ..., -s.  The collective degeneracy at
    (lam = 1/2, n = -e3) is flagged, not silently returned.
    """
    idx = band_index(params.two_s, m)
    theta = np.asarray(theta, dtype=float)
    N = gap_N(theta, params.lam)
    degenerate = bool(np.any(N < 1e-12))
    u0 = reference_unitary_field(params, theta, phi)
    e_m = np.zeros(params.d_s)
    e_m[idx] = 1.0
    frame = np.einsum("...ba,b->...a", u0.conj(), e_m)  # u0^dagger psi_m
    projector = frame[..., :, None] * frame[..., None, :].conj()
    energy = N * float(m)
    return BandData(float(m), energy, frame, projector, u0, degenerate)
