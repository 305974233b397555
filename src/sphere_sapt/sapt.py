"""Adiabatic perturbation theory for the two-spin model.

Order-1 pipeline: the band projector symbol pi0 and its first correction
pi1 (solved node-wise in the fiber eigenbasis from the projection and
commutation conditions of the star calculus), the effective band
Hamiltonian h0 + d^-1 h1 from the same calculus (its closed form from
analytic derivatives, two_s = 1, is the oracle in tests/sapt_oracle.py),
and the semiclassical (Egorov) propagation check against the classical
precession flow.  Projection and Hamiltonian are order-1 series, (pi0,
pi1) and (h0, h1), which the sweeps truncate.  All star-dependent pieces
take a CoefficientSet so the printed and calibrated expansions can be
compared downstream.

The operator side of the checks works on the sectors of M = J3 (x) 1 +
1 (x) S3, which H and every quantized band symbol conserve; one function,
model.sector_blocks, reads both into them.  The sectors say which band
each exact level is in (exact_band_projection, O(d)), and the invariance
norm and the Heisenberg evolution read a few diagonals of each operator,
O(d L) (Egorov: O(d^3)) instead of dense 2d x 2d algebra and eigensolvers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fits import loglog_slope
from .model import (
    ModelParams,
    band_index,
    gap_N,
    hamiltonian_diagonals,
    hamiltonian_symbol,
    principal_bands,
    sector_blocks,
)
from .sphere import Grid, SphereSymbol, make_grid
from .spin import SpinIrrep
from .star import CALIBRATED, CoefficientSet, SemiclassicalSymbol, order1_samples
from .swq import SWKernel, dequantize_diagonals, quantize_diagonals

__all__ = [
    "BAND_LIMIT",
    "moyal_projection",
    "sector_commutator_norm",
    "almost_invariance_norms",
    "exact_band_projection",
    "effective_hamiltonian",
    "band_spectrum_compare",
    "classical_flow",
    "heisenberg_symbol",
    "egorov_error",
    "EGOROV_TIME_SIGN",
]

# sign in s = EGOROV_TIME_SIGN * (d_j / 2) * t relating operator time s to
# classical time t; fixed once by the precession direction test in the suite
EGOROV_TIME_SIGN = -1.0
# band limit of the projection and effective symbols: N(theta) is not
# band-limited, and L = 24 is converged to 1e-6 relative up to two_j = 160
# (tested), with the sector round-off growing with L at large d
BAND_LIMIT = 24


@lru_cache(maxsize=None)
def _symbol_grid(L_exact: int, two_s: int) -> Grid:
    """Grid for the band symbols of a spin two_s / 2 fast sector.

    H0 = (1-lam) S3 + lam n.S is covariant under rotations about e3, and so
    are u0, the band projectors and energies: entry (a, b) of each field is
    e^{i (m_b - m_a) phi} g(theta) with |m_b - m_a| <= two_s.  Products,
    gradients and the eigenbasis solve keep that form, so 2 two_s + 1 phi
    nodes carry every transform here exactly; the grid's synthesis refuses
    a symbol with content at |m| > two_s.
    """
    return Grid(L_exact, two_s)


def _band_grid(params: ModelParams, m: float, L: int):
    """(grid, band index, theta mesh, phi mesh) of the band-m symbols at band
    limit L, after refusing a coupling with no gap (ModelParams.require_gap)
    and a label that is no band."""
    params.require_gap()
    idx = band_index(params.two_s, m)
    grid = _symbol_grid(4 * L, params.two_s)
    return (grid, idx, *np.meshgrid(grid.theta, grid.phi, indexing="ij"))


def moyal_projection(
    params: ModelParams,
    m: float,
    cs: CoefficientSet = CALIBRATED,
    L: int = BAND_LIMIT,
) -> SemiclassicalSymbol:
    """Projection series pi0 + d^-1 pi1 of band m.

    pi1 is determined uniquely by the order-1 parts of p * p = p and
    [H, p] = 0: in the fiber eigenbasis its band-diagonal blocks come from
    the projection condition and the off-diagonal entries from the
    commutation condition divided by the band gaps.
    """
    grid, idx, th2, ph2 = _band_grid(params, m, L)
    bd = principal_bands(params, th2, ph2, m)
    pi0 = grid.analyze(bd.projector, L)
    H0 = hamiltonian_symbol(params)
    Bf = order1_samples(pi0, pi0, cs, grid)
    Gf = order1_samples(pi0, H0, cs, grid) - order1_samples(H0, pi0, cs, grid)
    u0 = bd.u0
    u0c = u0.conj().swapaxes(-1, -2)

    # eigenbasis: X' = u0 X u0^dagger, H0' = N S3
    Bp = u0 @ Bf @ u0c
    Gp = u0 @ Gf @ u0c
    mvals = params.two_s / 2 - np.arange(params.d_s)
    E = gap_N(th2, params.lam)[..., None] * mvals
    denom = E[..., :, None] - E[..., None, :]
    denom[denom == 0] = 1.0  # diagonal entries; overwritten below

    pi1p = Bp.copy()
    off = Gp / denom
    pi1p[..., idx, :] = off[..., idx, :]
    pi1p[..., :, idx] = off[..., :, idx]
    pi1p[..., idx, idx] = -Bp[..., idx, idx]

    pi1 = grid.analyze(u0c @ pi1p @ u0, L)
    return SemiclassicalSymbol([pi0, pi1])


def _sector_diagonals(sym: SphereSymbol, irrep: SpinIrrep, what: str) -> np.ndarray:
    """quantize_diagonals(sym) on the band-L kernel for a k x k symbol that
    conserves M = J3 (x) 1 + 1 (x) S3.

    Entry (a, b) may carry only e^{i m phi} with m = a - b (a scalar symbol
    only m = 0).  Content beyond 1e-12 of the largest coefficient is more
    than the round-off of the covariant band grid: ArithmeticError.  Only
    the columns |m| < k that the sectors carry are quantized, so the
    round-off allowed at the others builds no rows of Q[|m|].
    """
    k = sym.fast_shape[0] if sym.fast_shape else 1
    c = sym.coeffs.reshape(sym.L + 1, 2 * sym.M + 1, k * k)
    a, b = np.divmod(np.arange(k * k), k)
    off = np.arange(-sym.M, sym.M + 1)[:, None] != (a - b)[None, :]
    outside = float(np.abs(c[:, off]).max(initial=0.0))
    if outside > 1e-12 * np.abs(c).max():
        raise ArithmeticError(f"{what} has content {outside:.3g} off the M-sectors; its operator is not sector-diagonal")
    w = min(k - 1, sym.M)
    return quantize_diagonals(SphereSymbol(sym.coeffs[:, sym.M - w : sym.M + w + 1]), SWKernel(irrep, sym.L))


def _spectral_norms(C: np.ndarray) -> np.ndarray:
    """Largest singular value of each 2 x 2 matrix C[i], in closed form.

    With C = z0 1 + z . sigma (Pauli matrices, complex z0 and z), C^dagger C
    = (|z0|^2 + |z|^2) 1 + v . sigma with the real vector
    v = 2 Re(conj(z0) z) + i conj(z) x z, so sigma_max^2 = |z0|^2 + |z|^2 + |v|,
    a sum of nonnegative terms with no cancellation.
    """
    z0 = (C[:, 0, 0] + C[:, 1, 1]) / 2
    z = np.stack([C[:, 0, 1] + C[:, 1, 0], 1j * (C[:, 0, 1] - C[:, 1, 0]), C[:, 0, 0] - C[:, 1, 1]], axis=-1) / 2
    v = 2 * (z0.conj()[:, None] * z).real - np.cross(z.conj(), z).imag
    s = np.abs(z0) ** 2 + np.sum(np.abs(z) ** 2, axis=-1)
    return np.sqrt(s + np.sqrt(np.sum(v**2, axis=-1)))


def sector_commutator_norm(params: ModelParams, sym: SphereSymbol) -> float:
    """||[H, quantize(sym)]||_2 for an M-conserving 2 x 2 symbol: the largest
    norm over the 2 x 2 sectors (the 1 x 1 edge sectors commute).

    Both operators' sector blocks come from model.sector_blocks.  With H's
    block [[a, c], [c, b]] and P's [[p, q], [q', r]] the commutator is
    [[c (q' - q), (a - b) q - c (p - r)], [(b - a) q' + c (p - r), c (q - q')]].
    """
    P, _ = sector_blocks(_sector_diagonals(sym, params.slow, "the projection symbol"))
    H, _ = sector_blocks(hamiltonian_diagonals(params))
    a, b, c = H[:, 0, 0], H[:, 1, 1], H[:, 0, 1]
    p, q, q1, r = P[:, 0, 0], P[:, 0, 1], P[:, 1, 0], P[:, 1, 1]
    C = np.empty((len(c), 2, 2), dtype=complex)
    C[:, 0, 0] = c * (q1 - q)
    C[:, 1, 1] = -C[:, 0, 0]
    C[:, 0, 1] = (a - b) * q - c * (p - r)
    C[:, 1, 0] = (b - a) * q1 + c * (p - r)
    return float(np.max(_spectral_norms(C)))


def almost_invariance_norms(
    lam: float,
    m: float,
    two_j_list,
    order: int = 1,
    cs: CoefficientSet = CALIBRATED,
    L: int = BAND_LIMIT,
):
    """Spectral norms of [H, quantize(projection)] across dimensions + slope; fast spin 1/2.

    The projection series is truncated at `order`.  O(d L) per dimension on
    the M-sectors (sector_commutator_norm).
    """
    proj = moyal_projection(ModelParams(two_j_list[0], 1, lam), m, cs=cs, L=L)
    norms = []
    for two_j in two_j_list:
        params = ModelParams(two_j, 1, lam)
        norms.append(sector_commutator_norm(params, proj.evaluate(params.d_j, order)))
    return {
        "norms": norms,
        "fit": loglog_slope([t + 1 for t in two_j_list], norms),
        "hermiticity": proj.hermiticity_residual(order),
    }


def exact_band_projection(params: ModelParams) -> dict[float, np.ndarray]:
    """The exact levels of H by band, {+1/2: upper, -1/2: lower}; fast spin 1/2, O(d).

    The M-sectors label every level: each 2 x 2 block of model.sector_blocks
    gives its upper eigenvalue, mean + radius in closed form, to band +1/2
    and its lower one to band -1/2.  The top edge (0, +) is an upper level;
    the bottom edge (d - 1, -), at (2 lam - 1)/2 - lam/(2d), is one for
    lam >= 1/2 (ModelParams.topological) and a lower level below, so there
    the upper band holds d + 1 levels and the lower d - 1.  Each band's
    levels come in order of decreasing M.
    """
    blocks, (top, bottom) = sector_blocks(hamiltonian_diagonals(params))
    a, b, c = blocks[:, 0, 0], blocks[:, 1, 1], blocks[:, 0, 1]
    mean, radius = (a + b) / 2, np.hypot((a - b) / 2, c)
    upper, lower = np.r_[top, mean + radius], mean - radius
    if params.topological:
        return {0.5: np.r_[upper, bottom], -0.5: lower}
    return {0.5: upper, -0.5: np.r_[lower, bottom]}


# -- effective Hamiltonian ---------------------------------------------------


def _band_energy(params: ModelParams, m: float, L: int) -> SphereSymbol:
    """h0 = m N(theta), the energy of band m (a gapped lam) and the leading term
    of its effective series: one analysis on the band-symbol grid."""
    grid, _, th2, _ = _band_grid(params, m, L)
    return grid.analyze(gap_N(th2, params.lam) * float(m), L)


def effective_hamiltonian(
    params: ModelParams,
    m: float,
    cs: CoefficientSet = CALIBRATED,
    L: int = BAND_LIMIT,
) -> SemiclassicalSymbol:
    """Scalar effective series h0 + d^-1 h1 of band m (a gapped lam).

    h0 = m N(theta) is the band energy.  h1 is entry (m, m) of
    (B(u0, H0) - B(h0, u0)) u0^dagger, with B the order-1 star bilinear of
    cs and u0 the fiber eigenbasis, all sampled on the band-symbol grid.
    """
    h0 = _band_energy(params, m, L)
    grid, idx, th2, ph2 = _band_grid(params, m, L)
    bd = principal_bands(params, th2, ph2, m)
    u0 = grid.analyze(bd.u0, L)
    H0 = hamiltonian_symbol(params)
    X = order1_samples(u0, H0, cs, grid) - order1_samples(h0, u0, cs, grid)
    h1 = (X @ bd.u0.conj().swapaxes(-1, -2))[..., idx, idx]
    return SemiclassicalSymbol([h0, grid.analyze(h1, L)])


def _farthest_from(a: np.ndarray, b: np.ndarray) -> float:
    """max over x in a of the distance from x to the nearest point of b.

    A sorted merge: the nearest point is one of the two neighbours of x in
    sorted b, and |x - y| rounds monotonically in y, so this is the same
    float as the minimum over all of b.
    """
    b = np.sort(b)
    i = np.searchsorted(b, a)
    below = b[np.maximum(i - 1, 0)]
    above = b[np.minimum(i, len(b) - 1)]
    return float(np.max(np.minimum(np.abs(a - below), np.abs(a - above))))


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance of two finite sets of reals, in O(n) memory and O(n log n) time."""
    return max(_farthest_from(a, b), _farthest_from(b, a))


def band_spectrum_compare(
    lam: float,
    m: float,
    two_j_list,
    order: int = 1,
    cs: CoefficientSet = CALIBRATED,
    L: int = BAND_LIMIT,
):
    """Hausdorff distance between the exact levels of band m and its effective spectrum; fast spin 1/2.

    The exact levels are those the M-sectors label as band m
    (exact_band_projection).  The effective series is truncated at
    `order`; its symbol is axisymmetric, so its operator is diagonal in the
    J3 basis and its spectrum is that diagonal.  O(d L) per dimension.
    """
    dists = []
    h = effective_hamiltonian(ModelParams(two_j_list[0], 1, lam), m, cs=cs, L=L)
    for two_j in two_j_list:
        params = ModelParams(two_j, 1, lam)
        eff = _sector_diagonals(h.evaluate(params.d_j, order), params.slow, "the effective symbol")[0].real
        dists.append(_hausdorff(exact_band_projection(params)[m], eff))
    return {
        "hausdorff": dists,
        "fit": loglog_slope([t + 1 for t in two_j_list], dists),
        "hermiticity": h.hermiticity_residual(order),
    }


# -- semiclassical propagation ----------------------------------------------


def classical_flow(lam: float, m: float, n0: np.ndarray, T: float) -> np.ndarray:
    """Points n0 moved for time T by the precession flow n' = n x grad E.

    E = m N(theta) depends on n3 alone, so n3 is conserved and the flow is
    the exact rotation about e3 by the angle -m lam(1-lam) T / N(n3).
    """
    n = np.asarray(n0, dtype=float)
    a = -float(m) * lam * (1 - lam) * T / gap_N(np.arccos(np.clip(n[..., 2], -1.0, 1.0)), lam)
    c, s = np.cos(a), np.sin(a)
    return np.stack([c * n[..., 0] - s * n[..., 1], s * n[..., 0] + c * n[..., 1], n[..., 2]], axis=-1)


def heisenberg_symbol(h0: SphereSymbol, o0: SphereSymbol, irrep: SpinIrrep, s: float) -> SphereSymbol:
    """Symbol (full kernel) of exp(i s h) quantize(o0) exp(-i s h), h = quantize(h0).

    h0 conserves M, so h is diagonal in the J3 basis with diagonal w, and the
    evolution multiplies entry (r, r + m) of quantize(o0) by the phase
    exp(i s (w_r - w_{r+m})), row r of its diagonal m.  Only the offsets m
    that o0 carries are built, each from its own block Q[|m|] (O(d^2)
    memory, O(d^3) work, for any o0 of band limit 1), never the full
    tensor basis.
    """
    w = _sector_diagonals(h0, irrep, "h0")[0].real
    ker = SWKernel(irrep)
    D = quantize_diagonals(o0, ker)
    K = len(D) // 2
    # column r + m of each entry, clipped where it leaves the matrix and D is 0
    c = np.clip(np.arange(irrep.d) + np.arange(-K, K + 1)[:, None], 0, irrep.d - 1)
    return dequantize_diagonals(D * np.exp(1j * s * (w - w[c])), ker)


def egorov_error(
    lam: float,
    m: float,
    o0: SphereSymbol,
    T: float,
    two_j_list,
):
    """Sup-norm gap between Heisenberg-evolved and classically flowed symbols.

    Quantum side: heisenberg_symbol with s = (d_j/2) T and h0 = m N(theta),
    which is axisymmetric (ArithmeticError if it is not, as the propagator
    is then no diagonal phase).  Classical side: o0 composed with the
    precession flow, which turns each theta ring by its own angle alpha:
    the grid synthesizes o0 with the theta-profile of each phi harmonic k
    times e^{i k alpha}.
    """
    h0 = _band_energy(ModelParams(two_j_list[0], 1, lam), m, BAND_LIMIT)
    grid = make_grid(max(48, 2 * o0.L))
    ring = np.stack([np.sin(grid.theta), 0 * grid.theta, np.cos(grid.theta)], axis=-1)  # phi = 0
    flowed = classical_flow(lam, m, ring, T)
    alpha = np.arctan2(flowed[:, 1], flowed[:, 0])
    o_cl = grid.synthesize(o0, turn=alpha)

    errs = []
    for two_j in two_j_list:
        params = ModelParams(two_j, 1, lam)
        s = EGOROV_TIME_SIGN * (params.d_j / 2) * T
        o_qu = grid.synthesize(heisenberg_symbol(h0, o0, params.slow, s))
        errs.append(float(np.max(np.abs(o_qu - o_cl))))
    fit = loglog_slope([t + 1 for t in two_j_list], errs) if len(errs) > 1 else None
    return {"errors": errs, "fit": fit}
