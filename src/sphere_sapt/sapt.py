"""Adiabatic perturbation theory for the two-spin model.

Order-1 pipeline: the band projector symbol pi0 and its first correction
pi1 (solved node-wise in the fiber eigenbasis from the projection and
commutation conditions of the star calculus), the effective band
Hamiltonian h0 + d^-1 h1 through two independent evaluation paths, and the
semiclassical (Egorov) propagation check against the classical precession
flow.  All star-dependent pieces take a CoefficientSet so the printed and
calibrated expansions can be compared downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fits import loglog_slope
from .model import (
    ModelParams,
    band_index,
    build_hamiltonian,
    gap_N,
    hamiltonian_symbol,
    principal_bands,
    tilt_angles,
)
from .sphere import Grid, SphereSymbol, make_grid, synthesize_at
from .star import CALIBRATED, CoefficientSet, SemiclassicalSymbol, order1_samples
from .swq import SWKernel, dequantize, quantize

__all__ = [
    "BandCluster",
    "BandSplitError",
    "moyal_projection",
    "almost_invariance_norms",
    "exact_band_projection",
    "effective_hamiltonian",
    "band_spectrum_compare",
    "classical_flow",
    "egorov_error",
    "EGOROV_TIME_SIGN",
]

# sign in s = EGOROV_TIME_SIGN * (d_j / 2) * t relating operator time s to
# classical time t; fixed once by the precession direction test in the suite
EGOROV_TIME_SIGN = -1.0


def _mesh(grid: Grid):
    return np.meshgrid(grid.theta, grid.phi, indexing="ij")


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


def moyal_projection(
    params: ModelParams,
    m: float,
    order: int = 1,
    cs: CoefficientSet = CALIBRATED,
    L: int = 24,
) -> SemiclassicalSymbol:
    """Projection symbol pi0 + d^-1 pi1 of band m.

    pi1 is determined uniquely by the order-1 parts of p * p = p and
    [H, p] = 0: in the fiber eigenbasis its band-diagonal blocks come from
    the projection condition and the off-diagonal entries from the
    commutation condition divided by the band gaps.
    """
    if abs(params.lam - 0.5) < 1e-12:
        raise ValueError("no spectral gap at lam = 1/2")
    idx = band_index(params.two_s, m)
    grid = _symbol_grid(4 * L, params.two_s)
    th2, ph2 = _mesh(grid)
    bd = principal_bands(params, th2, ph2, m)
    pi0 = grid.analyze(bd.projector, L)
    if order == 0:
        return SemiclassicalSymbol([pi0])
    if order != 1:
        raise ValueError("projection implemented through order 1")

    H0 = hamiltonian_symbol(params, order=0)[0]
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
    pi1p[..., idx, idx] = -Bp[..., idx, idx]
    off = Gp / denom
    pi1p[..., idx, :] = off[..., idx, :]
    pi1p[..., :, idx] = off[..., :, idx]
    pi1p[..., idx, idx] = -Bp[..., idx, idx]

    pi1 = grid.analyze(u0c @ pi1p @ u0, L)
    return SemiclassicalSymbol([pi0, pi1])


def almost_invariance_norms(
    lam: float,
    m: float,
    two_j_list,
    order: int = 1,
    cs: CoefficientSet = CALIBRATED,
    two_s: int = 1,
    L: int = 24,
):
    """Spectral norms of [H, quantize(projection)] across dimensions + slope."""
    norms = []
    proj = moyal_projection(ModelParams(two_j_list[0], two_s, lam), m, order=order, cs=cs, L=L)
    for two_j in two_j_list:
        params = ModelParams(two_j, two_s, lam)
        d = params.d_j
        sym = proj.evaluate(d, order)
        P = quantize(sym, SWKernel(params.slow))
        H = build_hamiltonian(params)
        norms.append(float(np.linalg.norm(H @ P - P @ H, 2)))
    return {"two_j": list(two_j_list), "norms": norms, "fit": loglog_slope([t + 1 for t in two_j_list], norms)}


class BandSplitError(ArithmeticError, ValueError):
    """The exact spectrum does not split into separated band clusters.

    A failed computation, hence an ArithmeticError; also a ValueError, so
    callers that treat the spectrum as unusable input still catch it (the
    pattern of numpy's AxisError, both a ValueError and an IndexError).
    """


@dataclass
class BandCluster:
    m: float
    eigenvalues: np.ndarray
    projector: np.ndarray
    rank: int


def exact_band_projection(H: np.ndarray, d_s: int):
    """Cluster the exact spectrum into d_s bands (highest band first).

    Splits the sorted spectrum at the d_s - 1 largest gaps; demands they
    exceed 3 times the largest intra-cluster gap.
    """
    w, V = np.linalg.eigh(H)
    if d_s == 1:
        return [BandCluster(0.0, w, np.eye(len(w)), len(w))]
    gaps = np.diff(w)
    cut_pos = np.sort(np.argsort(gaps)[-(d_s - 1):])
    intra = np.delete(gaps, cut_pos)
    if len(intra) and np.min(gaps[cut_pos]) < 3.0 * np.max(intra):
        raise BandSplitError("spectral clusters not separated; no clean band split")
    bounds = [0] + list(cut_pos + 1) + [len(w)]
    s = (d_s - 1) / 2
    out = []
    for b in range(d_s):  # highest energy first <-> m = s, s-1, ...
        lo, hi = bounds[d_s - 1 - b], bounds[d_s - b]
        vecs = V[:, lo:hi]
        out.append(BandCluster(s - b, w[lo:hi], vecs @ vecs.conj().T, int(hi - lo)))
    return out


# -- effective Hamiltonian ---------------------------------------------------


def _energy_symbol(params: ModelParams, m: float, grid: Grid, L: int) -> SphereSymbol:
    th2, _ = _mesh(grid)
    return grid.analyze(gap_N(th2, params.lam) * float(m), L)


def _h1_star_machinery(params, m, cs, L) -> SphereSymbol:
    idx = band_index(params.two_s, m)
    grid = _symbol_grid(4 * L, params.two_s)
    th2, ph2 = _mesh(grid)
    bd = principal_bands(params, th2, ph2, m)
    u0sym = grid.analyze(bd.u0, L)
    H0 = hamiltonian_symbol(params, order=0)[0]
    Esym = _energy_symbol(params, m, grid, L)
    Xf = order1_samples(u0sym, H0, cs, grid) - order1_samples(Esym, u0sym, cs, grid)
    h1f = (Xf @ bd.u0.conj().swapaxes(-1, -2))[..., idx, idx]
    return grid.analyze(h1f, L)


def _h1_closed_form(params, m, cs, L) -> SphereSymbol:
    """Analytic-derivative evaluation of the same first-order block (s=1/2)."""
    if params.two_s != 1:
        raise ValueError("closed-form path implemented for two_s = 1")
    idx = band_index(1, m)
    sgn = 1.0 if idx == 0 else -1.0  # band +/-
    lam = params.lam
    grid = _symbol_grid(4 * L, params.two_s)
    th2, ph2 = _mesh(grid)
    st_, ct_ = np.sin(th2), np.cos(th2)
    N = gap_N(th2, lam)
    ctp, stp, dtp = tilt_angles(th2, lam)
    # theta-derivatives of N and of the tilt angle
    dN = -lam * (1 - lam) * st_ / N
    d2N = -lam * (1 - lam) * (ct_ - st_ * dN / N) / N
    d2tp = lam * (1 - lam) * (2 * lam - 1) * st_ / N**4

    ch, sh = np.sqrt((1 + ctp) / 2), np.sqrt((1 - ctp) / 2)  # cos, sin of theta'/2
    e_m = np.exp(-1j * ph2)
    e_p = np.exp(1j * ph2)
    z = np.zeros_like(th2)

    def mat(a, b, c, d):
        return np.stack(
            [np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2
        )

    u0 = mat(ch + 0j, e_m * sh, -e_p * sh, ch + 0j)
    du0 = 0.5 * dtp[..., None, None] * mat(-sh + 0j, e_m * ch, -e_p * ch, -sh + 0j)
    pu0 = mat(z + 0j, -1j * e_m * sh, -1j * e_p * sh, z + 0j) / st_[..., None, None]
    # Laplacian of entries f(theta) e^{i q phi}: f'' + cot f' - q^2 f / sin^2
    d2ch = -0.5 * (0.5 * ch * dtp**2 + sh * d2tp)
    d2sh = 0.5 * (-0.5 * sh * dtp**2 + ch * d2tp)
    dch, dsh = -0.5 * sh * dtp, 0.5 * ch * dtp
    cot = ct_ / st_
    lap_ch = d2ch + cot * dch
    lap_sh_q = d2sh + cot * dsh - sh / st_**2  # for q = +/- 1 entries
    lu0 = mat(lap_ch + 0j, e_m * lap_sh_q, -e_p * lap_sh_q, lap_ch + 0j)

    sig = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    that = np.stack([ct_ * np.cos(ph2), ct_ * np.sin(ph2), -st_])
    phat = np.stack([-np.sin(ph2), np.cos(ph2), z])
    nvec = np.stack([st_ * np.cos(ph2), st_ * np.sin(ph2), ct_])
    H0 = 0.5 * ((1 - lam) * sig[2][None, None] + lam * np.einsum("atp,aij->tpij", nvec, sig))
    dH0 = 0.5 * lam * np.einsum("atp,aij->tpij", that, sig)
    pH0 = 0.5 * lam * np.einsum("atp,aij->tpij", phat, sig)
    lH0 = -lam * np.einsum("atp,aij->tpij", nvec, sig)  # Laplacian eigenvalue -2 on l=1

    mm = float(m)
    E = mm * N
    dE = mm * dN
    lE = mm * (d2N + cot * dN)

    def B(f, g, df, dg, pf, pg, lf, lg):
        out = cs.c_const * (f @ g) if cs.c_const else 0
        if cs.c_lap:
            out = out + cs.c_lap * (lf @ g + f @ lg)
        if cs.c_dot:
            out = out + cs.c_dot * (df @ dg + pf @ pg)
        out = out + 1j * cs.c_cross * (df @ pg - pf @ dg)
        return out

    eye = np.eye(2)
    Ef, dEf, pEf, lEf = (x[..., None, None] * eye for x in (E, dE, z, lE))
    X = B(u0, H0, du0, dH0, pu0, pH0, lu0, lH0) - B(Ef, u0, dEf, du0, pEf, pu0, lEf, lu0)
    h1f = (X @ u0.conj().swapaxes(-1, -2))[..., idx, idx]
    return grid.analyze(h1f, L)


def effective_hamiltonian(
    params: ModelParams,
    m: float,
    order: int = 1,
    path: str = "star_machinery",
    cs: CoefficientSet = CALIBRATED,
    L: int = 24,
) -> SemiclassicalSymbol:
    """Scalar effective symbol h0 + d^-1 h1 of band m (lam != 1/2)."""
    if abs(params.lam - 0.5) < 1e-12:
        raise ValueError("no spectral gap at lam = 1/2")
    band_index(params.two_s, m)
    grid = _symbol_grid(4 * L, params.two_s)
    h0 = _energy_symbol(params, m, grid, L)
    if order == 0:
        return SemiclassicalSymbol([h0])
    if order != 1:
        raise ValueError("effective Hamiltonian implemented through order 1")
    if path == "star_machinery":
        h1 = _h1_star_machinery(params, m, cs, L)
    elif path == "closed_form":
        h1 = _h1_closed_form(params, m, cs, L)
    else:
        raise ValueError(f"unknown path '{path}'")
    return SemiclassicalSymbol([h0, h1])


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
    two_s: int = 1,
    L: int = 24,
):
    """Hausdorff distance between exact band clusters and effective spectra."""
    dists = []
    h = effective_hamiltonian(ModelParams(two_j_list[0], two_s, lam), m, order=order, cs=cs, L=L)
    for two_j in two_j_list:
        params = ModelParams(two_j, two_s, lam)
        d = params.d_j
        ker = SWKernel(params.slow)
        hq = quantize(h.evaluate(d, order), ker)
        eff = np.linalg.eigvalsh(hq)
        cluster = exact_band_projection(build_hamiltonian(params), params.d_s)
        exact = cluster[band_index(two_s, m)].eigenvalues
        dists.append(_hausdorff(exact, eff))
    return {
        "two_j": list(two_j_list),
        "hausdorff": dists,
        "fit": loglog_slope([t + 1 for t in two_j_list], dists),
    }


# -- semiclassical propagation ----------------------------------------------


def classical_flow(lam: float, m: float, n0: np.ndarray, T: float) -> np.ndarray:
    """Points n0 moved for time T by the precession flow n' = n x grad E.

    E = m N(theta) depends on n3 alone, so n3 is conserved and the flow is
    the exact rotation about e3 by the angle -m lam(1-lam) T / N(n3).
    """
    n = np.asarray(n0, dtype=float)
    ct = np.clip(n[..., 2], -1.0, 1.0)
    N = np.sqrt(lam**2 + (1 - lam) ** 2 + 2 * lam * (1 - lam) * ct)
    a = -float(m) * lam * (1 - lam) * T / N
    c, s = np.cos(a), np.sin(a)
    return np.stack([c * n[..., 0] - s * n[..., 1], s * n[..., 0] + c * n[..., 1], n[..., 2]], axis=-1)


def egorov_error(
    lam: float,
    m: float,
    o0: SphereSymbol,
    T: float,
    two_j_list,
    L: int = 24,
):
    """Sup-norm gap between Heisenberg-evolved and classically flowed symbols.

    Quantum side: conjugation by exp(-i h s) with s = (d_j/2) T and
    h = quantize(h0).  Classical side: o0 composed with the precession flow.
    """
    grid = make_grid(48)
    th2, ph2 = _mesh(grid)
    nodes = np.stack(
        [np.sin(th2) * np.cos(ph2), np.sin(th2) * np.sin(ph2), np.cos(th2)], axis=-1
    )
    flowed = classical_flow(lam, m, nodes.reshape(-1, 3), T)
    thf = np.arccos(np.clip(flowed[:, 2], -1, 1))
    phf = np.arctan2(flowed[:, 1], flowed[:, 0])
    o_cl = synthesize_at(o0, thf, phf).reshape(th2.shape)

    errs = []
    h0 = effective_hamiltonian(ModelParams(two_j_list[0], 1, lam), m, order=0, L=L).term(0)
    for two_j in two_j_list:
        params = ModelParams(two_j, 1, lam)
        d = params.d_j
        ker = SWKernel(params.slow)
        hq = quantize(h0, ker)
        oq = quantize(o0, ker)
        w, V = np.linalg.eigh(hq)
        s = EGOROV_TIME_SIGN * (d / 2) * T
        U = (V * np.exp(1j * w * s)) @ V.conj().T
        ot = dequantize(U @ oq @ U.conj().T, ker)
        o_qu = grid.synthesize(ot)
        errs.append(float(np.max(np.abs(o_qu - o_cl))))
    fit = loglog_slope([t + 1 for t in two_j_list], errs) if len(errs) > 1 else None
    return {"two_j": list(two_j_list), "errors": errs, "fit": fit}
