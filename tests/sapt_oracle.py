"""Oracles for the tests: the Hausdorff distance from the full distance
matrix (the package finds each nearest point by a sorted merge), the band
clusters of a spectrum split at its largest gaps (the package labels each
exact level by its M-sector), the Heisenberg conjugation through eigh (the
package uses that quantize(h0) is diagonal), the spectrum and the
invariance norm from the dense 2d x 2d Hamiltonian (the package reads them
off the M-sectors), the order-1 effective Hamiltonian of a spin-1/2 fast
sector from analytic theta-derivatives of u0, H0 and the band energy (the
package forms the same block from synthesized symbols and their
gradients), and the Egorov errors with every grid node flowed as a point
(the package turns each theta ring as a phase on its phi harmonics), and
for a spin-1/2 fast sector the exact band levels and the order-1 band
symbol in closed form (the package solves 2 x 2 sector blocks and forms h1
from the star calculus)."""

from __future__ import annotations

import numpy as np
from model_oracle import dense_hamiltonian, tilt_derivative
from sphere_oracle import synthesize_at

from sphere_sapt import sapt
from sphere_sapt.model import ModelParams, band_index, gap_N, tilt_angles
from sphere_sapt.sapt import classical_flow
from sphere_sapt.sphere import SphereSymbol, make_grid
from sphere_sapt.spin import make_irrep
from sphere_sapt.star import CALIBRATED, SemiclassicalSymbol
from sphere_sapt.swq import SWKernel, quantize


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def dense_spectrum(params: ModelParams) -> np.ndarray:
    """Sorted eigenvalues of the dense Hamiltonian, any fast spin."""
    return np.linalg.eigvalsh(dense_hamiltonian(params))


def band_clusters(spectrum: np.ndarray, d_s: int) -> dict[float, np.ndarray]:
    """{m: sorted levels}, highest band first: the spectrum of H split at its
    d_s - 1 largest gaps, any fast spin (the package labels each level by
    its M-sector instead).

    ValueError unless each gap exceeds 3 times the largest spacing inside a
    cluster: near the gap closing the clusters do not separate.
    """
    w = np.sort(spectrum)
    gaps = np.diff(w)
    cuts = np.sort(np.argsort(gaps)[len(gaps) - d_s + 1 :])
    intra = np.delete(gaps, cuts)
    if len(intra) and len(cuts) and gaps[cuts].min() < 3.0 * intra.max():
        raise ValueError("spectral clusters not separated; no clean band split")
    clusters = np.split(w, cuts + 1)[::-1]  # highest energy first <-> m = s, s - 1, ...
    return {(d_s - 1) / 2 - k: c for k, c in enumerate(clusters)}


def dense_invariance_norm(params: ModelParams, sym: SphereSymbol) -> float:
    """||[H, P]||_2 from the dense H and P = quantize(sym) (an SVD of size 2d)."""
    P = quantize(sym, SWKernel(params.slow, sym.L))
    H = dense_hamiltonian(params)
    return float(np.linalg.norm(H @ P - P @ H, 2))


def heisenberg(hq: np.ndarray, oq: np.ndarray, s: float) -> np.ndarray:
    """U oq U^dagger with U = exp(i s hq), from the eigendecomposition of hq."""
    w, V = np.linalg.eigh(hq)
    U = (V * np.exp(1j * w * s)) @ V.conj().T
    return U @ oq @ U.conj().T


def _N(x, lam):
    """The band gap N at cos(theta) = x."""
    return np.sqrt(lam**2 + (1 - lam) ** 2 + 2 * lam * (1 - lam) * x)


def exact_band_levels(params: ModelParams, m: float):
    """(M, E): the sector labels M = J3 + S3 and exact levels of band m, two_s = 1.

    With x = 2M/d, every full sector M (|M| <= j - 1/2) holds E = +-N(x)/2 -
    lam/(2d): its 2 x 2 block has mean -lam/(2d), half-difference ((1 - lam)
    + lam x)/2 and coupling (lam/2) sqrt(1 - x^2), since the ladder factor
    (i + 1)(2j - i) is d^2/4 - M^2.  The edge M = j + 1/2 sits at +N(1)/2 -
    lam/(2d), an upper level; the edge M = -(j + 1/2) at (2 lam - 1)/2 -
    lam/(2d), which is -N(-1)/2 - lam/(2d) for lam < 1/2 (a lower level) and
    +N(-1)/2 - lam/(2d) for lam >= 1/2 (an upper level, so the upper band then
    holds d + 1 levels and the lower d - 1).
    """
    if params.two_s != 1:
        raise ValueError("closed-form levels implemented for two_s = 1")
    d, lam = params.d_j, params.lam
    upper = band_index(1, m) == 0
    # twice M: the full sectors -d + 2 .. d - 2, the top edge d (upper) and the
    # bottom edge -d (upper for lam >= 1/2, else lower)
    two_M = np.arange(-d if upper == (lam >= 0.5) else -d + 2, (d if upper else d - 2) + 1, 2)
    return two_M / 2, (1 if upper else -1) * _N(two_M / d, lam) / 2 - lam / (2 * d)


def h1_spectral(params: ModelParams):
    """The order-1 band symbol read off the exact levels, lam < 1/2, two_s = 1:
    h1(theta) = (N'(cos theta) - lam) / 2 for both bands, N' = dN/dx =
    lam (1 - lam) / N.  Band +-1/2 holds E(M = mu +- 1/2) for mu = -j..j, and
    expanding +-N((2 mu +- 1)/d)/2 - lam/(2d) to order 1/d at x = 2 mu/d gives
    m N(x) + (N'(x) - lam) / (2d)."""
    lam = params.lam

    def h1(theta):
        N = gap_N(theta, lam)
        return (lam * (1 - lam) / N - lam) / 2

    return h1


def h1_closed_form(params, m, cs, L) -> SphereSymbol:
    """Analytic-derivative evaluation of the block sapt.effective_hamiltonian forms (s=1/2)."""
    if params.two_s != 1:
        raise ValueError("closed-form path implemented for two_s = 1")
    idx = band_index(1, m)
    sgn = 1.0 if idx == 0 else -1.0  # band +/-
    lam = params.lam
    grid = sapt._symbol_grid(4 * L, params.two_s)  # looked up per call: tests patch it
    th2, ph2 = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    st_, ct_ = np.sin(th2), np.cos(th2)
    N = gap_N(th2, lam)
    ctp, stp = tilt_angles(th2, lam)
    dtp = tilt_derivative(th2, lam)
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


def closed_form_hamiltonian(params, m, cs=CALIBRATED, L=24) -> SemiclassicalSymbol:
    """h0 + d^-1 h1 with h0 from the package and h1 from the closed form."""
    h0 = sapt.effective_hamiltonian(params, m, L=L).terms[0]
    return SemiclassicalSymbol([h0, h1_closed_form(params, m, cs, L)])


def egorov_errors(lam, m, o0, T, two_j_list) -> list[float]:
    """The errors of sapt.egorov_error with the classical side flowed point by
    point: each node of its grid moved as a 3-vector by classical_flow (bound
    here at import, so a patch of sapt.classical_flow leaves it alone) and o0
    evaluated at the image by the point oracle."""
    grid = make_grid(max(48, 2 * o0.L))
    th2, ph2 = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    nodes = np.stack([np.sin(th2) * np.cos(ph2), np.sin(th2) * np.sin(ph2), np.cos(th2)], axis=-1)
    flowed = classical_flow(lam, m, nodes.reshape(-1, 3), T)
    theta, phi = np.arccos(np.clip(flowed[:, 2], -1, 1)), np.arctan2(flowed[:, 1], flowed[:, 0])
    o_cl = synthesize_at(o0, theta, phi).reshape(th2.shape)
    h0 = sapt._band_energy(ModelParams(two_j_list[0], 1, lam), m, sapt.BAND_LIMIT)
    errs = []
    for two_j in two_j_list:
        s = sapt.EGOROV_TIME_SIGN * (two_j + 1) / 2 * T
        o_qu = grid.synthesize(sapt.heisenberg_symbol(h0, o0, make_irrep(two_j), s))
        errs.append(float(np.max(np.abs(o_qu - o_cl))))
    return errs
