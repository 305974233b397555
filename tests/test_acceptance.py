"""Acceptance gate: the twelve headline checks, one pass/fail line each.

Where a measured convergence rate is strictly better than the advertised
bound (the commutator residual, the order-0 invariance norm, and the Egorov
error all gain roughly one extra power of 1/d on this model), the assert is
one sided: at least the advertised decay.  The mechanism is documented at
the individual check.
"""

import numpy as np
from model_oracle import dense_hamiltonian, exact_symbol_field, gap_profile, lower_hamiltonian_symbol_field
from sapt_oracle import band_clusters, closed_form_hamiltonian
from star_oracle import CALIBRATED_BEREZIN
from swq_oracle import lower_symbol, partial_dequantize

from sphere_sapt.berry import chern_analytic, chern_plaquette
from sphere_sapt.fits import loglog_slope
from sphere_sapt.model import (
    ModelParams,
    gap_N,
)
from sphere_sapt.sapt import (
    almost_invariance_norms,
    band_spectrum_compare,
    classical_flow,
    effective_hamiltonian,
    egorov_error,
    exact_band_projection,
)
from sphere_sapt.sphere import SphereSymbol, make_grid, vector_symbol_coeffs
from sphere_sapt.spin import make_irrep
from sphere_sapt.star import (
    CALIBRATED,
    PRINTED_MOYAL,
    _combine,
    berezin_exact,
    calibration_corpus,
    order1_bilinear,
    poisson_bracket,
    star_exact,
    star_truncation,
)
from sphere_sapt.swq import SWKernel, dequantize, kernel_property_residuals, quantize


def _report(num: int, desc: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _random_symbol(L, rng):
    c = rng.normal(size=(L + 1, 2 * L + 1)) + 1j * rng.normal(size=(L + 1, 2 * L + 1))
    for l in range(L + 1):
        c[l, : L - l] = 0
        c[l, L + l + 1 :] = 0
    sym = SphereSymbol(c)
    # hermitian symmetrization: real-valued on the sphere
    herm = np.zeros_like(c)
    for m in range(-L, L + 1):
        herm[:, L + m] = (c[:, L + m] + (-1) ** m * np.conj(c[:, L - m])) / 2
    return SphereSymbol(herm)


def test_acceptance_01_kernel_axioms():
    worst = 0.0
    for two_j in (1, 2, 3, 5, 10, 20):
        ker = SWKernel(make_irrep(two_j))
        res = kernel_property_residuals(ker, make_grid(max(12, 2 * two_j)))
        worst = max(worst, max(res.values()))
    _report(1, f"kernel axioms, max residual {worst:.2e} < 1e-10", worst < 1e-10)


def test_acceptance_02_roundtrips():
    rng = np.random.default_rng(23)
    worst = 0.0
    for two_j in (2, 5, 9):
        d = two_j + 1
        ker = SWKernel(make_irrep(two_j))
        sym = _random_symbol(two_j, rng)
        back = dequantize(quantize(sym, ker), ker)
        worst = max(worst, float(np.max(np.abs(back.truncated(two_j).coeffs - sym.coeffs))))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        worst = max(worst, float(np.max(np.abs(quantize(dequantize(A, ker), ker) - A))))
        # harmonics beyond the operator band are projected out
        L = two_j + 1
        c = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        c[L, L] = 1.0
        worst = max(worst, float(np.max(np.abs(quantize(SphereSymbol(c), ker)))))
    _report(2, f"round trips and band projection, residual {worst:.2e} < 1e-10", worst < 1e-10)


def test_acceptance_03_exact_symbol_identity():
    worst = 0.0
    for lam in (0.0, 0.2, 0.8, 1.0):
        for two_j in range(3, 12):
            p = ModelParams(two_j, 1, lam)
            grid = make_grid(2 * two_j)
            H = dense_hamiltonian(p)
            sym = partial_dequantize(H, SWKernel(p.slow), fast_dim=2)
            got = grid.synthesize(sym.truncated(1))
            worst = max(worst, float(np.max(np.abs(got - exact_symbol_field(p, grid)))))
            low = lower_symbol(H, SWKernel(p.slow), fast_dim=2)
            gl = grid.synthesize(low.truncated(1))
            worst = max(
                worst, float(np.max(np.abs(gl - lower_hamiltonian_symbol_field(p, grid))))
            )
    _report(3, f"exact and coherent-state symbol identities, {worst:.2e} < 1e-10", worst < 1e-10)


def test_acceptance_04_star_spot_value():
    n3 = vector_symbol_coeffs()[2]
    prod = star_exact(n3, n3, make_irrep(1))
    grid = make_grid(4)
    dev = float(np.max(np.abs(grid.synthesize(prod.truncated(2)) - 1 / 3)))
    _report(4, f"n3 * n3 = 1/3 at two_j = 1, deviation {dev:.2e} < 1e-12", dev < 1e-12)


def test_acceptance_05_star_asymptotics():
    two_j_list = [10, 20, 40, 80]
    d_list = [t + 1 for t in two_j_list]
    corpus = calibration_corpus(10, 4, seed=17)
    L_out = 8
    grid = make_grid(2 * L_out)

    def sup(sym):
        return float(np.max(np.abs(grid.synthesize(sym.truncated(L_out)))))

    sups = {0: [], 1: [], "comm": []}
    for two_j, d in zip(two_j_list, d_list):
        ir = make_irrep(two_j)
        w0 = w1 = wc = 0.0
        for f, g in corpus:
            ex = star_exact(f, g, ir)
            tr = star_truncation(f, g, CALIBRATED)
            w0 = max(w0, sup(_combine([(1.0, ex), (-1.0, tr.evaluate(d, 0))])))
            w1 = max(w1, sup(_combine([(1.0, ex), (-1.0, tr.evaluate(d, 1))])))
            comm = _combine(
                [(1.0, ex), (-1.0, star_exact(g, f, ir)), (-2j / d, poisson_bracket(f, g))]
            )
            wc = max(wc, sup(comm))
        sups[0].append(w0)
        sups[1].append(w1)
        sups["comm"].append(wc)
    s0 = loglog_slope(d_list, sups[0]).slope
    s1 = loglog_slope(d_list, sups[1]).slope
    sc = loglog_slope(d_list, sups["comm"]).slope
    # the commutator residual is asserted one sided: the exact d^-2
    # antisymmetric term vanishes on scalar symbols, so the measured slope
    # is near -3, beating the advertised -2
    ok = abs(s0 + 1) < 0.3 and abs(s1 + 2) < 0.3 and sc < -1.7
    # anomaly report for the printed table: 1 * 1 picks up -1/2 d^-1
    one = SphereSymbol.constant(1.0)
    anom = float(make_grid(2).synthesize(order1_bilinear(one, one, PRINTED_MOYAL).truncated(0))[0, 0].real)
    ok = ok and abs(anom + 0.5) < 1e-12
    _report(
        5,
        f"star slopes k0 {s0:.2f}, k1 {s1:.2f}, commutator {sc:.2f} (<= -1.7), printed unit anomaly {anom:.3f}",
        ok,
    )


def test_acceptance_06_berezin():
    ir = make_irrep(8)
    corpus = calibration_corpus(3, 2, seed=3)
    (f, g), (h, _) = corpus[0], corpus[1]
    lhs = berezin_exact(berezin_exact(f, g, ir), h, ir)
    rhs = berezin_exact(f, berezin_exact(g, h, ir), ir)
    grid = make_grid(24)
    assoc = float(np.max(np.abs(grid.synthesize(_combine([(1.0, lhs), (-1.0, rhs)]).truncated(12)))))
    two_j_list = [10, 20, 40]
    corpus = calibration_corpus(3, 3, seed=7)
    L_out = 6
    g2 = make_grid(2 * L_out)
    sups = []
    for two_j in two_j_list:
        d = two_j + 1
        worst = 0.0
        for f, g in corpus:
            ex = berezin_exact(f, g, make_irrep(two_j))
            tr = star_truncation(f, g, CALIBRATED_BEREZIN).evaluate(d, 1)
            diff = _combine([(1.0, ex), (-1.0, tr)])
            worst = max(worst, float(np.max(np.abs(g2.synthesize(diff.truncated(L_out))))))
        sups.append(worst)
    slope = loglog_slope([t + 1 for t in two_j_list], sups).slope
    ok = assoc < 1e-9 and abs(slope + 2) < 0.3
    _report(6, f"coherent-state product: associativity {assoc:.2e}, order-1 slope {slope:.2f}", ok)


def test_acceptance_07_gap_figure():
    worst = 0.0
    for eps in (1.0, 0.1, 0.01, 0.0):
        for lam in (0.5 * (1 - eps), 0.5 * (1 + eps)):
            worst = max(worst, abs(float(gap_N(np.pi, lam)) - abs(1 - 2 * lam)))
    _, _, mn = gap_profile(0.5)
    ok = worst < 1e-12 and mn < 1e-12
    _report(7, f"gap endpoints {worst:.2e} < 1e-12, closing minimum {mn:.2e}", ok)


def test_acceptance_08_chern_integers():
    ok = True
    for lam, want in [(0.2, {0.5: 0, -0.5: 0}), (0.8, {0.5: -1, -0.5: 1})]:
        p = ModelParams(6, 1, lam)
        for m, c in want.items():
            ok = ok and chern_analytic(p, m) == c
            ok = ok and chern_plaquette(p, m, 24) == c
            ok = ok and chern_plaquette(p, m, 40) == c
    for two_s in (2, 3):
        p = ModelParams(8, two_s, 0.8)
        s = two_s / 2
        for k in range(two_s + 1):
            m = s - k
            c = int(round(-2 * m))
            ok = ok and chern_analytic(p, m) == c
            ok = ok and chern_plaquette(p, m, 30) == c
    _report(8, "Chern integers (trivial, topological, higher spin, refined grids)", ok)


def test_acceptance_09_topological_obstruction():
    # exact band ranks d_j + 2m in the topological phase versus reference
    # rank d_j, from the M-sector labels and confirmed by the gap clusters of
    # the spectrum; note the ordering: the upper band (m = +1/2) is the larger one
    ok = True
    p = ModelParams(8, 1, 0.8)
    bands = exact_band_projection(p)
    ranks = {m: len(levels) for m, levels in bands.items()}
    ok = ok and ranks == {0.5: p.d_j + 1, -0.5: p.d_j - 1}
    clusters = band_clusters(np.concatenate(list(bands.values())), 2)
    ok = ok and all(np.array_equal(clusters[m], np.sort(levels)) for m, levels in bands.items())
    p2 = ModelParams(2, 1, 1.0)
    r2 = tuple(map(len, exact_band_projection(p2).values()))
    ok = ok and r2 == (4, 2)
    _report(9, f"band ranks {ranks} vs reference {p.d_j}; mismatch exact", ok)


def test_acceptance_10_almost_invariance():
    two_j_list = [10, 20, 40, 80]
    r0 = almost_invariance_norms(0.2, 0.5, two_j_list, order=0)
    r1 = almost_invariance_norms(0.2, 0.5, two_j_list, order=1, cs=CALIBRATED)
    s0, s1 = r0["fit"].slope, r1["fit"].slope
    # one sided at order 0: with s = 1/2 the fiber Hamiltonian is affine in
    # the projection, the order-1 star commutator vanishes identically, and
    # the measured slope is near -2 instead of the generic -1
    ok = s0 < -0.7 and abs(s1 + 2) < 0.3
    _report(10, f"invariance slopes order0 {s0:.2f} (<= -0.7), order1 {s1:.2f}", ok)


def test_acceptance_11_effective_spectra():
    two_j_list = [10, 20, 40]
    r0 = band_spectrum_compare(0.2, 0.5, two_j_list, order=0)
    r1 = band_spectrum_compare(0.2, 0.5, two_j_list, order=1, cs=CALIBRATED)
    s0, s1 = r0["fit"].slope, r1["fit"].slope
    p = ModelParams(10, 1, 0.2)
    a = effective_hamiltonian(p, 0.5, cs=CALIBRATED)
    b = closed_form_hamiltonian(p, 0.5, cs=CALIBRATED)
    grid = make_grid(48)
    two_path = float(
        np.max(np.abs(grid.synthesize(_combine([(1.0, a.terms[1]), (-1.0, b.terms[1])]).truncated(24))))
    )
    h0 = closed_form_hamiltonian(ModelParams(10, 1, 0.0), 0.5)
    zero = float(np.max(np.abs(make_grid(24).synthesize(h0.terms[1]))))
    ok = abs(s0 + 1) < 0.3 and abs(s1 + 2) < 0.4 and two_path < 1e-8 and zero < 1e-12
    _report(
        11,
        f"spectra slopes {s0:.2f}/{s1:.2f}, two-path gap {two_path:.1e} < 1e-8, h1(0) = {zero:.1e}",
        ok,
    )


def test_acceptance_12_egorov():
    r = egorov_error(0.2, 0.5, vector_symbol_coeffs()[0], 1.0, [10, 20, 40])
    slope = r["fit"].slope
    rn3 = egorov_error(0.2, 0.5, vector_symbol_coeffs()[2], 1.0, [10])
    rng = np.random.default_rng(31)
    n0 = rng.normal(size=(5, 3))
    n0 /= np.linalg.norm(n0, axis=1, keepdims=True)
    nT = classical_flow(0.2, 0.5, n0, 1.0)
    norm_dev = float(np.max(np.abs(np.linalg.norm(nT, axis=1) - 1)))
    E0 = 0.5 * gap_N(np.arccos(np.clip(n0[:, 2], -1, 1)), 0.2)
    ET = 0.5 * gap_N(np.arccos(np.clip(nT[:, 2], -1, 1)), 0.2)
    e_dev = float(np.max(np.abs(ET - E0)))
    # one sided: the measured slope is near -2 because the order-0 effective
    # energy already matches the exact band energy to O(d^-2) here
    ok = slope < -0.7 and rn3["errors"][0] < 1e-10 and norm_dev < 1e-12 and e_dev < 1e-12
    _report(
        12,
        f"Egorov slope {slope:.2f} (<= -0.7), invariant observable {rn3['errors'][0]:.1e}, |n| and E conserved",
        ok,
    )
