"""Adiabatic projections, effective Hamiltonians, and semiclassical dynamics."""

import tracemalloc

import numpy as np
import pytest
from sapt_oracle import hausdorff

from sphere_sapt import sapt
from sphere_sapt.fits import loglog_slope
from sphere_sapt.model import ModelParams, build_hamiltonian, gap_N, hamiltonian_symbol, principal_bands
from sphere_sapt.sapt import (
    EGOROV_TIME_SIGN,
    BandSplitError,
    almost_invariance_norms,
    band_spectrum_compare,
    classical_flow,
    effective_hamiltonian,
    egorov_error,
    exact_band_projection,
    moyal_projection,
)
from sphere_sapt.sphere import angular_square, gradient_bilinears, make_grid, synthesize_at, vector_symbol_coeffs
from sphere_sapt.spin import make_irrep
from sphere_sapt.star import (
    CALIBRATED,
    CALIBRATED_BEREZIN,
    PRINTED_BEREZIN,
    PRINTED_MOYAL,
    _combine,
    order1_bilinear,
    order1_samples,
    star_exact,
    symbol_product,
)
from sphere_sapt.swq import SWKernel, quantize

LAM = 0.2
BAND = 0.5


def test_order0_projection_is_pointwise_band_projector():
    p = ModelParams(10, 1, LAM)
    proj = moyal_projection(p, BAND, order=0, L=12)
    grid = make_grid(24)
    vals = grid.synthesize(proj.term(0).truncated(12))
    # pointwise: rank-one projector with trace 1
    tr = np.trace(vals, axis1=-2, axis2=-1)
    assert np.max(np.abs(tr - 1)) < 1e-10
    idem = np.einsum("...ab,...bc->...ac", vals, vals)
    assert np.max(np.abs(idem - vals)) < 1e-10


def test_projection_star_idempotency_improves_with_order():
    # pi * pi - pi in the exact star product: the first-order correction
    # buys one extra power of 1/d
    p0 = ModelParams(10, 1, LAM)
    two_j_list = [10, 20, 40]
    slopes = {}
    for order in (0, 1):
        proj = moyal_projection(p0, BAND, order=order, L=16)
        sups = []
        for two_j in two_j_list:
            d = two_j + 1
            sym = proj.evaluate(d, order)
            ker = SWKernel(make_irrep(two_j))
            diff = _combine([(1.0, star_exact(sym, sym, ker)), (-1.0, sym)])
            grid = make_grid(32)
            sups.append(float(np.max(np.abs(grid.synthesize(diff.truncated(16))))))
        slopes[order] = loglog_slope([t + 1 for t in two_j_list], sups).slope
    assert abs(slopes[0] + 1) < 0.3
    assert slopes[1] < -1.6


def test_quantized_projection_spectrum_near_binary():
    # eigenvalues of the quantized projection approach {0, 1}, one order
    # faster with the first correction
    p0 = ModelParams(10, 1, LAM)
    two_j_list = [10, 20, 40]
    slopes = {}
    for order in (0, 1):
        proj = moyal_projection(p0, BAND, order=order, L=16)
        devs = []
        for two_j in two_j_list:
            d = two_j + 1
            P = quantize(proj.evaluate(d, order), SWKernel(make_irrep(two_j)))
            w = np.linalg.eigvalsh(P)
            devs.append(float(np.max(np.minimum(np.abs(w), np.abs(w - 1)))))
        slopes[order] = loglog_slope([t + 1 for t in two_j_list], devs).slope
    assert slopes[0] < -0.6
    assert slopes[1] < slopes[0] - 0.5


def test_almost_invariance_slopes():
    # for this model the order-0 commutator already decays like d^-2
    # (the order-1 star commutator with an affine fiber Hamiltonian vanishes
    # identically at s = 1/2), so the generic -1 bound is beaten
    r0 = almost_invariance_norms(LAM, BAND, [10, 20, 40], order=0)
    r1 = almost_invariance_norms(LAM, BAND, [10, 20, 40], order=1)
    assert r0["fit"].slope < -0.7
    assert r1["fit"].slope < -1.7


def test_exact_band_ranks_shifted_in_topological_phase():
    for two_j, lam, want in [(10, 0.8, (12, 10)), (6, 0.8, (8, 6)), (2, 1.0, (4, 2))]:
        p = ModelParams(two_j, 1, lam)
        clusters = exact_band_projection(build_hamiltonian(p), 2)
        ranks = tuple(c.rank for c in clusters)
        assert ranks == want
        assert clusters[0].m == 0.5 and clusters[1].m == -0.5
        # mismatch with the reference dimension d_j, asserted exactly
        assert ranks[0] == p.d_j + 1 and ranks[1] == p.d_j - 1


def test_exact_band_ranks_trivial_phase():
    p = ModelParams(10, 1, 0.2)
    clusters = exact_band_projection(build_hamiltonian(p), 2)
    assert tuple(c.rank for c in clusters) == (p.d_j, p.d_j)


def test_band_ranks_higher_spin():
    p = ModelParams(10, 2, 0.8)
    clusters = exact_band_projection(build_hamiltonian(p), 3)
    assert tuple(c.rank for c in clusters) == (13, 11, 9)


def test_band_split_fails_at_degeneracy():
    p = ModelParams(8, 1, 0.5)
    with pytest.raises(ValueError):
        exact_band_projection(build_hamiltonian(p), 2)


def test_band_split_failure_is_a_failed_computation():
    with pytest.raises(ArithmeticError):
        exact_band_projection(build_hamiltonian(ModelParams(8, 1, 0.5)), 2)
    assert issubclass(BandSplitError, ValueError)


@pytest.mark.parametrize(
    "build",
    [
        lambda p: moyal_projection(p, 0.7, order=0, L=8),
        lambda p: moyal_projection(p, 0.7, order=1, L=8),
        lambda p: effective_hamiltonian(p, 0.7, order=0, L=8),
        lambda p: effective_hamiltonian(p, 0.7, order=1, path="star_machinery", L=8),
        lambda p: effective_hamiltonian(p, 0.7, order=1, path="closed_form", L=8),
        lambda p: band_spectrum_compare(p.lam, 5.0, [10, 20], order=0, L=8),
    ],
)
def test_band_label_is_never_rounded(build):
    with pytest.raises(ValueError, match="band label"):
        build(ModelParams(10, 1, LAM))


def test_effective_hamiltonian_two_paths_agree():
    p = ModelParams(10, 1, LAM)
    grid = make_grid(48)
    for cs, tol in [(CALIBRATED, 1e-8), (PRINTED_MOYAL, 1e-8)]:
        a = effective_hamiltonian(p, BAND, order=1, path="star_machinery", cs=cs)
        b = effective_hamiltonian(p, BAND, order=1, path="closed_form", cs=cs)
        diff = _combine([(1.0, a.term(1)), (-1.0, b.term(1))])
        assert float(np.max(np.abs(grid.synthesize(diff.truncated(24))))) < tol


def test_effective_hamiltonian_correction_vanishes_decoupled():
    p = ModelParams(10, 1, 0.0)
    h = effective_hamiltonian(p, BAND, order=1, path="closed_form")
    grid = make_grid(24)
    assert float(np.max(np.abs(grid.synthesize(h.term(1))))) < 1e-12


def test_band_spectrum_slopes():
    r0 = band_spectrum_compare(LAM, BAND, [10, 20, 40], order=0)
    r1 = band_spectrum_compare(LAM, BAND, [10, 20, 40], order=1, cs=CALIBRATED)
    assert abs(r0["fit"].slope + 1) < 0.3
    assert r1["fit"].slope < -1.6


def test_band_limit_24_is_converged_to_two_j_160():
    # N(theta) is not band-limited, so the symbols are cut at L; doubling L
    # from 24 to 48 moves the norms by 2.3e-10 and the Hausdorff distances
    # by 1.0e-7 at two_j <= 160 (from 12 to 24 it is 5e-5, which fails)
    two_j = (40, 80, 160)

    def values(L):
        norms = almost_invariance_norms(LAM, BAND, two_j, order=1, cs=CALIBRATED, L=L)["norms"]
        dists = band_spectrum_compare(LAM, BAND, two_j, order=1, cs=CALIBRATED, L=L)["hausdorff"]
        return np.array(norms + dists)

    coarse, fine = values(24), values(48)
    assert np.max(np.abs(coarse - fine) / fine) < 1e-6


def _band_symbols(two_s, lam, cs, L=8):
    p = ModelParams(10, two_s, lam)
    m = two_s / 2
    out = [moyal_projection(p, m, order=1, cs=cs, L=L)]
    out.append(effective_hamiltonian(p, m, order=1, path="star_machinery", cs=cs, L=L))
    if two_s == 1:
        out.append(effective_hamiltonian(p, m, order=1, path="closed_form", cs=cs, L=L))
    return [t.coeffs for sym in out for t in sym.terms]


@pytest.mark.parametrize("two_s", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.2, 0.8])
@pytest.mark.parametrize("cs", [CALIBRATED, PRINTED_MOYAL, CALIBRATED_BEREZIN], ids=lambda cs: cs.name)
def test_symbols_on_the_covariant_grid_equal_the_full_grid(monkeypatch, two_s, lam, cs):
    # 2 two_s + 1 phi nodes are exact for the e3-covariant band fields: the
    # symbols move from the full 4L-grid ones by round-off only
    reduced = _band_symbols(two_s, lam, cs)
    monkeypatch.setattr(sapt, "_symbol_grid", lambda L_exact, two_s: make_grid(L_exact))
    full = _band_symbols(two_s, lam, cs)
    for got, want in zip(reduced, full, strict=True):
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_projection_at_band_limit_96_in_little_memory():
    # tracemalloc peak of moyal_projection at two_j = 40, grid and Legendre
    # tables built under the trace.  L = 96: 239 MiB on the full
    # make_grid(384) with its 385 phi nodes, 21 MiB on the 3-node covariant
    # grid with the order-1 bilinears as dense band-2L coefficient arrays,
    # 4 MiB with them as samples on the grid.  L = 192: 80 MiB and 13 MiB
    for L, bound_mib in [(96, 64), (192, 32)]:
        sapt._symbol_grid.cache_clear()
        tracemalloc.start()
        try:
            moyal_projection(ModelParams(40, 1, LAM), BAND, order=1, cs=CALIBRATED, L=L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (L, peak / 2**20)


def _covariant_pairs(L):
    # scalar x scalar, scalar x matrix and matrix x matrix pairs of e3-covariant
    # band fields (entry (a, b) carries phi content m_b - m_a only)
    p = ModelParams(10, 1, LAM)
    grid = sapt._symbol_grid(4 * L, 1)
    th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    bd = principal_bands(p, th, ph, BAND)
    E, u0, pi0 = (grid.analyze(x, L) for x in (bd.energy, bd.u0, bd.projector))
    H0 = hamiltonian_symbol(p, order=0)[0]
    n1 = vector_symbol_coeffs()[0]
    return [(E, n1), (n1, E), (E, u0), (u0, E), (pi0, H0), (H0, pi0), (u0, pi0)]


def _bilinear_from_parts(f, g, cs):
    # B(f, g) assembled in coefficients from separately analyzed parts
    dot, cross = gradient_bilinears(f, g)
    lap = [symbol_product(angular_square(f), g), symbol_product(f, angular_square(g))]
    parts = [(1j * cs.c_cross, cross), (cs.c_dot, dot), (cs.c_const, symbol_product(f, g))]
    return _combine(parts + [(cs.c_lap, x) for x in lap])


@pytest.mark.parametrize(
    "cs", [CALIBRATED, CALIBRATED_BEREZIN, PRINTED_MOYAL, PRINTED_BEREZIN], ids=lambda cs: cs.name
)
@pytest.mark.parametrize("covariant", [False, True], ids=["make_grid", "symbol_grid"])
def test_order1_samples_equal_the_synthesized_bilinear(cs, covariant):
    # the bilinear's round-off at |m| > 1 would trip the covariant grid's
    # alias guard, so it is evaluated at the nodes point by point
    L = 8
    grid = sapt._symbol_grid(4 * L, 1) if covariant else make_grid(4 * L)
    th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    for f, g in _covariant_pairs(L):
        got = order1_samples(f, g, cs, grid)
        for sym in (order1_bilinear(f, g, cs), _bilinear_from_parts(f, g, cs)):
            want = synthesize_at(sym, th, ph).reshape(got.shape)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("seed", range(4))
def test_hausdorff_sorted_merge_equals_the_distance_matrix(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=37), rng.normal(size=23)
    ties = np.round(rng.normal(size=40), 1)  # repeated values and exact ties
    for x, y in [(a, b), (b, a), (a, a[:1]), (ties[:25], ties[25:]), (ties, ties[::-1] + 0.05)]:
        assert sapt._hausdorff(x, y) == hausdorff(x, y)


def test_classical_flow_conserves_invariants():
    rng = np.random.default_rng(15)
    n0 = rng.normal(size=(6, 3))
    n0 /= np.linalg.norm(n0, axis=1, keepdims=True)
    nT = classical_flow(LAM, BAND, n0, 2.0)
    assert np.max(np.abs(np.linalg.norm(nT, axis=1) - 1)) < 1e-12
    E0 = BAND * gap_N(np.arccos(np.clip(n0[:, 2], -1, 1)), LAM)
    ET = BAND * gap_N(np.arccos(np.clip(nT[:, 2], -1, 1)), LAM)
    assert np.max(np.abs(ET - E0)) < 1e-12


def test_classical_flow_matches_integrated_precession():
    # RK4 on n' = n x grad E with E = m N(theta), the flow the rotation solves
    def field(n):
        rate = -BAND * LAM * (1 - LAM) / gap_N(np.arccos(n[:, 2]), LAM)
        return np.stack([-rate * n[:, 1], rate * n[:, 0], 0 * n[:, 2]], axis=1)

    rng = np.random.default_rng(16)
    n = rng.normal(size=(6, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    want, h = n.copy(), 1e-3
    for _ in range(2000):
        k1 = field(want)
        k2 = field(want + h / 2 * k1)
        k3 = field(want + h / 2 * k2)
        k4 = field(want + h * k3)
        want = want + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(classical_flow(LAM, BAND, n, 2000 * h) - want)) < 1e-12


def test_egorov_height_is_invariant():
    # n3 is constant along the precession flow; the quantum side agrees to
    # machine precision at fixed d
    r = egorov_error(LAM, BAND, vector_symbol_coeffs()[2], 1.0, [10], L=16)
    assert r["errors"][0] < 1e-10


def test_egorov_error_slope():
    # in-plane observables decay at least one order in 1/d (measured ~ -2)
    r = egorov_error(LAM, BAND, vector_symbol_coeffs()[0], 1.0, [10, 20, 40], L=16)
    assert r["fit"].slope < -0.7


def test_egorov_time_sign_frozen():
    # documented convention constant; flipping it breaks the comparison
    assert EGOROV_TIME_SIGN == -1.0
