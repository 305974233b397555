"""Adiabatic projections, effective Hamiltonians, and semiclassical dynamics."""

import tracemalloc

import numpy as np
import pytest
from sapt_oracle import (
    band_clusters,
    closed_form_hamiltonian,
    dense_spectrum,
    egorov_errors,
    h1_closed_form,
    h1_spectral,
    hausdorff,
    heisenberg,
)
from sphere_oracle import full_width, synthesize_at
from star_oracle import CALIBRATED_BEREZIN, PRINTED_BEREZIN, bilinear_from_parts

from sphere_sapt import sapt, spin, swq
from sphere_sapt.fits import loglog_slope
from sphere_sapt.model import ModelParams, gap_N, hamiltonian_symbol, principal_bands
from sphere_sapt.sapt import (
    EGOROV_TIME_SIGN,
    almost_invariance_norms,
    band_spectrum_compare,
    classical_flow,
    effective_hamiltonian,
    egorov_error,
    exact_band_projection,
    heisenberg_symbol,
    moyal_projection,
)
from sphere_sapt.sphere import (
    SphereSymbol,
    make_grid,
    vector_symbol_coeffs,
)
from sphere_sapt.spin import make_irrep
from sphere_sapt.star import (
    CALIBRATED,
    PRINTED_MOYAL,
    _combine,
    order1_bilinear,
    order1_samples,
    star_exact,
    star_truncation,
)
from sphere_sapt.swq import SWKernel, dequantize, quantize, quantize_diagonals

LAM = 0.2
BAND = 0.5


def test_order0_projection_is_pointwise_band_projector():
    p = ModelParams(10, 1, LAM)
    proj = moyal_projection(p, BAND, L=12)
    grid = make_grid(24)
    vals = grid.synthesize(proj.terms[0].truncated(12))
    # pointwise: rank-one projector with trace 1
    tr = np.trace(vals, axis1=-2, axis2=-1)
    assert np.max(np.abs(tr - 1)) < 1e-10
    idem = np.einsum("...ab,...bc->...ac", vals, vals)
    assert np.max(np.abs(idem - vals)) < 1e-10


def test_projection_star_idempotency_improves_with_order():
    # pi * pi - pi in the exact star product: the first-order correction
    # buys one extra power of 1/d
    proj = moyal_projection(ModelParams(10, 1, LAM), BAND, L=16)
    two_j_list = [10, 20, 40]
    slopes = {}
    for order in (0, 1):
        sups = []
        for two_j in two_j_list:
            d = two_j + 1
            sym = proj.evaluate(d, order)
            diff = _combine([(1.0, star_exact(sym, sym, make_irrep(two_j))), (-1.0, sym)])
            grid = make_grid(32)
            sups.append(float(np.max(np.abs(grid.synthesize(diff.truncated(16))))))
        slopes[order] = loglog_slope([t + 1 for t in two_j_list], sups).slope
    assert abs(slopes[0] + 1) < 0.3
    assert slopes[1] < -1.6


def test_quantized_projection_spectrum_near_binary():
    # eigenvalues of the quantized projection approach {0, 1}, one order
    # faster with the first correction
    proj = moyal_projection(ModelParams(10, 1, LAM), BAND, L=16)
    two_j_list = [10, 20, 40]
    slopes = {}
    for order in (0, 1):
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
        bands = exact_band_projection(p)
        assert list(bands) == [0.5, -0.5]
        ranks = tuple(map(len, bands.values()))
        assert ranks == want
        # mismatch with the reference dimension d_j, asserted exactly
        assert ranks[0] == p.d_j + 1 and ranks[1] == p.d_j - 1


def test_exact_band_ranks_trivial_phase():
    p = ModelParams(10, 1, 0.2)
    assert tuple(map(len, exact_band_projection(p).values())) == (p.d_j, p.d_j)


def test_band_ranks_higher_spin():
    p = ModelParams(10, 2, 0.8)
    clusters = band_clusters(dense_spectrum(p), 3)
    assert list(clusters) == [1.0, 0.0, -1.0]
    assert tuple(map(len, clusters.values())) == (13, 11, 9)


@pytest.mark.parametrize("two_j, two_s, lam", [(10, 1, 0.2), (10, 1, 0.8), (10, 2, 0.8), (6, 0, 0.3)])
def test_band_clusters_partition_the_spectrum(two_j, two_s, lam):
    w = dense_spectrum(ModelParams(two_j, two_s, lam))
    clusters = band_clusters(w[::-1], two_s + 1)  # any order
    got = np.concatenate(list(clusters.values())[::-1])
    assert np.array_equal(got, w)


def test_band_split_fails_at_degeneracy():
    p = ModelParams(8, 1, 0.5)
    with pytest.raises(ValueError, match="not separated"):
        band_clusters(np.concatenate(list(exact_band_projection(p).values())), 2)


# lam on both sides of the gap closing, two_j from 2 to 10^4
LABEL_LAMS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49, 0.51, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)
LABEL_SIZES = (*range(2, 60), 80, 100, 200, 10**3, 10**4)


def test_labels_are_the_clusters_wherever_those_separate():
    split = 0
    for lam in LABEL_LAMS:
        for two_j in LABEL_SIZES:
            bands = exact_band_projection(ModelParams(two_j, 1, lam))
            try:
                clusters = band_clusters(np.concatenate(list(bands.values())), 2)
            except ValueError:
                continue
            split += 1
            assert list(clusters) == list(bands), (lam, two_j)
            for m, levels in bands.items():
                assert np.array_equal(clusters[m], np.sort(levels)), (lam, two_j, m)
    # the heuristic separates most cases, not all: near lam = 1/2 it fails
    assert 0.5 * len(LABEL_LAMS) * len(LABEL_SIZES) < split < len(LABEL_LAMS) * len(LABEL_SIZES)


@pytest.mark.parametrize(
    "build",
    [
        lambda p: moyal_projection(p, 0.7, L=8),
        lambda p: effective_hamiltonian(p, 0.7, L=8),
        lambda p: closed_form_hamiltonian(p, 0.7, L=8),
        lambda p: band_spectrum_compare(p.lam, 5.0, [10, 20], order=0, L=8),
    ],
)
def test_band_label_is_never_rounded(build):
    with pytest.raises(ValueError, match="band label"):
        build(ModelParams(10, 1, LAM))


@pytest.mark.parametrize(
    "build",
    [
        lambda p: star_truncation(*vector_symbol_coeffs()[:2], CALIBRATED),
        lambda p: moyal_projection(p, BAND, L=8),
        lambda p: effective_hamiltonian(p, BAND, L=8),
    ],
    ids=["star_truncation", "moyal_projection", "effective_hamiltonian"],
)
def test_a_series_refuses_an_order_it_does_not_carry(build):
    # each series carries orders 0 and 1: order 2 is not its order-1 sum
    series = build(ModelParams(10, 1, LAM))
    assert len(series.terms) == 2
    for order in (2, -1):
        with pytest.raises(ValueError, match=f"order {order} is outside the orders 0..1"):
            series.evaluate(11, order)
    with pytest.raises(ValueError, match="order 2 is outside"):
        series.hermiticity_residual(2)


@pytest.mark.parametrize("sweep", [almost_invariance_norms, band_spectrum_compare])
def test_the_sweeps_refuse_an_order_the_series_does_not_carry(sweep):
    with pytest.raises(ValueError, match="order 2 is outside"):
        sweep(LAM, BAND, [10, 20], order=2, L=8)


def test_effective_hamiltonian_two_paths_agree():
    # both bands and all four coefficient sets.  At lam = 0.2 the paths
    # differ by at most 1.7e-11 (PRINTED_MOYAL); at lam = 0.35 the band-limit
    # error of the L = 24 factors alone reaches 1.4e-8, so lam stays 0.2
    p = ModelParams(10, 1, LAM)
    grid = make_grid(48)
    for m in (BAND, -BAND):
        for cs in (CALIBRATED, PRINTED_MOYAL, CALIBRATED_BEREZIN, PRINTED_BEREZIN):
            a = effective_hamiltonian(p, m, cs=cs)
            b = closed_form_hamiltonian(p, m, cs=cs)
            diff = _combine([(1.0, a.terms[1]), (-1.0, b.terms[1])])
            assert float(np.max(np.abs(grid.synthesize(diff.truncated(24))))) < 1e-8, (m, cs.name)


@pytest.mark.parametrize("m", [0.5, -0.5])
def test_h1_is_the_order1_term_of_the_exact_levels(m):
    # the closed-form levels give h1 = (N'(cos theta) - lam) / 2 for both
    # bands; the star calculus and its analytic-derivative oracle agree with
    # it to the truncation of the band limit.  |h1| reaches 0.033 here, so
    # h1 = 0 fails the 1e-6 bound
    p = ModelParams(10, 1, LAM)
    theta = np.linspace(0.1, 3.0, 7)
    want = h1_spectral(p)(theta)
    assert np.max(np.abs(want)) > 3e-2
    for h1 in (effective_hamiltonian(p, m, L=24).terms[1], h1_closed_form(p, m, CALIBRATED, 24)):
        assert np.max(np.abs(synthesize_at(h1, theta, 0 * theta) - want)) < 1e-6


@pytest.mark.parametrize("two_s", [1, 2])
def test_band_symbols_carry_their_azimuthal_width(two_s):
    # the band fields carry |m| <= two_s alone, and so do their symbols:
    # 2 two_s + 1 coefficient columns at any band limit
    p = ModelParams(10, two_s, LAM)
    for m in np.arange(two_s, -two_s - 1, -2) / 2:
        for series in (moyal_projection(p, m, L=16), effective_hamiltonian(p, m, L=16)):
            for t in series.terms:
                assert t.L == 16 and t.coeffs.shape[1] == 2 * two_s + 1, (m, t.coeffs.shape)


def test_the_evolved_observable_has_width_one():
    # n1 carries m = +-1, and the evolution multiplies its two diagonals by phases
    h0 = effective_hamiltonian(ModelParams(10, 1, LAM), BAND).terms[0]
    evolved = heisenberg_symbol(h0, vector_symbol_coeffs()[0], make_irrep(40), -20.5)
    assert evolved.coeffs.shape == (41, 3)  # l <= 2j = 40, |m| <= 1


def test_effective_hamiltonian_correction_vanishes_decoupled():
    p = ModelParams(10, 1, 0.0)
    h = closed_form_hamiltonian(p, BAND)
    grid = make_grid(24)
    assert float(np.max(np.abs(grid.synthesize(h.terms[1])))) < 1e-12


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
    out = [moyal_projection(p, m, cs=cs, L=L)]
    out.append(effective_hamiltonian(p, m, cs=cs, L=L))
    if two_s == 1:
        out.append(closed_form_hamiltonian(p, m, cs=cs, L=L))
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
        assert got.shape[1] == 2 * two_s + 1 and want.shape[1] == 2 * 8 + 1
        assert np.max(np.abs(full_width(got) - want)) < 1e-12 * np.max(np.abs(want))


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
            moyal_projection(ModelParams(40, 1, LAM), BAND, cs=CALIBRATED, L=L)
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
    E, u0, pi0 = (grid.analyze(x, L) for x in (BAND * gap_N(th, p.lam), bd.u0, bd.projector))
    H0 = hamiltonian_symbol(p)
    n1 = vector_symbol_coeffs()[0]
    return [(E, n1), (n1, E), (E, u0), (u0, E), (pi0, H0), (H0, pi0), (u0, pi0)]


@pytest.mark.parametrize(
    "cs", [CALIBRATED, CALIBRATED_BEREZIN, PRINTED_MOYAL, PRINTED_BEREZIN], ids=lambda cs: cs.name
)
@pytest.mark.parametrize("covariant", [False, True], ids=["make_grid", "symbol_grid"])
def test_order1_samples_equal_the_synthesized_bilinear(cs, covariant):
    # the bilinears are evaluated at the nodes point by point, apart from
    # the grid's own synthesis (which drops their round-off at |m| > 1)
    L = 8
    grid = sapt._symbol_grid(4 * L, 1) if covariant else make_grid(4 * L)
    th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    for f, g in _covariant_pairs(L):
        got = order1_samples(f, g, cs, grid)
        for sym in (order1_bilinear(f, g, cs), bilinear_from_parts(f, g, cs)):
            want = synthesize_at(sym, th, ph).reshape(got.shape)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_covariant_grid_drops_alias_round_off_and_refuses_content():
    # a covariant bilinear analyzed on the full grid has round-off of ~1e-18
    # at |m| > 1, against a largest coefficient of 0.036: the covariant grid
    # synthesizes it without that round-off, but content of 1e-9 of the
    # largest coefficient at |m| = 2 would alias and raises
    L = 8
    grid = sapt._symbol_grid(4 * L, 1)
    th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    E, u0 = _covariant_pairs(L)[2]
    sym = order1_bilinear(E, u0, CALIBRATED)
    got = grid.synthesize(sym)
    want = synthesize_at(sym, th, ph).reshape(got.shape)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    c = sym.coeffs.copy()
    c[sym.L, sym.L + 2] = 1e-9 * np.max(np.abs(c))
    with pytest.raises(ValueError, match=r"\|m\| > 1"):
        grid.synthesize(SphereSymbol(c))


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
    r = egorov_error(LAM, BAND, vector_symbol_coeffs()[2], 1.0, [10])
    assert r["errors"][0] < 1e-10


def test_egorov_error_slope():
    # in-plane observables decay at least one order in 1/d (measured ~ -2)
    r = egorov_error(LAM, BAND, vector_symbol_coeffs()[0], 1.0, [10, 20, 40])
    assert r["fit"].slope < -0.7


@pytest.mark.parametrize("T", [1.0, -2.5])
@pytest.mark.parametrize("m", [0.5, -0.5])
@pytest.mark.parametrize("lam", [0.2, 0.8])
def test_egorov_ring_phases_match_the_point_flow(lam, m, T):
    # the classical side as phases on each theta ring's phi harmonics against
    # every node flowed as a 3-vector and o0 evaluated there by the point oracle
    for o0 in vector_symbol_coeffs()[:2]:
        got = egorov_error(lam, m, o0, T, [10, 20])["errors"]
        want = egorov_errors(lam, m, o0, T, [10, 20])
        assert np.max(np.abs(np.subtract(got, want))) < 1e-13, (got, want)


def test_egorov_point_flow_oracle_catches_a_reversed_flow(monkeypatch):
    # each ring turned by -alpha instead of alpha: the classical side moves by
    # ~0.2 at lam = 0.2, against errors of ~4e-4
    o0 = vector_symbol_coeffs()[0]
    want = egorov_errors(LAM, BAND, o0, 1.0, [10, 20])
    flow = sapt.classical_flow
    monkeypatch.setattr(sapt, "classical_flow", lambda lam, m, n0, T: flow(lam, m, n0, -T))
    got = egorov_error(LAM, BAND, o0, 1.0, [10, 20])["errors"]
    assert np.min(np.abs(np.subtract(got, want))) > 1e-2, (got, want)


def test_egorov_diagonal_phase_matches_eigh_propagator():
    # the evolved symbol from the diagonals equals the dense eigh propagator
    # dequantized with the full kernel, for n1, n2 and n3 up to two_j = 80
    h0 = effective_hamiltonian(ModelParams(10, 1, LAM), BAND).terms[0]
    for o0 in vector_symbol_coeffs():
        for two_j in (10, 20, 40, 80):
            ker = SWKernel(make_irrep(two_j))
            s = EGOROV_TIME_SIGN * (two_j + 1) / 2 * 1.0
            want = dequantize(heisenberg(quantize(h0, ker), quantize(o0, ker), s), ker).coeffs
            got = full_width(heisenberg_symbol(h0, o0, make_irrep(two_j), s).coeffs)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)), two_j


def test_egorov_oracle_catches_a_reversed_phase(monkeypatch):
    # w_r - w_{r+m} taken as w_{r+m} - w_r (h0's diagonal negated): the
    # phases run backwards
    o0, s = vector_symbol_coeffs()[0], -20.5
    h0 = effective_hamiltonian(ModelParams(10, 1, LAM), BAND).terms[0]
    ker = SWKernel(make_irrep(40))
    want = dequantize(heisenberg(quantize(h0, ker), quantize(o0, ker), s), ker).coeffs
    diagonals = sapt._sector_diagonals
    monkeypatch.setattr(sapt, "_sector_diagonals", lambda *args: -diagonals(*args))
    got = full_width(heisenberg_symbol(h0, o0, make_irrep(40), s).coeffs)
    assert np.max(np.abs(got - want)) > 1e-2 * np.max(np.abs(want))


def test_no_block_is_built_for_an_offset_the_symbol_does_not_carry(monkeypatch):
    # at two_j = 10^4 the sweeps' symbols carry the offsets |m| <= 1 and
    # egorov's n1 only m = +-1.  Untrimmed, the diagonal array of a band-L
    # symbol holds (2L + 1) d k^2 entries and builds all L + 1 blocks; the
    # full kernel's blocks are d^2 floats each
    two_j, calls = 10**4, []

    def recorded(tj, m, L):  # a zero stand-in of the block's shape: only the calls count
        calls.append(m)
        return np.broadcast_to(0.0, (L + 1 - m, tj + 1 - m))

    monkeypatch.setattr(swq, "offset_block", recorded)
    p = ModelParams(two_j, 1, LAM)
    proj = moyal_projection(p, BAND, cs=CALIBRATED).evaluate(p.d_j, 1)
    eff = effective_hamiltonian(p, BAND).evaluate(p.d_j, 1)
    for sym in (proj, eff):
        calls.clear()
        D = quantize_diagonals(sym, SWKernel(p.slow, sym.L))
        assert sym.L > 1 and len(D) <= 3 and set(calls) <= {0, 1}, (len(D), calls)
    calls.clear()
    quantize_diagonals(vector_symbol_coeffs()[0], SWKernel(p.slow))
    assert set(calls) == {1}, calls


def test_band_spectra_build_the_diagonal_block_alone(monkeypatch):
    # h1 carries ~3e-17 of round-off at m = +-1, which the sector check lets
    # through; the spectrum is the offset-0 diagonal, so no row of Q[1] is built
    calls = []

    def recorded(two_j, m, L):
        calls.append((two_j, m, L))
        return spin.offset_block(two_j, m, L)

    monkeypatch.setattr(swq, "offset_block", recorded)
    h1 = effective_hamiltonian(ModelParams(10, 1, 0.2), 0.5).terms[1]
    assert 0 < np.abs(h1.coeffs[:, h1.M + 1]).max() < 1e-12 * np.abs(h1.coeffs).max()
    band_spectrum_compare(0.2, 0.5, [10, 20, 40, 80])
    assert calls and {m for _, m, _ in calls} == {0}, calls


def test_egorov_refuses_a_non_diagonal_hamiltonian(monkeypatch):
    # the diagonal phase holds only for an axisymmetric h0
    monkeypatch.setattr(sapt, "_band_energy", lambda *a, **k: vector_symbol_coeffs()[0])
    with pytest.raises(ArithmeticError, match="off the M-sectors"):
        egorov_error(LAM, BAND, vector_symbol_coeffs()[2], 1.0, [10])


def test_egorov_builds_no_band_frames(monkeypatch):
    # h0 = m N(theta) needs no eigenbasis: egorov's quantum side stays off
    # principal_bands and the eigensolvers behind it
    def refused(*args):
        raise AssertionError("principal_bands entered")

    monkeypatch.setattr(sapt, "principal_bands", refused)
    assert egorov_error(LAM, BAND, vector_symbol_coeffs()[0], 1.0, [10, 20])["errors"][1] > 1e-6


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_egorov_errors_are_round_off_where_the_gap_is_1(lam):
    # N = 1 at lam = 0 and 1: h0 is constant and the flow stands still, so
    # both sides are o0; the CLI refuses these couplings
    errs = egorov_error(lam, BAND, vector_symbol_coeffs()[0], 1.0, [10, 20, 40, 80])["errors"]
    assert max(errs) < 1e-12, errs


def test_invariance_norms_are_round_off_at_lambda_1():
    # H = (2/d) J.S commutes with the quantization of every rotation-covariant symbol
    for order in (0, 1):
        norms = almost_invariance_norms(1.0, BAND, [10, 20, 40, 80], order=order)["norms"]
        assert max(norms) < 1e-13, (order, norms)


def test_band_spectra_are_round_off_at_lambda_0():
    # H = 1 (x) S3: the exact levels of band m are all m, and so is its effective spectrum
    for order in (0, 1):
        dists = band_spectrum_compare(0.0, BAND, [10, 20, 40, 80], order=order)["hausdorff"]
        assert max(dists) < 1e-13, (order, dists)


def test_egorov_time_sign_frozen():
    # documented convention constant; flipping it breaks the comparison
    assert EGOROV_TIME_SIGN == -1.0
