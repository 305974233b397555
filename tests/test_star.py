"""Star products: exact operator pullback, truncations, and calibration."""

import numpy as np
import pytest
from star_oracle import CALIBRATED_BEREZIN, PRINTED_BEREZIN, berezin_dense, star_dense, truncation
from sphere_oracle import full_width
from swq_oracle import lower_symbol, raise_lower_symbol

from sphere_sapt import star
from sphere_sapt.fits import loglog_slope
from sphere_sapt.spin import make_irrep
from sphere_sapt.sphere import SphereSymbol, make_grid, vector_symbol_coeffs
from sphere_sapt.star import (
    CALIBRATED,
    PRINTED_MOYAL,
    CoefficientSet,
    _combine,
    berezin_exact,
    calibrate_order1,
    calibration_corpus,
    order1_bilinear,
    poisson_bracket,
    star_exact,
    star_truncation,
)
from sphere_sapt.swq import SWKernel, dequantize, quantize


def _sup(sym, grid=None):
    g = grid or make_grid(2 * sym.L if sym.L else 2)
    return float(np.max(np.abs(g.synthesize(sym))))


@pytest.mark.parametrize("two_j", [1, 2, 4, 10])
def test_height_square_closed_form(two_j):
    # independent oracle via the quantized coordinates 2 J_a / sqrt(d^2-1):
    # n3 * n3 = 1/3 + (2/3) sqrt((d^2-4)/(d^2-1)) P2(cos theta)
    d = two_j + 1
    n3 = vector_symbol_coeffs()[2]
    got = star_exact(n3, n3, make_irrep(two_j))
    grid = make_grid(8)
    ct = np.cos(grid.theta)[:, None]
    scale = np.sqrt(max(d**2 - 4, 0) / (d**2 - 1))
    want = 1 / 3 + (2 / 3) * scale * (3 * ct**2 - 1) / 2
    vals = grid.synthesize(got.truncated(4))
    assert np.max(np.abs(vals - want)) < 1e-12


def test_height_square_spin_half_is_constant():
    got = star_exact(
        vector_symbol_coeffs()[2], vector_symbol_coeffs()[2], make_irrep(1)
    )
    grid = make_grid(4)
    assert np.max(np.abs(grid.synthesize(got.truncated(2)) - 1 / 3)) < 1e-12


@pytest.mark.parametrize("two_j", [6, 40])
def test_exact_products_stop_at_the_coupling_band(two_j):
    # band-L_f and band-L_g operators multiply to tensor components l <= L_f + L_g,
    # so the band-limited products equal the full-kernel ones, truncated there
    ir = make_irrep(two_j)
    f, g = calibration_corpus(1, 3, seed=21)[0]
    L = f.L + g.L

    def products(kernel):
        sw = dequantize(quantize(f, kernel) @ quantize(g, kernel), kernel)
        bz = lower_symbol(raise_lower_symbol(f, kernel) @ raise_lower_symbol(g, kernel), kernel)
        return sw, bz

    full = products(SWKernel(ir))
    for got, want in zip((star_exact(f, g, ir), berezin_exact(f, g, ir)), full):
        assert got.L == L
        assert np.max(np.abs(got.coeffs - want.truncated(L).coeffs)) < 1e-13
        assert np.max(np.abs(want.coeffs[L + 1 :]), initial=0.0) < 1e-13
    # one band short misses the top row of the product (and, at width L - 1, its columns |m| = L)
    for short, want in zip(products(SWKernel(ir, L - 1)), full):
        assert np.max(np.abs(full_width(short.truncated(L).coeffs) - want.truncated(L).coeffs)) > 1e-2


def _factor_bands(two_j):
    # L_f != L_g both ways and, up to two_j = 10, band sums past 2j, where the
    # product's band (and its kernel's) is capped at 2j
    bands = [(1, 2), (3, 1), (2, 4)] if two_j >= 4 else []
    return bands + [(two_j, 1), (two_j - 1, two_j), (two_j, two_j)] if two_j <= 10 else bands


@pytest.mark.parametrize("fast", [(), (2, 2)])
@pytest.mark.parametrize("two_j", [1, 2, 3, 10, 80, 400])
def test_banded_products_match_the_dense_oracle(two_j, fast):
    rng = np.random.default_rng(two_j + len(fast))
    ir = make_irrep(two_j)
    for Lf, Lg in _factor_bands(two_j):
        f, g = _random_symbol(Lf, fast, rng), _random_symbol(Lg, fast, rng)
        L = min(Lf + Lg, two_j)
        pairs = (star_exact(f, g, ir), star_dense(f, g, ir)), (berezin_exact(f, g, ir), berezin_dense(f, g, ir))
        for got, want in pairs:
            assert got.coeffs.shape == want.coeffs.shape == (L + 1, 2 * L + 1) + fast
            assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13 * max(1.0, np.max(np.abs(want.coeffs)))


def test_exact_products_reject_what_they_cannot_multiply():
    ir = make_irrep(2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="fast-sector shape"):
        star_exact(_random_symbol(1, (), rng), _random_symbol(1, (2, 2), rng), ir)
    with pytest.raises(ValueError, match="not a lower symbol"):
        berezin_exact(_random_symbol(3, (), rng), _random_symbol(1, (), rng), ir)


def test_exact_products_build_no_dense_operator(monkeypatch, tmp_path):
    # neither product nor the two commands that sweep them build a d x d
    # operator, read a full tensor basis or a block of the full kernel, or
    # call the dense transforms
    from sphere_sapt import cli, spin, swq

    def forbidden(*args, **kwargs):
        raise AssertionError("dense operator path entered")

    def band_block(two_j, m, L):
        assert L < two_j, f"full-kernel block {m} at two_j = {two_j}"
        return spin.offset_block(two_j, m, L)

    for mod in (swq, star, cli):
        for name in ("quantize", "dequantize"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    monkeypatch.setattr(spin, "tensor_basis", forbidden)
    monkeypatch.setattr(swq, "offset_block", band_block)
    rng = np.random.default_rng(3)
    for fast in ((), (2, 2)):
        f, g = _random_symbol(2, fast, rng), _random_symbol(3, fast, rng)
        for product in (star_exact, berezin_exact):
            assert product(f, g, make_irrep(300)).L == 5
    for name in ("star-slopes", "calibrate"):
        assert cli.main([name, "--out", str(tmp_path)]) == 0


def test_unit_is_neutral():
    corpus = calibration_corpus(2, 3, seed=5)
    one = SphereSymbol.constant(1.0)
    ir = make_irrep(8)
    for f, _ in corpus:
        for left, right in ((one, f), (f, one)):
            prod = star_exact(left, right, ir)
            diff = _combine([(1.0, prod), (-1.0, f)])
            assert _sup(diff, make_grid(12)) < 1e-12


def test_associativity():
    ir = make_irrep(6)
    corpus = calibration_corpus(3, 2, seed=3)
    f, g = corpus[0]
    h, _ = corpus[1]
    lhs = star_exact(star_exact(f, g, ir), h, ir)
    rhs = star_exact(f, star_exact(g, h, ir), ir)
    diff = _combine([(1.0, lhs), (-1.0, rhs)])
    assert _sup(diff, make_grid(24)) < 1e-12


def test_conjugation_law():
    # conj(f * g) = conj(g) * conj(f); for real symbols: swap of factors
    ir = make_irrep(5)
    f, g = calibration_corpus(1, 3, seed=9)[0]
    fg = star_exact(f, g, ir)
    gf = star_exact(g, f, ir)
    grid = make_grid(16)
    assert np.max(np.abs(np.conj(grid.synthesize(fg)) - grid.synthesize(gf))) < 1e-12


def test_printed_order1_unit_anomaly():
    # the printed coefficient table maps (1, 1) to -1/2 instead of 0
    one = SphereSymbol.constant(1.0)
    b = order1_bilinear(one, one, PRINTED_MOYAL)
    val = make_grid(2).synthesize(b.truncated(0))[0, 0]
    assert abs(val + 0.5) < 1e-12
    # the calibrated table is unital
    bc = order1_bilinear(one, one, CALIBRATED)
    assert _sup(bc, make_grid(2)) < 1e-12


def test_batch_products_act_pair_by_pair():
    # a corpus stacked on a trailing axis multiplies pair by pair, in every product
    corpus = calibration_corpus(5, 3, seed=29)
    F, G = (SphereSymbol.stack(s) for s in zip(*corpus))
    ir, d = make_irrep(12), 13
    every_term = CoefficientSet("every term", 0.3, -0.7, 1.1, 0.9)
    products = [
        lambda f, g: star_exact(f, g, ir),
        lambda f, g: berezin_exact(f, g, ir),
        star.symbol_product,
        lambda f, g: order1_bilinear(f, g, every_term),
        poisson_bracket,
        lambda f, g: star_truncation(f, g, CALIBRATED).evaluate(d, 1),
    ]
    for product in products:
        batch = product(F, G)
        assert batch.fast_shape == (len(corpus),)
        for p, (f, g) in enumerate(corpus):
            want = product(f, g).coeffs
            assert np.max(np.abs(batch.coeffs[..., p] - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))


def test_batch_hermiticity_is_the_worst_member():
    rng = np.random.default_rng(31)
    members = [_random_symbol(3, (), rng) for _ in range(5)]
    members[2] = calibration_corpus(1, 3, seed=2)[0][0]  # hermitian
    batch = SphereSymbol.stack(members)
    assert batch.is_scalar
    assert batch.hermiticity_residual() == max(s.hermiticity_residual() for s in members) > 1
    assert SphereSymbol.stack(members[2:3]).hermiticity_residual() < 1e-15


def test_matrix_valued_factors_still_multiply_as_matrices():
    # a 2 x 2 fast shape is one matrix, not a batch of four scalars
    X = SphereSymbol.constant([[0, 1], [1, 0]])
    Z = SphereSymbol.constant([[1, 0], [0, -1]])
    for product in (lambda f, g: star_exact(f, g, make_irrep(4)), star.symbol_product):
        assert np.max(np.abs(product(X, Z).coeffs - SphereSymbol.constant([[0, -1], [1, 0]]).coeffs)) < 1e-14
    rng = np.random.default_rng(37)
    f, g = _random_symbol(2, (2, 2), rng), _random_symbol(2, (2, 2), rng)
    grid = make_grid(8)
    fs, gs = grid.synthesize(f), grid.synthesize(g)
    assert np.max(np.abs(grid.synthesize(star.symbol_product(f, g)) - fs @ gs)) < 1e-12
    ir = make_irrep(10)
    assert np.max(np.abs(star_exact(f, g, ir).coeffs - star_exact(g, f, ir).coeffs)) > 1e-1


def _truncation_sups(two_j_list, order, cs, corpus):
    L_out = max(f.L + g.L for f, g in corpus)
    grid = make_grid(2 * L_out)
    sups = []
    for two_j in two_j_list:
        d = two_j + 1
        worst = 0.0
        for f, g in corpus:
            ex = star_exact(f, g, make_irrep(two_j))
            tr = star_truncation(f, g, cs).evaluate(d, order)
            diff = _combine([(1.0, ex), (-1.0, tr)])
            worst = max(worst, float(np.max(np.abs(grid.synthesize(diff.truncated(L_out))))))
        sups.append(worst)
    return sups


def test_truncation_slopes_calibrated():
    two_j_list = [10, 20, 40]
    corpus = calibration_corpus(3, 3, seed=7)
    d = [t + 1 for t in two_j_list]
    s0 = loglog_slope(d, _truncation_sups(two_j_list, 0, CALIBRATED, corpus)).slope
    s1 = loglog_slope(d, _truncation_sups(two_j_list, 1, CALIBRATED, corpus)).slope
    assert abs(s0 + 1) < 0.3
    assert abs(s1 + 2) < 0.3


def test_truncation_slope_printed_stalls_at_order1():
    # the printed order-1 table does not improve on order 0 (documented anomaly)
    two_j_list = [10, 20, 40]
    corpus = calibration_corpus(3, 3, seed=7)
    d = [t + 1 for t in two_j_list]
    s1 = loglog_slope(d, _truncation_sups(two_j_list, 1, PRINTED_MOYAL, corpus)).slope
    assert s1 > -1.4


def test_commutator_tracks_poisson_bracket():
    # (f*g - g*f) - (2i/d) {f, g} decays at least as d^-2; in this corpus the
    # measured slope is near -3 because the exact d^-2 antisymmetric part
    # vanishes for scalar symbols
    two_j_list = [10, 20, 40]
    corpus = calibration_corpus(2, 3, seed=13)
    L_out = 6
    grid = make_grid(2 * L_out)
    sups = []
    for two_j in two_j_list:
        d = two_j + 1
        worst = 0.0
        for f, g in corpus:
            ir = make_irrep(two_j)
            res = _combine(
                [
                    (1.0, star_exact(f, g, ir)),
                    (-1.0, star_exact(g, f, ir)),
                    (-2j / d, poisson_bracket(f, g)),
                ]
            )
            worst = max(worst, float(np.max(np.abs(grid.synthesize(res.truncated(L_out))))))
        sups.append(worst)
    slope = loglog_slope([t + 1 for t in two_j_list], sups).slope
    assert slope < -1.7


def _random_symbol(L, fast, rng):
    c = rng.normal(size=(L + 1, 2 * L + 1) + fast) + 1j * rng.normal(size=(L + 1, 2 * L + 1) + fast)
    l, m = np.ogrid[: L + 1, -L : L + 1]
    c[abs(m) > l] = 0
    return SphereSymbol(c)


@pytest.mark.parametrize("fast", [(), (2, 2)])
@pytest.mark.parametrize("lengths", [(1, 1), (3, 3), (2, 3), (3, 1)])
def test_truncations_match_the_term_by_term_oracle(fast, lengths):
    # both terms under every set against the oracle's terms built apart,
    # for factors of band limits `lengths`, scalar and matrix-valued
    rng = np.random.default_rng(sum(lengths) + len(fast))
    f, g = (_random_symbol(L, fast, rng) for L in lengths)
    for cs in (PRINTED_MOYAL, PRINTED_BEREZIN, CALIBRATED, CALIBRATED_BEREZIN):
        got = star_truncation(f, g, cs).terms
        want = truncation(f, g, cs)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.coeffs.shape == b.coeffs.shape
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * np.max(np.abs(b.coeffs))


def test_truncation_hermiticity():
    f, g = calibration_corpus(1, 2, seed=21)[0]
    for cs in (PRINTED_MOYAL, CALIBRATED, PRINTED_BEREZIN, CALIBRATED_BEREZIN):
        # f * f with hermitian f has a hermitian expansion term by term
        assert star_truncation(f, f, cs).hermiticity_residual(1) < 1e-12


def test_berezin_exact_properties():
    ir = make_irrep(6)
    f, g = calibration_corpus(1, 2, seed=2)[0]
    h, _ = calibration_corpus(1, 2, seed=4)[0]
    lhs = berezin_exact(berezin_exact(f, g, ir), h, ir)
    rhs = berezin_exact(f, berezin_exact(g, h, ir), ir)
    diff = _combine([(1.0, lhs), (-1.0, rhs)])
    assert _sup(diff, make_grid(24)) < 1e-9
    one = SphereSymbol.constant(1.0)
    neutral = _combine([(1.0, berezin_exact(one, f, ir)), (-1.0, f)])
    assert _sup(neutral, make_grid(8)) < 1e-11


def test_berezin_spin_half_height_square():
    # cross-check the coherent-state product against its defining operator
    # composition lower(raise(f) raise(g)) at d = 2
    ir = make_irrep(1)
    n3 = vector_symbol_coeffs()[2]
    prod = berezin_exact(n3, n3, ir)
    grid = make_grid(8)
    ct = np.cos(grid.theta)[:, None]
    # lower(raise(n3)^2): raise(n3) = 2 J3 / d...; direct operator oracle
    ker = SWKernel(ir)
    A = raise_lower_symbol(n3, ker)
    want = grid.synthesize(lower_symbol(A @ A, ker).truncated(2))
    got = grid.synthesize(prod.truncated(2))
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.max(np.abs(got.imag)) < 1e-13


def test_calibration_recovers_frozen_constants():
    corpus = calibration_corpus(6, 3, seed=11)
    cs, rep = calibrate_order1((10, 20, 40, 80), corpus, product="sw")
    assert abs(cs.c_const) < 1e-3
    assert abs(cs.c_lap) < 1e-3
    assert abs(cs.c_dot) < 1e-3
    assert rep["residual_slope"] < -1.7
    csb, repb = calibrate_order1((10, 20, 40, 80), corpus, product="berezin")
    assert abs(csb.c_const) < 1e-3
    assert abs(csb.c_lap) < 1e-3
    assert abs(csb.c_dot - 1.0) < 1e-3  # opposite sign to the printed table
    assert repb["residual_slope"] < -1.7


def test_calibration_computes_each_exact_product_once(monkeypatch):
    calls = []
    for name in ("star_exact", "berezin_exact"):
        fn = getattr(star, name)
        monkeypatch.setattr(star, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    corpus = calibration_corpus(2, 2, seed=11)
    two_j = (10, 20, 40, 80)
    for product, name in (("sw", "star_exact"), ("berezin", "berezin_exact")):
        calls.clear()
        calibrate_order1(two_j, corpus, product=product)
        assert calls == [name] * len(two_j)  # one batch product per dimension for every pair

