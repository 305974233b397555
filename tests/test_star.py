"""Star products: exact operator pullback, truncations, and calibration."""

import numpy as np
import pytest

from sphere_sapt import star
from sphere_sapt.fits import loglog_slope
from sphere_sapt.spin import make_irrep
from sphere_sapt.sphere import SphereSymbol, make_grid, vector_symbol_coeffs
from sphere_sapt.star import (
    CALIBRATED,
    CALIBRATED_BEREZIN,
    PRINTED_BEREZIN,
    PRINTED_MOYAL,
    SemiclassicalSymbol,
    _combine,
    berezin_exact,
    berezin_truncation,
    calibrate_order1,
    calibration_corpus,
    moyal_truncation,
    order1_bilinear,
    poisson_bracket,
    star_exact,
    symbol_product,
)
from sphere_sapt.swq import SWKernel


def _kernel(two_j):
    return SWKernel(make_irrep(two_j))


def _sup(sym, grid=None):
    g = grid or make_grid(2 * sym.L if sym.L else 2)
    return float(np.max(np.abs(g.synthesize(sym))))


@pytest.mark.parametrize("two_j", [1, 2, 4, 10])
def test_height_square_closed_form(two_j):
    # independent oracle via the quantized coordinates 2 J_a / sqrt(d^2-1):
    # n3 * n3 = 1/3 + (2/3) sqrt((d^2-4)/(d^2-1)) P2(cos theta)
    d = two_j + 1
    n3 = vector_symbol_coeffs()[2]
    got = star_exact(n3, n3, _kernel(two_j))
    grid = make_grid(8)
    ct = np.cos(grid.theta)[:, None]
    scale = np.sqrt(max(d**2 - 4, 0) / (d**2 - 1))
    want = 1 / 3 + (2 / 3) * scale * (3 * ct**2 - 1) / 2
    vals = grid.synthesize(got.truncated(4))
    assert np.max(np.abs(vals - want)) < 1e-12


def test_height_square_spin_half_is_constant():
    got = star_exact(
        vector_symbol_coeffs()[2], vector_symbol_coeffs()[2], _kernel(1)
    )
    grid = make_grid(4)
    assert np.max(np.abs(grid.synthesize(got.truncated(2)) - 1 / 3)) < 1e-12


def test_unit_is_neutral():
    corpus = calibration_corpus(2, 3, seed=5)
    one = SphereSymbol.constant(1.0)
    ker = _kernel(8)
    for f, _ in corpus:
        for left, right in ((one, f), (f, one)):
            prod = star_exact(left, right, ker)
            diff = _combine([(1.0, prod), (-1.0, f)])
            assert _sup(diff, make_grid(12)) < 1e-12


def test_associativity():
    ker = _kernel(6)
    corpus = calibration_corpus(3, 2, seed=3)
    f, g = corpus[0]
    h, _ = corpus[1]
    lhs = star_exact(star_exact(f, g, ker), h, ker)
    rhs = star_exact(f, star_exact(g, h, ker), ker)
    diff = _combine([(1.0, lhs), (-1.0, rhs)])
    assert _sup(diff, make_grid(24)) < 1e-12


def test_conjugation_law():
    # conj(f * g) = conj(g) * conj(f); for real symbols: swap of factors
    ker = _kernel(5)
    f, g = calibration_corpus(1, 3, seed=9)[0]
    fg = star_exact(f, g, ker)
    gf = star_exact(g, f, ker)
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


def _truncation_sups(two_j_list, order, cs, corpus, trunc=moyal_truncation, exact="sw"):
    L_out = max(f.L + g.L for f, g in corpus)
    grid = make_grid(2 * L_out)
    sups = []
    for two_j in two_j_list:
        d = two_j + 1
        worst = 0.0
        for f, g in corpus:
            if exact == "sw":
                ex = star_exact(f, g, _kernel(two_j))
            else:
                ex = berezin_exact(f, g, make_irrep(two_j))
            F, G = SemiclassicalSymbol.leading(f), SemiclassicalSymbol.leading(g)
            tr = trunc(F, G, order, cs).evaluate(d)
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
            ker = _kernel(two_j)
            res = _combine(
                [
                    (1.0, star_exact(f, g, ker)),
                    (-1.0, star_exact(g, f, ker)),
                    (-2j / d, poisson_bracket(f, g)),
                ]
            )
            worst = max(worst, float(np.max(np.abs(grid.synthesize(res.truncated(L_out))))))
        sups.append(worst)
    slope = loglog_slope([t + 1 for t in two_j_list], sups).slope
    assert slope < -1.7


def test_printed_order2_antisymmetric_part_nonzero():
    # the printed second-order table has a nonvanishing antisymmetric part,
    # unlike the exact product on scalar symbols
    f, g = calibration_corpus(1, 3, seed=13)[0]
    F, G = SemiclassicalSymbol.leading(f), SemiclassicalSymbol.leading(g)
    t_fg = moyal_truncation(F, G, 2, PRINTED_MOYAL).term(2)
    t_gf = moyal_truncation(G, F, 2, PRINTED_MOYAL).term(2)
    anti = _combine([(1.0, t_fg), (-1.0, t_gf)])
    assert _sup(anti, make_grid(4 * anti.L)) > 1.0


def test_truncation_hermiticity():
    f, g = calibration_corpus(1, 2, seed=21)[0]
    F, G = SemiclassicalSymbol.leading(f), SemiclassicalSymbol.leading(g)
    for cs, trunc in [
        (PRINTED_MOYAL, moyal_truncation),
        (CALIBRATED, moyal_truncation),
        (PRINTED_BEREZIN, berezin_truncation),
        (CALIBRATED_BEREZIN, berezin_truncation),
    ]:
        # f * f with hermitian f has a hermitian expansion term by term
        t = trunc(F, F, min(2, 2 if cs.order2 else 1), cs)
        assert t.hermiticity_residual() < 1e-12


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
    from sphere_sapt.swq import lower_symbol, raise_lower_symbol

    A = raise_lower_symbol(n3, ir)
    want = grid.synthesize(lower_symbol(A @ A, ir).truncated(2))
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
        assert calls == [name] * (len(corpus) * len(two_j))


def test_calibration_free_poisson_consistency():
    corpus = calibration_corpus(4, 3, seed=11)
    cs, _ = calibrate_order1((20, 40, 80), corpus, product="sw", fix_poisson=False)
    assert abs(cs.c_cross - 1.0) < 1e-3
