"""Oracles of the star products for the tests.

The exact products as dense d x d operator products (quantize, @,
dequantize); the package multiplies the operators' offset diagonals.  The
order-1 truncation with its product through the dense transforms and its
bilinear as a sum of separately analyzed parts; the package forms each
term as one analysis of samples.  It also holds the coherent-state
coefficient sets, which only the tests use."""

from __future__ import annotations

import sphere_oracle
from swq_oracle import lower_symbol, partial_dequantize, raise_lower_symbol

from sphere_sapt.sphere import SphereSymbol, angular_square, gradient_bilinears, make_grid
from sphere_sapt.star import CoefficientSet, _combine, symbol_product
from sphere_sapt.swq import SWKernel, quantize

# The coherent-state coefficient sets (berezin_exact series): the order-1
# row of the printed table verbatim, and the frozen output of
# calibrate_order1(product="berezin"), whose gradient term calibrates to +1,
# opposite to the printed sign.
PRINTED_BEREZIN = CoefficientSet("printed_berezin", -0.5, 0.0, -1.0, 1.0)
CALIBRATED_BEREZIN = CoefficientSet("calibrated_berezin", 0.0, 0.0, 1.0, 1.0)


def star_dense(f, g, irrep) -> SphereSymbol:
    """dequantize(quantize(f) @ quantize(g)) on the band-(L_f + L_g) kernel."""
    kernel = SWKernel(irrep, f.L + g.L)
    k = f.fast_shape[0] if f.fast_shape else None
    return partial_dequantize(quantize(f, kernel) @ quantize(g, kernel), kernel, fast_dim=k)


def berezin_dense(f, g, irrep) -> SphereSymbol:
    """Lower symbol of raise(f) @ raise(g) on the band-(L_f + L_g) kernel."""
    kernel = SWKernel(irrep, f.L + g.L)
    k = f.fast_shape[0] if f.fast_shape else None
    return lower_symbol(raise_lower_symbol(f, kernel) @ raise_lower_symbol(g, kernel), kernel, fast_dim=k)


def bilinear_from_parts(f, g, cs) -> SphereSymbol:
    """B(f, g) assembled in coefficients from separately analyzed parts."""
    dot, cross = gradient_bilinears(f, g)
    lap = [symbol_product(angular_square(f), g), symbol_product(f, angular_square(g))]
    parts = [(1j * cs.c_cross, cross), (cs.c_dot, dot), (cs.c_const, symbol_product(f, g))]
    return _combine(parts + [(cs.c_lap, x) for x in lap])


def truncation(f, g, cs) -> list[SphereSymbol]:
    """The terms fg and B(f, g) of the order-1 truncation, built apart: fg
    through the dense transforms of sphere_oracle, B from its parts."""
    L = f.L + g.L
    grid = make_grid(2 * L)
    fs, gs = (sphere_oracle.synthesize(grid, s.coeffs) for s in (f, g))
    fg = SphereSymbol(sphere_oracle.analyze(grid, fs @ gs if f.fast_shape else fs * gs, L))
    return [fg, bilinear_from_parts(f, g, cs)]
