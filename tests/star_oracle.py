"""Oracles of the star products for the tests.

The exact products as dense d x d operator products (quantize, @,
dequantize); the package multiplies the operators' offset diagonals.  The
printed order-2 tables as term-by-term sums of separately analyzed symbols;
the package forms each truncation term as one analysis of samples over one
basis of invariants.  It also holds the coherent-state coefficient sets,
which only the tests use."""

from __future__ import annotations

import numpy as np
from swq_oracle import raise_lower_symbol

from sphere_sapt.sphere import SphereSymbol, angular_square, gradient_bilinears
from sphere_sapt.star import CoefficientSet, _combine, order1_bilinear, symbol_product
from sphere_sapt.swq import SWKernel, dequantize, lower_symbol, quantize

# The coherent-state coefficient sets (berezin_exact series): the printed
# table verbatim, and the frozen output of calibrate_order1(product="berezin"),
# whose gradient term calibrates to +1, opposite to the printed sign.
PRINTED_BEREZIN = CoefficientSet(
    "printed_berezin", -0.5, 0.0, -1.0, 1.0, (-0.5, 0.5, -0.5, -3.0, 0.5, -6.0, 0.5, -0.5)
)
CALIBRATED_BEREZIN = CoefficientSet("calibrated_berezin", 0.0, 0.0, 1.0, 1.0)


def star_dense(f, g, irrep) -> SphereSymbol:
    """dequantize(quantize(f) @ quantize(g)) on the band-(L_f + L_g) kernel."""
    kernel = SWKernel(irrep, f.L + g.L)
    k = f.fast_shape[0] if f.fast_shape else None
    return dequantize(quantize(f, kernel) @ quantize(g, kernel), kernel, fast_dim=k)


def berezin_dense(f, g, irrep) -> SphereSymbol:
    """Lower symbol of raise(f) @ raise(g) on the band-(L_f + L_g) kernel."""
    kernel = SWKernel(irrep, f.L + g.L)
    k = f.fast_shape[0] if f.fast_shape else None
    return lower_symbol(raise_lower_symbol(f, kernel) @ raise_lower_symbol(g, kernel), kernel, fast_dim=k)


def _term(F, k) -> SphereSymbol:
    """Term k of a series, zero (band 0) past its end."""
    if k < len(F.terms):
        return F.terms[k]
    return SphereSymbol(np.zeros((1, 1) + F.terms[0].fast_shape, dtype=complex))


def _order2_moyal(x0, x1, y0, y1, x2, y2) -> SphereSymbol:
    lx0, ly0 = angular_square(x0), angular_square(y0)
    dot00, cross00 = gradient_bilinears(x0, y0)
    dot01, cross01 = gradient_bilinears(x0, y1)
    dot10, cross10 = gradient_bilinears(x1, y0)
    dotL0, crossL0 = gradient_bilinears(lx0, y0)
    dot0L, cross0L = gradient_bilinears(x0, ly0)
    parts = [
        (1.0, symbol_product(x0, y2)),
        (1.0, symbol_product(x1, y1)),
        (1.0, symbol_product(x2, y0)),
        (-0.5, symbol_product(lx0, ly0)),
        (0.25, angular_square(dot00)),
        (-2.25, dotL0),
        (-2.25, dot0L),
        (-3.5, dot00),
        (1.0, symbol_product(lx0, y1)),
        (1.0, symbol_product(angular_square(x1), y0)),
        (1.0, symbol_product(x0, angular_square(y1))),
        (1.0, symbol_product(x1, ly0)),
        (1j, cross01),
        (1j, cross10),
        (-6j, cross00),
        (1j, crossL0),
        (1j, cross0L),
    ]
    return _combine(parts)


def _order2_berezin(x0, x1, y0, y1, x2, y2) -> SphereSymbol:
    lx0, ly0 = angular_square(x0), angular_square(y0)
    dot00, cross00 = gradient_bilinears(x0, y0)
    dot01, cross01 = gradient_bilinears(x0, y1)
    dot10, cross10 = gradient_bilinears(x1, y0)
    dotL0, crossL0 = gradient_bilinears(lx0, y0)
    dot0L, cross0L = gradient_bilinears(x0, ly0)
    parts = [
        (1.0, symbol_product(x0, y2)),
        (1.0, symbol_product(x1, y1)),
        (1.0, symbol_product(x2, y0)),
        (-1.0, dot01),
        (-1.0, dot10),
        (-3.0, dot00),
        (0.5, symbol_product(lx0, y0)),
        (0.5, symbol_product(x0, ly0)),
        (-0.5, symbol_product(lx0, ly0)),
        (0.5, angular_square(dot00)),
        (-0.5, dotL0),
        (-0.5, dot0L),
        (1j, cross01),
        (1j, cross10),
        (-6j, cross00),
        (0.5j, crossL0),
        (0.5j, cross0L),
        (-0.5j, angular_square(cross00)),
    ]
    return _combine(parts)


def truncation(F, G, order: int, cs, table: str | None) -> list[SphereSymbol]:
    """Terms 0..order of the truncated star series; table is "moyal",
    "berezin" or None (order <= 1 only)."""
    x0, y0 = _term(F, 0), _term(G, 0)
    terms = [symbol_product(x0, y0)]
    if order >= 1:
        x1, y1 = _term(F, 1), _term(G, 1)
        terms.append(
            _combine(
                [
                    (1.0, symbol_product(x0, y1)),
                    (1.0, symbol_product(x1, y0)),
                    (1.0, order1_bilinear(x0, y0, cs)),
                ]
            )
        )
    if order >= 2:
        x2, y2 = _term(F, 2), _term(G, 2)
        fn = _order2_moyal if table == "moyal" else _order2_berezin
        terms.append(fn(x0, x1, y0, y1, x2, y2))
    return terms
