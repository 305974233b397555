"""Star products of sphere symbols.

star_exact is the operator-product star: dequantize(quantize(f) quantize(g)).
The asymptotic truncations assemble differential-operator bilinears with a
selectable coefficient set.  Two printed sets are shipped verbatim from the
literature; they fail the unit-symbol test (their order-1 term does not
annihilate the pair (1, 1) although 1 * 1 = 1 exactly), so a calibration
routine fits the order-1 symmetric part empirically.  Both sets stay
first-class so the discrepancy can be reported side by side.

Conventions: Lam = (n x grad)^2 acts as -l(l+1) per harmonic sector, dot and
cross are the tangential-gradient bilinears of sphere.gradient_bilinears, and
truncations evaluate as sum_k d^{-k} z_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fits import loglog_slope
from .sphere import (
    Grid,
    SphereSymbol,
    _pointwise,
    angular_square,
    gradient_bilinears,
    gradient_samples,
    make_grid,
)
from .spin import SpinIrrep, make_irrep
from .swq import SWKernel, dequantize, lower_symbol, quantize, raise_lower_symbol

__all__ = [
    "CoefficientSet",
    "SemiclassicalSymbol",
    "PRINTED_MOYAL",
    "PRINTED_BEREZIN",
    "CALIBRATED",
    "CALIBRATED_BEREZIN",
    "symbol_product",
    "star_exact",
    "berezin_exact",
    "poisson_bracket",
    "order1_samples",
    "order1_bilinear",
    "moyal_truncation",
    "berezin_truncation",
    "calibrate_order1",
]


@dataclass(frozen=True)
class CoefficientSet:
    """Order-1 symmetric-part coefficients of a star truncation.

    The order-1 bilinear is
        B(f, g) = c_const f g + c_lap ((Lam f) g + f (Lam g))
                  + c_dot grad f . grad g + i c_cross n . (grad f x grad g)
    order2 selects which printed order-2 table (if any) the truncation uses.
    """

    name: str
    c_const: float
    c_lap: float
    c_dot: float
    c_cross: float
    order2: str | None = None  # "moyal", "berezin", or None


PRINTED_MOYAL = CoefficientSet("printed_moyal", -0.5, 1.0, 0.0, 1.0, order2="moyal")
PRINTED_BEREZIN = CoefficientSet("printed_berezin", -0.5, 0.0, -1.0, 1.0, order2="berezin")
# frozen outputs of calibrate_order1; revalidated in the test suite.  Note the
# coherent-state gradient term calibrates to +1, opposite to the printed sign.
CALIBRATED = CoefficientSet("calibrated", 0.0, 0.0, 0.0, 1.0)
CALIBRATED_BEREZIN = CoefficientSet("calibrated_berezin", 0.0, 0.0, 1.0, 1.0)


def _zero_like(shape_src: SphereSymbol) -> SphereSymbol:
    return SphereSymbol(np.zeros((1, 1) + shape_src.fast_shape, dtype=complex))


@dataclass(frozen=True)
class SemiclassicalSymbol:
    """Symbol with an asymptotic expansion sum_k d^{-k} terms[k]."""

    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    @staticmethod
    def leading(sym: SphereSymbol) -> "SemiclassicalSymbol":
        return SemiclassicalSymbol([sym])

    def term(self, k: int) -> SphereSymbol:
        if k < len(self.terms):
            return self.terms[k]
        return _zero_like(self.terms[0])

    def evaluate(self, d: int, order: int | None = None) -> SphereSymbol:
        """Sum the truncated series at dimension d."""
        if order is None:
            order = len(self.terms) - 1
        parts = [(float(d) ** (-k), self.term(k)) for k in range(order + 1)]
        return _combine(parts)

    def hermiticity_residual(self) -> float:
        return max(t.hermiticity_residual() for t in self.terms)


def _combine(parts) -> SphereSymbol:
    """Weighted sum of symbols with mixed band limits."""
    L = max(s.L for _, s in parts)
    fast = ()
    for _, s in parts:
        if s.fast_shape:
            fast = s.fast_shape
    out = np.zeros((L + 1, 2 * L + 1) + fast, dtype=complex)
    for w, s in parts:
        c = s.truncated(L).coeffs
        if fast and not s.fast_shape:
            eye = np.eye(fast[0])
            c = c[..., None, None] * eye
        out += w * c
    return SphereSymbol(out)


def symbol_product(f: SphereSymbol, g: SphereSymbol) -> SphereSymbol:
    """Pointwise product, exact at band limit L_f + L_g."""
    L = f.L + g.L
    grid = make_grid(2 * L)
    return grid.analyze(_pointwise(grid.synthesize(f), grid.synthesize(g)), L)


def star_exact(f: SphereSymbol, g: SphereSymbol, kernel: SWKernel) -> SphereSymbol:
    """dequantize(quantize(f) quantize(g)); the operator-product star."""
    if f.fast_shape != g.fast_shape:
        raise ValueError("factors must share the fast-sector shape")
    k = f.fast_shape[0] if f.fast_shape else None
    A = quantize(f, kernel)
    B = quantize(g, kernel)
    return dequantize(A @ B, kernel, fast_dim=k)


def berezin_exact(f: SphereSymbol, g: SphereSymbol, irrep: SpinIrrep) -> SphereSymbol:
    """Lower symbol of the product of the operators with lower symbols f, g."""
    fd = f.fast_shape[0] if f.fast_shape else None
    A = raise_lower_symbol(f, irrep)
    B = raise_lower_symbol(g, irrep)
    return lower_symbol(A @ B, irrep, fast_dim=fd)


def poisson_bracket(f: SphereSymbol, g: SphereSymbol) -> SphereSymbol:
    """{f, g} = n . (grad f x grad g), factor order preserved."""
    _, cross = gradient_bilinears(f, g)
    return cross


def order1_samples(f: SphereSymbol, g: SphereSymbol, cs: CoefficientSet, grid: Grid) -> np.ndarray:
    """B(f, g) at the grid nodes; see CoefficientSet.

    Pointwise, so exact on any grid that can synthesize f and g.  Lam f and
    Lam g are synthesized only when cs has a Laplacian term.
    """
    dot, cross = gradient_samples(f, g, grid)
    out = 1j * cs.c_cross * cross
    if cs.c_dot:
        out += cs.c_dot * dot
    if cs.c_const or cs.c_lap:
        fs, gs = grid.synthesize(f), grid.synthesize(g)
        if cs.c_const:
            out += cs.c_const * _pointwise(fs, gs)
        if cs.c_lap:
            lf, lg = grid.synthesize(angular_square(f)), grid.synthesize(angular_square(g))
            out += cs.c_lap * (_pointwise(lf, gs) + _pointwise(fs, lg))
    return out


def order1_bilinear(f: SphereSymbol, g: SphereSymbol, cs: CoefficientSet) -> SphereSymbol:
    """B(f, g) as a symbol at L_f + L_g; see CoefficientSet."""
    L_out = f.L + g.L
    grid = make_grid(2 * L_out)
    return grid.analyze(order1_samples(f, g, cs, grid), L_out)


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


def _truncation(
    F: SemiclassicalSymbol, G: SemiclassicalSymbol, order: int, cs: CoefficientSet, table: str | None
) -> SemiclassicalSymbol:
    if order not in (0, 1, 2):
        raise ValueError("truncation order must be 0, 1 or 2")
    x0, y0 = F.term(0), G.term(0)
    terms = [symbol_product(x0, y0)]
    if order >= 1:
        x1, y1 = F.term(1), G.term(1)
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
        if table is None:
            raise ValueError(f"coefficient set '{cs.name}' carries no order-2 table")
        x2, y2 = F.term(2), G.term(2)
        fn = _order2_moyal if table == "moyal" else _order2_berezin
        terms.append(fn(x0, x1, y0, y1, x2, y2))
    return SemiclassicalSymbol(terms)


def moyal_truncation(
    F: SemiclassicalSymbol, G: SemiclassicalSymbol, order: int, cs: CoefficientSet = PRINTED_MOYAL
) -> SemiclassicalSymbol:
    """Truncated operator-kernel star series with the given coefficients."""
    return _truncation(F, G, order, cs, cs.order2 if cs.order2 != "berezin" else None)


def berezin_truncation(
    F: SemiclassicalSymbol, G: SemiclassicalSymbol, order: int, cs: CoefficientSet = PRINTED_BEREZIN
) -> SemiclassicalSymbol:
    """Truncated coherent-state star series with the given coefficients."""
    return _truncation(F, G, order, cs, cs.order2 if cs.order2 != "moyal" else None)


# -- calibration ------------------------------------------------------------


def random_hermitian_symbol(L: int, rng) -> SphereSymbol:
    """Random real-valued band-limited function (hermitian coefficients)."""
    c = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    for l in range(L + 1):
        c[l, L] = rng.normal()
        for m in range(1, l + 1):
            z = rng.normal() + 1j * rng.normal()
            c[l, L + m] = z
            c[l, L - m] = (-1) ** m * z.conjugate()
    return SphereSymbol(c)


def calibration_corpus(n_pairs: int = 6, L: int = 3, seed: int = 11):
    if n_pairs < 1 or L < 0:
        raise ValueError(f"a corpus needs n_pairs >= 1 and L >= 0, got {n_pairs} and {L}")
    rng = np.random.default_rng(seed)
    return [
        (random_hermitian_symbol(L, rng), random_hermitian_symbol(L, rng))
        for _ in range(n_pairs)
    ]


def calibrate_order1(
    two_j_list=(10, 20, 40, 80),
    corpus=None,
    product: str = "sw",
    fix_poisson: bool = True,
):
    """Fit the order-1 symmetric-part coefficients from exact star products.

    Richardson-extrapolates d (star_exact - fg) over the three largest
    dimensions to isolate the true order-1 term, then least-squares fits it
    over the ansatz {fg, (Lam f) g + f (Lam g), grad f . grad g}.  The
    antisymmetric Poisson part is held at the printed value i n.(f x g)
    unless fix_poisson is False, in which case its coefficient is fitted too
    (consistency check: it must come back as 1).  Each exact product is
    computed once per pair and dimension, as samples on one grid that also
    carries the ansatz, the target and the residuals.

    Returns (CoefficientSet, report dict ready for JSON).
    """
    if corpus is None:
        corpus = calibration_corpus()
    two_j_list = sorted(two_j_list)
    d_list = np.array([tj + 1 for tj in two_j_list], dtype=float)
    L_out = max(f.L + g.L for f, g in corpus)
    grid = make_grid(2 * L_out)

    def samples(sym):
        return grid.synthesize(sym).ravel()

    def exact(f, g, tj):
        irr = make_irrep(tj)
        prod = star_exact(f, g, SWKernel(irr)) if product == "sw" else berezin_exact(f, g, irr)
        return samples(prod.truncated(L_out))

    # Richardson through the three largest d: writing R_d = d (star - fg)
    # = T1 + T2/d + T3/d^2 + ..., the weights w_i with sum w_i = 1 and
    # sum w_i d_i^{-1} = sum w_i d_i^{-2} = 0 recover T1 up to O(1/(d1 d2 d3))
    ds = d_list[-3:]
    V = np.vander(1.0 / ds, len(ds), increasing=True).T
    rhs = np.zeros(len(ds))
    rhs[0] = 1.0
    wts = np.linalg.solve(V, rhs)
    names = ["f*g", "(Lam f)g + f(Lam g)", "grad.grad"]
    if not fix_poisson:
        names.append("i n.(grad x grad)")
    pairs, targets = [], []
    for f, g in corpus:
        fs, gs = samples(f), samples(g)
        dot, cross = gradient_samples(f, g, grid)
        lap = samples(angular_square(f)) * gs + fs * samples(angular_square(g))
        cols = np.stack([fs * gs, lap, dot.ravel(), 1j * cross.ravel()], axis=1)
        ex = np.stack([exact(f, g, tj) for tj in two_j_list])
        t = wts @ (ds[:, None] * (ex[-3:] - cols[:, 0]))
        targets.append(t - cols[:, 3] if fix_poisson else t)
        pairs.append((cols, ex))

    A = np.vstack([cols[:, : len(names)] for cols, _ in pairs])
    b = np.concatenate(targets)
    # real least squares over stacked real/imag parts
    Ar = np.vstack([A.real, A.imag])
    br = np.concatenate([b.real, b.imag])
    coef, _, _, _ = np.linalg.lstsq(Ar, br, rcond=None)
    resid = br - Ar @ coef
    dof = max(len(br) - len(coef), 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(Ar.T @ Ar)
    err = np.sqrt(np.diag(cov))
    cs = CoefficientSet(
        "calibrated",
        float(coef[0]),
        float(coef[1]),
        float(coef[2]),
        1.0 if fix_poisson else float(coef[3]),
    )

    # residual decay of the fitted order-1 truncation fg + B/d across all d;
    # B is the ansatz with the fitted coefficients
    full = np.array([cs.c_const, cs.c_lap, cs.c_dot, cs.c_cross])
    sups = np.zeros(len(d_list))
    for cols, ex in pairs:
        trunc = cols[:, 0] + np.outer(1.0 / d_list, cols @ full)
        sups = np.maximum(sups, np.max(np.abs(ex - trunc), axis=1))
    sups = sups.tolist()
    slope = loglog_slope(d_list, sups).slope

    report = {
        "product": product,
        "two_j_list": list(two_j_list),
        "n_pairs": len(corpus),
        "poisson_fixed": fix_poisson,
        "terms": [
            {"ansatz": nm, "coefficient": float(c), "std_error": float(e)}
            for nm, c, e in zip(names, coef, err)
        ],
        "residual_sup_norms": sups,
        "residual_slope": slope,
    }
    return cs, report
