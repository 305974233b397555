"""Star products of sphere symbols.

star_exact is the operator-product star: dequantize(quantize(f) quantize(g)).
The product of operators of band limits L_f and L_g has no tensor component
above L_f + L_g (the coupling rule of su(2) tensor operators, as in Varilly
& Gracia-Bondia, Ann. Phys. 190, 107, 1989), so both exact products work on
the band-(L_f + L_g) kernel and return that band, exactly.  No d x d matrix
is formed: a band-L operator is its array of offset diagonals
(swq.quantize_diagonals), the product of two is a banded product of
diagonals in O(d L_f L_g), and the result goes back through
swq.dequantize_diagonals.  The dense products are test oracles.  Every
product here acts entry by entry along the batch axis of a batch of
scalar symbols (SphereSymbol.stack), so a corpus of pairs costs the Python
work of one pair.
star_truncation is the order-1 truncation fg + d^{-1} B(f, g), B the
differential-operator bilinear of a given coefficient set: an
operator-kernel set gives the star_exact series, a coherent-state set the
berezin_exact one.  The printed operator-kernel set is the order-1 row of
a table shipped verbatim from the literature (no command checks an order-2
claim, so its order-2 row is not carried).  It fails the unit-symbol test
(its order-1 term does not annihilate the pair (1, 1) although 1 * 1 = 1
exactly), so a calibration routine fits the order-1 symmetric part
empirically.  Both sets stay first-class so the discrepancy can be
reported side by side.  The coherent-state sets, printed and calibrated,
are test data (tests/star_oracle.py).

Conventions: Lam = (n x grad)^2 acts as -l(l+1) per harmonic sector, dot and
cross are the tangential-gradient bilinears of sphere.gradient_bilinears, and
truncations evaluate as sum_k d^{-k} z_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fits import least_squares, loglog_slope
from .sphere import (
    Grid,
    SphereSymbol,
    _embed,
    _pointwise,
    angular_square,
    gradient_bilinears,
    gradient_samples,
    make_grid,
)
from .spin import SpinIrrep, make_irrep
from .swq import SWKernel, _lower_scale, _per_l, _span, dequantize_diagonals, quantize_diagonals

__all__ = [
    "CoefficientSet",
    "SemiclassicalSymbol",
    "PRINTED_MOYAL",
    "CALIBRATED",
    "symbol_product",
    "star_exact",
    "berezin_exact",
    "poisson_bracket",
    "order1_samples",
    "order1_bilinear",
    "star_truncation",
    "calibrate_order1",
]


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the order-1 term of a star truncation.

    The order-1 bilinear is
        B(f, g) = c_const f g + c_lap ((Lam f) g + f (Lam g))
                  + c_dot grad f . grad g + i c_cross n . (grad f x grad g)
    """

    name: str
    c_const: float
    c_lap: float
    c_dot: float
    c_cross: float


PRINTED_MOYAL = CoefficientSet("printed_moyal", -0.5, 1.0, 0.0, 1.0)
# frozen output of calibrate_order1; revalidated in the test suite
CALIBRATED = CoefficientSet("calibrated", 0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SemiclassicalSymbol:
    """Symbol with an asymptotic expansion sum_k d^{-k} terms[k]."""

    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def _through(self, order: int) -> tuple:
        """Terms 0..order; ValueError for an order the series does not carry."""
        if not 0 <= order < len(self.terms):
            raise ValueError(f"order {order} is outside the orders 0..{len(self.terms) - 1} of this series")
        return self.terms[: order + 1]

    def evaluate(self, d: int, order: int) -> SphereSymbol:
        """Sum the series at dimension d through term `order`."""
        return _combine([(float(d) ** (-k), t) for k, t in enumerate(self._through(order))])

    def hermiticity_residual(self, order: int) -> float:
        """Largest hermiticity residual of terms 0..order."""
        return max(t.hermiticity_residual() for t in self._through(order))


def _combine(parts) -> SphereSymbol:
    """Weighted sum of symbols with mixed band limits and widths and one
    fast shape, at the largest of each."""
    L, M = max(s.L for _, s in parts), max(s.M for _, s in parts)
    out = np.zeros((L + 1, 2 * M + 1) + parts[0][1].fast_shape, dtype=complex)
    for w, s in parts:
        out += w * _embed(s.coeffs, L, M)
    return SphereSymbol(out)


def symbol_product(f: SphereSymbol, g: SphereSymbol) -> SphereSymbol:
    """Pointwise product, exact at band limit L_f + L_g."""
    L = f.L + g.L
    grid = make_grid(2 * L)
    return grid.analyze(_pointwise(grid.synthesize(f), grid.synthesize(g)), L)


def _operator_product(f: SphereSymbol, g: SphereSymbol, kernel: SWKernel) -> SphereSymbol:
    """dequantize(quantize(f) quantize(g)) on the kernel's band, from the
    offset diagonals alone: C[a + b, r] = sum_a A[a, r] B[b, r + a], one
    step per offset a of the left factor (a k x k matmul per entry for
    matrix-valued symbols, entrywise along a batch axis), then
    dequantize_diagonals.  O(d L_f L_g) work and O(d (L_f + L_g)) memory
    per batch entry besides the kernel rows."""
    if f.fast_shape != g.fast_shape:
        raise ValueError("factors must share the fast-sector shape")
    d = kernel.d
    A, B = quantize_diagonals(f, kernel), quantize_diagonals(g, kernel)
    La, Lb = len(A) // 2, len(B) // 2
    mul = np.matmul if len(f.fast_shape) == 2 else np.multiply
    # offsets |a + b| up to La + Lb; those past d - 1 stay zero
    C = np.zeros((2 * (La + Lb) + 1,) + A.shape[1:], dtype=complex)
    for a in range(-La, La + 1):
        r = _span(d, a)
        C[La + a : La + a + 2 * Lb + 1, r] += mul(A[La + a, r], B[:, _span(d, -a)])
    return dequantize_diagonals(C, kernel)


def star_exact(f: SphereSymbol, g: SphereSymbol, irrep: SpinIrrep) -> SphereSymbol:
    """dequantize(quantize(f) quantize(g)); the operator-product star, at
    band limit min(L_f + L_g, 2j)."""
    return _operator_product(f, g, SWKernel(irrep, f.L + g.L))


def berezin_exact(f: SphereSymbol, g: SphereSymbol, irrep: SpinIrrep) -> SphereSymbol:
    """Lower symbol of the product of the operators with lower symbols f, g,
    at band limit min(L_f + L_g, 2j).

    The operator with lower symbol f is quantize(f / r), r_l the
    lower-symbol shrink factor, so this is r times the operator-product
    star of f / r and g / r.  A factor with content at l > 2j is no lower
    symbol (ValueError).
    """
    kernel = SWKernel(irrep, f.L + g.L)
    r = _lower_scale(irrep.two_j)[: kernel.L + 1]
    for s in (f, g):
        if np.max(np.abs(s.coeffs[irrep.two_j + 1 :]), initial=0.0) > 1e-12:
            raise ValueError("symbol has components with l > 2j; not a lower symbol")
    raised = (_per_l(s.truncated(min(s.L, kernel.L)), 1 / r) for s in (f, g))
    return _per_l(_operator_product(*raised, kernel), r)


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


def star_truncation(f: SphereSymbol, g: SphereSymbol, cs: CoefficientSet) -> SemiclassicalSymbol:
    """The order-1 star series fg + d^{-1} B(f, g) under cs, each term one analysis."""
    return SemiclassicalSymbol([symbol_product(f, g), order1_bilinear(f, g, cs)])


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


def calibration_corpus(n_pairs: int, L: int, seed: int):
    if n_pairs < 1 or L < 0:
        raise ValueError(f"a corpus needs n_pairs >= 1 and L >= 0, got {n_pairs} and {L}")
    rng = np.random.default_rng(seed)
    return [
        (random_hermitian_symbol(L, rng), random_hermitian_symbol(L, rng))
        for _ in range(n_pairs)
    ]


def _richardson_weights(ds: np.ndarray) -> np.ndarray:
    """Writing R_d = d (star - fg) = T1 + T2/d + T3/d^2 + ..., the weights w_i
    with sum w_i = 1 and sum w_i / d_i = sum w_i / d_i^2 = 0 (three sizes;
    two meet the first two) recover T1 up to O(1/prod d_i): the Lagrange
    weights at x = 1/d = 0, prod_{k != i} x_k / (x_k - x_i)."""
    x = 1.0 / ds
    return np.array([np.prod(np.delete(x, i) / (np.delete(x, i) - x[i])) for i in range(len(x))])


def calibrate_order1(two_j_list, corpus, product: str):
    """Fit the order-1 symmetric-part coefficients from exact star products.

    Richardson-extrapolates d (star_exact - fg) over the three largest
    dimensions (over both, a two-point extrapolation, when only two are
    swept) to isolate the true order-1 term, then least-squares fits it
    over the ansatz {fg, (Lam f) g + f (Lam g), grad f . grad g}.  The
    antisymmetric Poisson part is held at the printed value i n.(f x g).
    product is "sw" (star_exact) or "berezin" (berezin_exact).  The corpus
    is one batch (SphereSymbol.stack), so each exact product is computed
    once per dimension for all pairs, as samples on one grid that also
    carries the ansatz, the target and the residuals.

    Returns (CoefficientSet, report dict ready for JSON).
    """
    two_j_list = sorted(two_j_list)
    d_list = np.array([tj + 1 for tj in two_j_list], dtype=float)
    F, G = (SphereSymbol.stack(s) for s in zip(*corpus))
    grid = make_grid(2 * (F.L + G.L))

    def pairwise(samples):
        # (pairs, nodes), pair-major like the least-squares rows
        return samples.reshape(-1, len(corpus)).T

    def exact(tj):
        irr = make_irrep(tj)
        return pairwise(grid.synthesize(star_exact(F, G, irr) if product == "sw" else berezin_exact(F, G, irr)))

    ds = d_list[-3:]  # Richardson through the three largest d
    # the ansatz columns are B of the four unit coefficient sets
    names = ["f*g", "(Lam f)g + f(Lam g)", "grad.grad", "i n.(grad x grad)"]
    units = [CoefficientSet(nm, *row) for nm, row in zip(names, np.eye(4))]
    cols = np.stack([pairwise(order1_samples(F, G, u, grid)) for u in units], axis=-1)  # (pairs, nodes, 4)
    ex = np.stack([exact(tj) for tj in two_j_list])  # (dimensions, pairs, nodes)
    t = np.tensordot(_richardson_weights(ds), ds[:, None, None] * (ex[-3:] - cols[..., 0]), axes=1)

    A = cols[..., :3].reshape(-1, 3)
    b = (t - cols[..., 3]).ravel()
    # real least squares over stacked real/imag parts
    Ar = np.vstack([A.real, A.imag])
    br = np.concatenate([b.real, b.imag])
    coef, _, cov = least_squares(Ar, br)
    err = np.sqrt(np.diag(cov))
    cs = CoefficientSet("calibrated", float(coef[0]), float(coef[1]), float(coef[2]), 1.0)

    # residual decay of the fitted order-1 truncation fg + B/d across all d;
    # B is the ansatz with the fitted coefficients
    full = np.array([cs.c_const, cs.c_lap, cs.c_dot, cs.c_cross])
    trunc = cols[..., 0] + (1.0 / d_list)[:, None, None] * (cols @ full)
    sups = np.max(np.abs(ex - trunc), axis=(1, 2)).tolist()
    slope = loglog_slope(d_list, sups).slope

    report = {
        "two_j_list": list(two_j_list),
        "terms": [
            {"ansatz": nm, "coefficient": float(c), "std_error": float(e)}
            for nm, c, e in zip(names, coef, err)
        ],
        "residual_sup_norms": sups,
        "residual_slope": slope,
    }
    return cs, report
