"""Band-limited calculus on the two-sphere.

Gauss-Legendre x uniform-phi quadrature grids (optionally with an
azimuthal band limit that keeps only 2M+1 phi nodes), complex orthonormal
spherical harmonics with Condon-Shortley phase (orthonormal for the
un-normalized measure, total mass 4 pi), analysis/synthesis (a matmul per
m in theta, a product with the phase matrix e^{i m phi_p} in phi),
tangential gradients from analytic theta/phi derivatives, and the
rotation-invariant differential operators used by the star-product expansions.

Scalar symbols carry coefficient arrays of shape (L+1, 2M+1), with an
azimuthal width M <= L read from the shape; matrix valued symbols append
trailing (k, k) axes, and a batch of P scalar symbols one trailing axis
of length P, along which every product acts entrywise.  Coefficient
a[l, M+m] multiplies Y_lm; entries with |m| > l are zero, and a symbol
has no content at |m| > M.  M = L is the full layout; fields covariant
under rotations about e3, such as the band symbols of the two-spin model,
are analyzed at the width of their phi content, O(L M) instead of O(L^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

__all__ = [
    "Grid",
    "SphereSymbol",
    "make_grid",
    "angular_square",
    "gradient_samples",
    "gradient_bilinears",
    "vector_symbol_coeffs",
]


@dataclass(frozen=True)
class SphereSymbol:
    """Band-limited function on S^2 in spherical-harmonic coefficients,
    (L+1, 2M+1) + fast: band limit L and azimuthal width M read from the shape.

    The fast shape (the trailing axes of coeffs) is () for a scalar symbol,
    (k, k) for a k x k matrix-valued one and (P,) for a batch of P scalar
    symbols: a batch is scalar, and products act on it entry by entry.
    """

    coeffs: np.ndarray

    @property
    def L(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def M(self) -> int:
        """Azimuthal width: the largest |m| the coefficient array holds."""
        return self.coeffs.shape[1] // 2

    @property
    def fast_shape(self) -> tuple:
        return self.coeffs.shape[2:]

    @property
    def is_scalar(self) -> bool:
        return len(self.fast_shape) < 2

    def truncated(self, L: int) -> "SphereSymbol":
        """Drop (or zero-pad) to band limit L, at width min(L, M)."""
        return self if L == self.L else SphereSymbol(_embed(self.coeffs, L, min(L, self.M)))

    def hermiticity_residual(self) -> float:
        """Max deviation from a_{l,-m} = (-1)^m conj-transpose(a_{lm}), the
        conjugate alone for scalars; of a batch, the largest over its members."""
        c = self.coeffs
        sign = ((-1.0) ** np.arange(-self.M, self.M + 1)).reshape((1, -1) + (1,) * (c.ndim - 2))
        ct = c.conj() if self.is_scalar else c.conj().swapaxes(-1, -2)
        return float(np.max(np.abs(c[:, ::-1] - sign * ct)))

    @staticmethod
    def stack(symbols) -> "SphereSymbol":
        """Scalar symbols as one batch, in order, zero-padded to the largest band limit and width."""
        L, M = max(s.L for s in symbols), max(s.M for s in symbols)
        return SphereSymbol(np.stack([_embed(s.coeffs, L, M) for s in symbols], axis=-1))

    @staticmethod
    def constant(value) -> "SphereSymbol":
        """Constant symbol (band limit 0); value may be a scalar or a k x k matrix."""
        value = np.asarray(value, dtype=complex)
        return SphereSymbol((value * sqrt(4 * pi)).reshape((1, 1) + value.shape))


def _embed(coeffs: np.ndarray, L: int, M: int) -> np.ndarray:
    """A copy of coeffs in the (L+1, 2M+1) + fast layout: rows l > L and
    columns |m| > M dropped, the new ones zero."""
    W = coeffs.shape[1] // 2
    lc, mc = min(L, coeffs.shape[0] - 1), min(M, W)
    out = np.zeros((L + 1, 2 * M + 1) + coeffs.shape[2:], dtype=complex)
    out[: lc + 1, M - mc : M + mc + 1] = coeffs[: lc + 1, W - mc : W + mc + 1]
    return out


def _legendre(L: int, x: np.ndarray, K: int) -> np.ndarray:
    """Fully normalized associated Legendre P_lm(x) for l <= L, m <= K <= L.

    Shape (L+1, K+1, len(x)), indexed [l, m].  Normalization: int P_lm(x)^2
    dx dphi-factor = orthonormal spherical harmonics, i.e. Y_lm(theta, phi) =
    P_lm(cos theta) e^{i m phi}.  The l-recurrence runs over every m at once,
    one numpy step per l; each entry is computed as in the full table, so
    the columns m <= K equal the full table's bit for bit.
    """
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))  # sin(theta) > 0 off poles
    P = np.zeros((L + 1, K + 1, len(x)))
    P[0, 0] = 1.0 / sqrt(4 * pi)
    for m in range(1, K + 1):
        P[m, m] = -sqrt((2 * m + 1) / (2 * m)) * sx * P[m - 1, m - 1]
    m = np.arange(min(L, K + 1))
    P[m + 1, m] = np.sqrt(2 * m + 3)[:, None] * x * P[m, m]
    for l in range(2, L + 1):
        m = np.arange(min(l - 1, K + 1))
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))[:, None]
        b = np.sqrt((2 * l + 1) / (2 * l - 3) * ((l - 1) ** 2 - m * m) / (l * l - m * m))[:, None]
        P[l, : len(m)] = a * x * P[l - 1, : len(m)] - b * P[l - 2, : len(m)]
    return P


def _theta_derivative(P: np.ndarray, x: np.ndarray, K: int) -> np.ndarray:
    """d/dtheta P_lm for m <= K, from a table P that holds m <= K + 1 (or
    m <= K = L, as P_{l,L+1} = 0)."""
    # d/dtheta P_lm = m cot(theta) P_lm + sqrt((l-m)(l+m+1)) P_{l,m+1}
    # pole nodes only ever consume P (quadrature grids exclude the poles),
    # so a finite stand-in for cot there keeps dP free of nans
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    cot = np.divide(x, sx, out=np.zeros_like(x), where=sx > 0)
    l, m = np.ogrid[: P.shape[0], : K + 1]
    dP = m[..., None] * cot * P[:, : K + 1]
    k = P.shape[1] - 1  # columns m whose P_{l,m+1} the table holds
    dP[:, :k] += np.sqrt(np.clip((l - m) * (l + m + 1), 0, None))[:, :k, None] * P[:, 1:]
    return dP


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule as (theta ascending, x = cos theta, weights summing to 2)."""
    # Tricomi's first guess with its 1/(8 n^2) correction, three Newton steps
    # in theta on P_n(cos theta), then the weights 2 / (dP_n/dtheta)^2 at the
    # final nodes; P_n and P_{n-1} come from the three-term recurrence
    k = np.arange(1, n + 1)
    theta = np.arccos((1 - 1 / (8 * n**2) + 1 / (8 * n**3)) * np.cos(pi * (4 * k - 1) / (4 * n + 2)))
    for step in range(4):
        x = np.cos(theta)
        p0, p1 = np.ones(n), x
        for l in range(1, n):
            p0, p1 = p1, ((2 * l + 1) * x * p1 - l * p0) / (l + 1)
        dp = n * (x * p1 - p0) / np.sin(theta)
        if step < 3:
            theta = theta - p1 / dp
    return theta, x, 2 / dp**2


class Grid:
    """Quadrature grid exact for spherical-harmonic products up to L_exact.

    Gauss-Legendre nodes in cos(theta) (never at the poles), uniform phi,
    weights summing to 4 pi.  The nodes are roots of P_n(cos theta) found by
    Newton's method in theta on the three-term recurrence, from Tricomi's
    asymptotic guess (Swarztrauber, SIAM J. Sci. Comput. 24, 945 (2002);
    Hale and Townsend, SIAM J. Sci. Comput. 35, A652 (2013)), with no
    eigensolver: x = cos(theta) lies within 2.5e-16 of the exact node and
    the weights within 1e-12 relative up to n_theta = 321.  With an
    azimuthal band limit M the grid has 2M+1 phi nodes instead of
    L_exact+1 and serves only symbols and samples whose phi content lies
    in |m| <= M, such as fields covariant under
    rotations about e3 (entry (a, b) = e^{i (m_b - m_a) phi} g(theta)).  For
    them it is as exact as the full grid, and its analysis returns symbols
    of width min(L, M).  Synthesis refuses coefficients at |m| > M, which
    its nodes would alias, once they exceed 1e-12 of the symbol's largest;
    below that (the round-off of a covariant symbol analyzed on a full
    grid) it drops them.
    """

    def __init__(self, L_exact: int, M: int | None = None):
        self.L_exact = int(L_exact)
        self.M = None if M is None else int(M)
        n_theta = self.L_exact // 2 + 1
        self.theta, self.x, wx = _gauss_legendre(n_theta)
        n_phi = self.L_exact + 1 if M is None else 2 * self.M + 1
        self.phi = 2 * pi * np.arange(n_phi) / n_phi
        self.w_theta = wx * (2 * pi / n_phi)  # per-node weight, any phi
        self.n_theta = n_theta
        self.n_phi = n_phi
        # one table (L, K, P, dP, E), built for the last request that the one
        # before did not cover; dP is None until a gradient synthesis asks for it
        self._table = (-1, -1, None, None, None)

    # -- cached tables ------------------------------------------------------

    def _mmax(self, L: int) -> int:
        """Largest |m| of a band-L transform on this grid."""
        return L if self.M is None else min(L, self.M)

    def _tab(self, L: int, K: int | None = None, deriv: bool = False):
        """(P, dP, E) for a band limit >= L: P holds the Legendre columns
        m <= K + 1 (or up to the band), dP the columns m <= K, and E[p, K + m]
        = e^{i m phi_p} for |m| <= K; K defaults to _mmax(L).  A table that
        does not cover the request is rebuilt at its L and K alone, so a
        narrow band-2000 table keeps no columns of a full band-40 one."""
        K = self._mmax(L) if K is None else K
        Lt, Kt, P, dP, E = self._table
        if Lt < L or Kt < K:
            Lt, Kt, P, dP = L, K, _legendre(L, self.x, min(L, K + 1)), None
            # m p mod n_phi in integers, and columns -m that conjugate columns m
            # exactly, so real samples analyze to exactly hermitian coefficients
            E = np.exp(2j * pi / self.n_phi * (np.arange(self.n_phi)[:, None] * np.arange(K + 1) % self.n_phi))
            E = np.concatenate([E[:, :0:-1].conj(), E], axis=1)
        if deriv and dP is None:
            dP = _theta_derivative(P, self.x, Kt)
        self._table = (Lt, Kt, P, dP, E)
        return P, dP, E[:, Kt - K : Kt + K + 1]

    # -- transforms ---------------------------------------------------------

    def synthesize(self, sym: SphereSymbol, turn: np.ndarray | None = None) -> np.ndarray:
        """Sample a symbol on the grid, output (n_theta, n_phi, *fast): f(theta_t,
        phi_p), or f(theta_t, phi_p + turn[t]) given one angle per theta ring."""
        return self._synth(sym.coeffs, deriv=False, turn=turn)

    def _synth(self, coeffs: np.ndarray, deriv: bool, turn: np.ndarray | None = None) -> np.ndarray:
        # f_m(theta) = sum_l P_l|m| c_lm as one real matmul over m >= 0 and
        # one over m < 0, on float views of the complex columns, then a theta
        # ring's samples E @ f_m (aliased m share a phase, so they add up).
        # Only the columns |m| <= K up to the last one with a nonzero
        # coefficient are transformed: the others would add exact zeros
        L, W = coeffs.shape[0] - 1, coeffs.shape[1] // 2
        mm = self._mmax(W)
        c = np.ascontiguousarray(coeffs, dtype=complex).reshape(L + 1, 2 * W + 1, -1)
        lo, hi = c[:, : W - mm], c[:, W + mm + 1 :]
        if lo.any() or hi.any():
            outside = max(np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0))
            if outside > 1e-12 * np.abs(c).max():
                raise ValueError(f"symbol has content at |m| > {self.M}, which {self.n_phi} phi nodes alias")
        K = mm
        while K and not (c[:, W - K].any() or c[:, W + K].any()):
            K -= 1
        P, dP, E = self._tab(L, K, deriv)
        T = (dP if deriv else P)[: L + 1, : K + 1].transpose(1, 2, 0)  # [m, theta, l]
        cf = c.view(float).transpose(1, 0, 2)  # [m + W, l, re/im of fast]
        fm = np.empty((2 * K + 1, self.n_theta, c.shape[-1]), dtype=complex)  # [m + K, theta, fast]
        ff = fm.view(float)
        np.matmul(T, cf[W : W + K + 1], out=ff[K:])  # m = 0, 1, ..., K
        np.matmul(T[1:], cf[W - K : W][::-1], out=ff[:K][::-1])  # m = -1, -2, ..., -K
        ff[:K][::-2] *= -1  # P_l,-m = (-1)^m P_lm
        if turn is not None:
            fm *= np.exp(1j * np.outer(np.arange(-K, K + 1), turn))[..., None]
        out = E @ fm.transpose(1, 0, 2)
        return out.reshape((self.n_theta, self.n_phi) + coeffs.shape[2:])

    def synthesize_gradient(self, sym: SphereSymbol):
        """Tangential gradient samples (f_theta, f_phi_over_sin)."""
        f_th = self._synth(sym.coeffs, deriv=True)
        m = np.arange(-sym.M, sym.M + 1)
        c_phi = sym.coeffs * (1j * m).reshape((1, -1) + (1,) * len(sym.fast_shape))
        f_ph = self._synth(c_phi, deriv=False)
        f_ph /= np.sin(self.theta).reshape((-1, 1) + (1,) * len(sym.fast_shape))
        return f_th, f_ph

    def analyze(self, samples: np.ndarray, L: int) -> SphereSymbol:
        """Project grid samples onto Y_lm for l <= L and |m| <= M: a symbol of
        width M = min(L, the grid's azimuthal limit)."""
        samples = np.asarray(samples, dtype=complex)
        mm = self._mmax(L)
        P, _, E = self._tab(L)
        # g[theta, mm + m] = sum_p e^{-i m phi_p} samples[theta, p], times the theta weight
        g = E.conj().T @ samples.reshape(self.n_theta, self.n_phi, -1)
        g *= self.w_theta[:, None, None]
        T = P[: L + 1, : mm + 1].transpose(1, 0, 2)  # [m, l, theta]
        coeffs = np.empty((L + 1, 2 * mm + 1, g.shape[-1]), dtype=complex)
        cf = coeffs.view(float).transpose(1, 0, 2)
        gf = g.view(float).transpose(1, 0, 2)  # [mm + m, theta, re/im of fast]
        np.matmul(T, gf[mm:], out=cf[mm:])
        np.matmul(T[1:], gf[:mm][::-1], out=cf[:mm][::-1])
        coeffs[:, :mm][:, ::-2] *= -1  # P_l,-m = (-1)^m P_lm
        return SphereSymbol(coeffs.reshape((L + 1, 2 * mm + 1) + samples.shape[2:]))


@lru_cache(maxsize=None)
def make_grid(L_exact: int) -> Grid:
    return Grid(L_exact)


def angular_square(sym: SphereSymbol) -> SphereSymbol:
    """Apply (n x grad)^2, i.e. multiply each l-sector by -l(l+1)."""
    L = sym.L
    lv = np.arange(L + 1, dtype=float)
    shape = (L + 1, 1) + (1,) * len(sym.fast_shape)
    return SphereSymbol(sym.coeffs * (-lv * (lv + 1)).reshape(shape))


def _pointwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product of grid samples (n_theta, n_phi) + fast: a matrix
    product when both are matrix valued, a scalar times the other factor's
    matrices, and otherwise entrywise (scalars, batches of scalars)."""
    if a.ndim == b.ndim == 4:
        return a @ b
    if a.ndim == 2 and b.ndim == 4:
        return a[..., None, None] * b
    if b.ndim == 2 and a.ndim == 4:
        return a * b[..., None, None]
    return a * b


def gradient_samples(f: SphereSymbol, g: SphereSymbol, grid: Grid):
    """Samples of (grad f . grad g, n . (grad f x grad g)) at the grid nodes.

    Pointwise, so exact on any grid that can synthesize f and g; factor
    order is preserved for matrix-valued symbols.
    """
    f_th, f_ph = grid.synthesize_gradient(f)
    g_th, g_ph = grid.synthesize_gradient(g)
    dot = _pointwise(f_th, g_th) + _pointwise(f_ph, g_ph)
    cross = _pointwise(f_th, g_ph) - _pointwise(f_ph, g_th)
    return dot, cross


def gradient_bilinears(f: SphereSymbol, g: SphereSymbol):
    """(grad f . grad g, n . (grad f x grad g)) as symbols at L_f + L_g."""
    L_out = f.L + g.L
    grid = make_grid(2 * L_out)
    dot, cross = gradient_samples(f, g, grid)
    return grid.analyze(dot, L_out), grid.analyze(cross, L_out)


def vector_symbol_coeffs() -> list[SphereSymbol]:
    """The scalar symbols n_1, n_2, n_3 (unit-vector components), band limit 1."""
    r = sqrt(2 * pi / 3)
    c = np.zeros((3, 2, 3), dtype=complex)
    c[0, 1, [0, 2]] = r, -r
    c[1, 1, [0, 2]] = 1j * r
    c[2, 1, 1] = sqrt(4 * pi / 3)
    return [SphereSymbol(ci) for ci in c]

