"""Band-limited calculus on the two-sphere.

Gauss-Legendre x uniform-phi quadrature grids (optionally with an
azimuthal band limit that keeps only 2M+1 phi nodes), complex orthonormal
spherical harmonics with Condon-Shortley phase (orthonormal for the
un-normalized measure, total mass 4 pi), analysis/synthesis, tangential
gradients from analytic theta/phi derivatives, and the rotation-invariant
differential operators used by the star-product expansions.

Scalar symbols carry coefficient arrays of shape (L+1, 2L+1); matrix
valued symbols append trailing (k, k) axes.  Coefficient a[l, m+L]
multiplies Y_lm; entries with |m| > l are zero.
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
    """Band-limited function on S^2 in spherical-harmonic coefficients."""

    coeffs: np.ndarray

    @property
    def L(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def fast_shape(self) -> tuple:
        return self.coeffs.shape[2:]

    @property
    def is_scalar(self) -> bool:
        return self.coeffs.ndim == 2

    def truncated(self, L: int) -> "SphereSymbol":
        """Drop (or zero-pad) to band limit L."""
        old = self.L
        if L == old:
            return self
        shape = (L + 1, 2 * L + 1) + self.fast_shape
        out = np.zeros(shape, dtype=complex)
        lc = min(L, old)
        out[: lc + 1, L - lc : L + lc + 1] = self.coeffs[: lc + 1, old - lc : old + lc + 1]
        return SphereSymbol(out)

    def hermiticity_residual(self) -> float:
        """Max deviation from a_{l,-m} = (-1)^m conj-transpose(a_{lm})."""
        c = self.coeffs
        sign = ((-1.0) ** np.arange(-self.L, self.L + 1)).reshape((1, -1) + (1,) * (c.ndim - 2))
        ct = c.conj() if self.is_scalar else c.conj().swapaxes(-1, -2)
        return float(np.max(np.abs(c[:, ::-1] - sign * ct)))

    @staticmethod
    def constant(value, L: int = 0) -> "SphereSymbol":
        """Constant symbol; value may be a scalar or a k x k matrix."""
        value = np.asarray(value, dtype=complex)
        shape = (L + 1, 2 * L + 1) + value.shape
        c = np.zeros(shape, dtype=complex)
        c[0, L] = value * sqrt(4 * pi)
        return SphereSymbol(c)


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


def _wrap_add(f: np.ndarray, fm: np.ndarray) -> None:
    """f[:, i mod n] += fm[i] for theta columns fm[i]; f has n columns."""
    n = f.shape[1]
    for k in range(0, len(fm), n):
        block = fm[k : k + n].transpose(1, 0, 2)
        f[:, : block.shape[1]] += block


class Grid:
    """Quadrature grid exact for spherical-harmonic products up to L_exact.

    Gauss-Legendre nodes in cos(theta) (never at the poles), uniform phi,
    weights summing to 4 pi.  With an azimuthal band limit M the grid has
    2M+1 phi nodes instead of L_exact+1 and serves only symbols and samples
    whose phi content lies in |m| <= M, such as fields covariant under
    rotations about e3 (entry (a, b) = e^{i (m_b - m_a) phi} g(theta)).  For
    them it is as exact as the full grid; synthesis refuses coefficients at
    |m| > M, which its nodes would alias.
    """

    def __init__(self, L_exact: int, M: int | None = None):
        self.L_exact = int(L_exact)
        self.M = None if M is None else int(M)
        n_theta = self.L_exact // 2 + 1
        x, wx = np.polynomial.legendre.leggauss(n_theta)
        order = np.argsort(-x)  # theta ascending
        self.x = x[order]
        self.theta = np.arccos(self.x)
        n_phi = self.L_exact + 1 if M is None else 2 * self.M + 1
        self.phi = 2 * pi * np.arange(n_phi) / n_phi
        self.w_theta = wx[order] * (2 * pi / n_phi)  # per-node weight, any phi
        self.n_theta = n_theta
        self.n_phi = n_phi
        # one (P, dP) pair for the largest band limit asked so far; dP is None
        # until a gradient synthesis asks for it
        self._tables: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}

    # -- cached tables ------------------------------------------------------

    def _mmax(self, L: int) -> int:
        """Largest |m| of a band-L transform on this grid."""
        return L if self.M is None else min(L, self.M)

    def _tab(self, L: int, deriv: bool = False):
        """(P, dP) for a band limit >= L and m <= _mmax (P holds m + 1 too)."""
        for Lt, (P, dP) in self._tables.items():
            if Lt >= L:
                break
        else:
            Lt, P, dP = L, _legendre(L, self.x, min(L, self._mmax(L) + 1)), None
        if deriv and dP is None:
            dP = _theta_derivative(P, self.x, self._mmax(Lt))
        self._tables = {Lt: (P, dP)}
        return P, dP

    @property
    def nvec(self) -> np.ndarray:
        """Unit normals at the nodes, shape (3, n_theta, n_phi)."""
        st = np.sin(self.theta)[:, None]
        return np.stack(np.broadcast_arrays(st * np.cos(self.phi), st * np.sin(self.phi), self.x[:, None]))

    # -- transforms ---------------------------------------------------------

    def synthesize(self, sym: SphereSymbol) -> np.ndarray:
        """Sample a symbol on the grid; output (n_theta, n_phi, *fast)."""
        return self._synth(sym.coeffs, deriv=False)

    def _synth(self, coeffs: np.ndarray, deriv: bool) -> np.ndarray:
        # f_m(theta) = sum_l P_l|m| c_lm as one real matmul over m >= 0 and
        # one over m < 0, on float views of the complex columns; f_m lands
        # at phi index m mod n_phi (aliased m add up), then one inverse FFT
        L = coeffs.shape[0] - 1
        mm = self._mmax(L)
        c = np.ascontiguousarray(coeffs, dtype=complex).reshape(L + 1, 2 * L + 1, -1)
        if c[:, : L - mm].any() or c[:, L + mm + 1 :].any():
            raise ValueError(f"symbol has content at |m| > {self.M}, which {self.n_phi} phi nodes alias")
        P, dP = self._tab(L, deriv)
        T = (dP if deriv else P)[: L + 1, : mm + 1].transpose(1, 2, 0)  # [m, theta, l]
        cf = c.view(float).transpose(1, 0, 2)  # [m + L, l, re/im of fast]
        out = np.zeros((self.n_theta, self.n_phi, c.shape[-1]), dtype=complex)
        f = out.view(float)
        _wrap_add(f, T @ cf[L : L + mm + 1])  # m = 0, 1, ..., mm
        neg = T[1:] @ cf[L - mm : L][::-1]  # m = -1, -2, ..., -mm
        neg[::2] *= -1  # P_l,-m = (-1)^m P_lm
        _wrap_add(f[:, ::-1], neg)
        np.fft.ifft(out, axis=1, norm="forward", out=out)
        return out.reshape((self.n_theta, self.n_phi) + coeffs.shape[2:])

    def synthesize_gradient(self, sym: SphereSymbol):
        """Tangential gradient samples (f_theta, f_phi_over_sin)."""
        L = sym.L
        f_th = self._synth(sym.coeffs, deriv=True)
        m = np.arange(-L, L + 1)
        shape = (1, 2 * L + 1) + (1,) * len(sym.fast_shape)
        c_phi = sym.coeffs * (1j * m).reshape(shape)
        f_ph = self._synth(c_phi, deriv=False)
        f_ph /= np.sin(self.theta).reshape((-1, 1) + (1,) * len(sym.fast_shape))
        return f_th, f_ph

    def analyze(self, samples: np.ndarray, L: int) -> SphereSymbol:
        """Project grid samples onto Y_lm for l <= L (and |m| <= M)."""
        samples = np.asarray(samples, dtype=complex)
        g = np.fft.fft(samples.reshape(self.n_theta, self.n_phi, -1), axis=1)
        g *= self.w_theta[:, None, None]
        mm = self._mmax(L)
        T = self._tab(L)[0][: L + 1, : mm + 1].transpose(1, 0, 2)  # [m, l, theta]
        coeffs = np.zeros((L + 1, 2 * L + 1, g.shape[-1]), dtype=complex)
        cf = coeffs.view(float).transpose(1, 0, 2)
        m = np.arange(mm + 1)
        gf = g.view(float)
        np.matmul(T, gf[:, m % self.n_phi].transpose(1, 0, 2), out=cf[L : L + mm + 1])
        np.matmul(T[1:], gf[:, -m[1:] % self.n_phi].transpose(1, 0, 2), out=cf[L - mm : L][::-1])
        coeffs[:, L - mm : L][:, ::-2] *= -1  # P_l,-m = (-1)^m P_lm
        return SphereSymbol(coeffs.reshape((L + 1, 2 * L + 1) + samples.shape[2:]))


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
    """Pointwise product, matrix multiplication on trailing axes if present."""
    if a.ndim == 2 and b.ndim == 2:
        return a * b
    if a.ndim == 2:
        return a[..., None, None] * b
    if b.ndim == 2:
        return a * b[..., None, None]
    return a @ b


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


def vector_symbol_coeffs(L: int = 1) -> list[SphereSymbol]:
    """The scalar symbols n_1, n_2, n_3 (unit-vector components)."""
    r = sqrt(2 * pi / 3)
    c = np.zeros((3, L + 1, 2 * L + 1), dtype=complex)
    c[0, 1, [L - 1, L + 1]] = r, -r
    c[1, 1, [L - 1, L + 1]] = 1j * r
    c[2, 1, L] = sqrt(4 * pi / 3)
    return [SphereSymbol(ci) for ci in c]


def _ylm(L: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Y_lm at points (theta, phi), shape (L+1, 2L+1, n_points)."""
    m = np.arange(-L, L + 1)
    sign = np.where(m < 0, (-1.0) ** m, 1.0)[:, None]
    return sign * _legendre(L, np.cos(theta), L)[:, abs(m)] * np.exp(1j * np.outer(m, phi))


def synthesize_at(sym: SphereSymbol, theta, phi):
    """Evaluate a symbol at arbitrary points (vectorized, off-grid)."""
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    return np.einsum("lmx,lm...->x...", _ylm(sym.L, theta, phi), sym.coeffs)
