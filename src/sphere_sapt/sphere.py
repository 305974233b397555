"""Band-limited calculus on the two-sphere.

Gauss-Legendre x uniform-phi quadrature grids, complex orthonormal
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
    "gradient_bilinears",
    "integrate",
    "vector_symbol_coeffs",
    "ylm_at",
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


def _legendre_tables(L: int, x: np.ndarray):
    """Fully normalized associated Legendre P_lm(x) and d/dtheta tables.

    Returns (P, dP), each of shape (L+1, L+1, len(x)) indexed [l, m] for
    m >= 0.  Normalization: int P_lm(x)^2 dx dphi-factor = orthonormal
    spherical harmonics, i.e. Y_lm(theta, phi) = P_lm(cos theta) e^{i m phi}.
    The l-recurrence runs over every m at once, one numpy step per l.
    """
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))  # sin(theta) > 0 off poles
    P = np.zeros((L + 1, L + 1, len(x)))
    P[0, 0] = 1.0 / sqrt(4 * pi)
    for m in range(1, L + 1):
        P[m, m] = -sqrt((2 * m + 1) / (2 * m)) * sx * P[m - 1, m - 1]
    m = np.arange(L)
    P[m + 1, m] = np.sqrt(2 * m + 3)[:, None] * x * P[m, m]
    for l in range(2, L + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))[:, None]
        b = np.sqrt((2 * l + 1) / (2 * l - 3) * ((l - 1) ** 2 - m * m) / (l * l - m * m))[:, None]
        P[l, : l - 1] = a * x * P[l - 1, : l - 1] - b * P[l - 2, : l - 1]
    # d/dtheta P_lm = m cot(theta) P_lm + sqrt((l-m)(l+m+1)) P_{l,m+1}
    # pole nodes only ever consume P (quadrature grids exclude the poles),
    # so a finite stand-in for cot there keeps dP free of nans
    cot = np.divide(x, sx, out=np.zeros_like(x), where=sx > 0)
    l, m = np.ogrid[: L + 1, : L + 1]
    dP = m[..., None] * cot * P
    dP[:, :L] += np.sqrt(np.clip((l - m) * (l + m + 1), 0, None))[:, :L, None] * P[:, 1:]
    return P, dP


def _wrap_add(f: np.ndarray, fm: np.ndarray) -> None:
    """f[:, i mod n] += fm[i] for theta columns fm[i]; f has n columns."""
    n = f.shape[1]
    for k in range(0, len(fm), n):
        block = fm[k : k + n].transpose(1, 0, 2)
        f[:, : block.shape[1]] += block


class Grid:
    """Quadrature grid exact for spherical-harmonic products up to L_exact.

    Gauss-Legendre nodes in cos(theta) (never at the poles), uniform phi,
    weights summing to 4 pi.
    """

    def __init__(self, L_exact: int):
        self.L_exact = int(L_exact)
        n_theta = self.L_exact // 2 + 1
        x, wx = np.polynomial.legendre.leggauss(n_theta)
        order = np.argsort(-x)  # theta ascending
        self.x = x[order]
        self.theta = np.arccos(self.x)
        n_phi = self.L_exact + 1
        self.phi = 2 * pi * np.arange(n_phi) / n_phi
        self.w_theta = wx[order] * (2 * pi / n_phi)  # per-node weight, any phi
        self.n_theta = n_theta
        self.n_phi = n_phi
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- cached tables ------------------------------------------------------

    def _tab(self, L: int):
        for Lt, tab in self._tables.items():
            if Lt >= L:
                return tab
        tab = _legendre_tables(L, self.x)
        self._tables = {L: tab}
        return tab

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
        P, dP = self._tab(L)
        T = (dP if deriv else P)[: L + 1, : L + 1].transpose(1, 2, 0)  # [m, theta, l]
        c = np.ascontiguousarray(coeffs, dtype=complex).reshape(L + 1, 2 * L + 1, -1)
        cf = c.view(float).transpose(1, 0, 2)  # [m + L, l, re/im of fast]
        out = np.zeros((self.n_theta, self.n_phi, c.shape[-1]), dtype=complex)
        f = out.view(float)
        _wrap_add(f, T @ cf[L:])  # m = 0, 1, ..., L
        neg = T[1:] @ cf[:L][::-1]  # m = -1, -2, ..., -L
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
        """Project grid samples onto Y_lm for l <= L."""
        samples = np.asarray(samples, dtype=complex)
        g = np.fft.fft(samples.reshape(self.n_theta, self.n_phi, -1), axis=1)
        g *= self.w_theta[:, None, None]
        T = self._tab(L)[0][: L + 1, : L + 1].transpose(1, 0, 2)  # [m, l, theta]
        coeffs = np.zeros((L + 1, 2 * L + 1, g.shape[-1]), dtype=complex)
        cf = coeffs.view(float).transpose(1, 0, 2)
        m = np.arange(L + 1)
        gf = g.view(float)
        np.matmul(T, gf[:, m % self.n_phi].transpose(1, 0, 2), out=cf[L:])
        np.matmul(T[1:], gf[:, -m[1:] % self.n_phi].transpose(1, 0, 2), out=cf[:L][::-1])
        coeffs[:, :L][:, ::-2] *= -1  # P_l,-m = (-1)^m P_lm
        return SphereSymbol(coeffs.reshape((L + 1, 2 * L + 1) + samples.shape[2:]))

    def integrate_samples(self, samples: np.ndarray):
        """Integral over S^2 with the total-mass-4pi measure."""
        wt = self.w_theta.reshape((-1, 1) + (1,) * (np.ndim(samples) - 2))
        return np.sum(samples * wt, axis=(0, 1))


@lru_cache(maxsize=None)
def make_grid(L_exact: int) -> Grid:
    return Grid(L_exact)


def integrate(sym: SphereSymbol, grid: Grid):
    """Integral of a symbol; for band-limited input only the l=0 term counts."""
    return sym.coeffs[0, sym.L] * sqrt(4 * pi)


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


def gradient_bilinears(f: SphereSymbol, g: SphereSymbol, grid: Grid | None = None):
    """(grad f . grad g, n . (grad f x grad g)) as symbols at L_f + L_g.

    Factor order is preserved for matrix-valued symbols.
    """
    L_out = f.L + g.L
    if grid is None:
        grid = make_grid(2 * L_out)
    f_th, f_ph = grid.synthesize_gradient(f)
    g_th, g_ph = grid.synthesize_gradient(g)
    dot = _pointwise(f_th, g_th) + _pointwise(f_ph, g_ph)
    cross = _pointwise(f_th, g_ph) - _pointwise(f_ph, g_th)
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
    return sign * _legendre_tables(L, np.cos(theta))[0][:, abs(m)] * np.exp(1j * np.outer(m, phi))


def synthesize_at(sym: SphereSymbol, theta, phi):
    """Evaluate a symbol at arbitrary points (vectorized, off-grid)."""
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    return np.einsum("lmx,lm...->x...", _ylm(sym.L, theta, phi), sym.coeffs)


def ylm_at(L: int, theta: float, phi: float) -> np.ndarray:
    """Dense Y_lm values at a single point, shape (L+1, 2L+1)."""
    return _ylm(L, np.array([theta]), np.array([phi]))[..., 0]
