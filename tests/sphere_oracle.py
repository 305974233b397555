"""Dense spherical transforms as an oracle for the tests.

Associated Legendre tables by the (l, m) loop recurrence, and synthesis and
analysis with the phi sum as a dense DFT einsum over a folded table
Y[l, m+L, theta], always at the full width 2L+1: a coefficient array of
width M < L is zero-padded first (`full_width`).  The package does the phi step as an FFT and the theta
step as one matmul per m; the tests compare both against these.  Point
values of Y_lm and of a symbol anywhere on the sphere (the package samples
symbols only at grid nodes) and the quadrature sum of a symbol's samples
round it off.  The Gauss-Legendre rule to 30 digits, by Newton's method in
mpmath.
"""

from __future__ import annotations

from math import pi, sqrt

import mpmath
import numpy as np


def legendre_tables(L: int, x: np.ndarray):
    """P_lm(x) and d/dtheta P_lm(x), shape (L+1, L+1, len(x)), by loops."""
    nx = len(x)
    sx = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    P = np.zeros((L + 1, L + 1, nx))
    P[0, 0] = 1.0 / sqrt(4 * pi)
    for m in range(1, L + 1):
        P[m, m] = -sqrt((2 * m + 1) / (2 * m)) * sx * P[m - 1, m - 1]
    for m in range(0, L):
        P[m + 1, m] = sqrt(2 * m + 3) * x * P[m, m]
    for m in range(0, L + 1):
        for l in range(m + 2, L + 1):
            a = sqrt((4 * l * l - 1) / (l * l - m * m))
            b = sqrt((2 * l + 1) / (2 * l - 3) * ((l - 1) ** 2 - m * m) / (l * l - m * m))
            P[l, m] = a * x * P[l - 1, m] - b * P[l - 2, m]
    cot = np.divide(x, sx, out=np.zeros_like(x), where=sx > 0)
    dP = np.zeros_like(P)
    for m in range(0, L + 1):
        for l in range(m, L + 1):
            dP[l, m] = m * cot * P[l, m]
            if m + 1 <= l:
                dP[l, m] += sqrt((l - m) * (l + m + 1)) * P[l, m + 1]
    return P, dP


def full_width(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (L+1, 2M+1, *fast) of any width M <= L zero-padded to (L+1, 2L+1, *fast)."""
    L, M = coeffs.shape[0] - 1, coeffs.shape[1] // 2
    out = np.zeros((L + 1, 2 * L + 1) + coeffs.shape[2:], dtype=complex)
    out[:, L - M : L + M + 1] = coeffs
    return out


def _fold(grid, L: int, deriv: bool = False) -> np.ndarray:
    """Table Y[l, m+L, itheta] of P_l|m| with the sign for negative m."""
    T = legendre_tables(L, grid.x)[deriv]
    out = np.zeros((L + 1, 2 * L + 1, grid.n_theta))
    for m in range(-L, L + 1):
        am = abs(m)
        sign = (-1) ** m if m < 0 else 1
        out[am:, m + L] = sign * T[am:, am, :]
    return out


def _phase(grid, L: int) -> np.ndarray:
    return np.exp(1j * np.outer(np.arange(-L, L + 1), grid.phi))


def synthesize(grid, coeffs: np.ndarray, deriv: bool = False) -> np.ndarray:
    """Samples (n_theta, n_phi, *fast) of coefficients (L+1, 2M+1, *fast)."""
    coeffs = full_width(coeffs)
    L = coeffs.shape[0] - 1
    fm = np.einsum("lmt,lm...->mt...", _fold(grid, L, deriv), coeffs)
    return np.einsum("mt...,mp->tp...", fm, _phase(grid, L))


def synthesize_gradient(grid, coeffs: np.ndarray):
    """(d/dtheta, (1/sin theta) d/dphi) samples."""
    coeffs = full_width(coeffs)
    L = coeffs.shape[0] - 1
    f_th = synthesize(grid, coeffs, deriv=True)
    m = np.arange(-L, L + 1).reshape((1, -1) + (1,) * (coeffs.ndim - 2))
    f_ph = synthesize(grid, coeffs * 1j * m)
    return f_th, f_ph / np.sin(grid.theta).reshape((-1, 1) + (1,) * (coeffs.ndim - 2))


def analyze(grid, samples: np.ndarray, L: int) -> np.ndarray:
    """Coefficients (L+1, 2L+1, *fast) of samples (n_theta, n_phi, *fast)."""
    samples = np.asarray(samples, dtype=complex)
    gm = np.einsum("tp...,mp->mt...", samples, _phase(grid, L).conj())
    wt = grid.w_theta.reshape((1, -1) + (1,) * (samples.ndim - 2))
    return np.einsum("lmt,mt...->lm...", _fold(grid, L), gm * wt)


def _ylm(L: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Y_lm at points (theta, phi), shape (L+1, 2L+1, n_points), from the loop tables."""
    m = np.arange(-L, L + 1)
    sign = np.where(m < 0, (-1.0) ** m, 1.0)[:, None]
    return sign * legendre_tables(L, np.cos(theta))[0][:, abs(m)] * np.exp(1j * np.outer(m, phi))


def ylm_at(L: int, theta: float, phi: float) -> np.ndarray:
    """Dense Y_lm values at a single point, shape (L+1, 2L+1)."""
    return _ylm(L, np.array([theta]), np.array([phi]))[..., 0]


def synthesize_at(sym, theta, phi) -> np.ndarray:
    """A symbol's values at arbitrary points, shape (n_points, *fast)."""
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    return np.einsum("lmx,lm...->x...", _ylm(sym.L, theta, phi), full_width(sym.coeffs))


def integrate(grid, sym) -> complex:
    """Integral of a symbol over S^2 (total mass 4 pi) by the grid's quadrature."""
    samples = grid.synthesize(sym)
    wt = grid.w_theta.reshape((-1, 1) + (1,) * (samples.ndim - 2))
    return np.sum(samples * wt, axis=(0, 1))


def gauss_legendre(x: np.ndarray):
    """Nodes and weights (summing to 2) of the len(x)-point Gauss-Legendre rule
    to 30 digits, as mpf object arrays: Newton on the three-term recurrence
    in mpmath (40 digits, ten to spare), started from float nodes x."""
    n = len(x)
    nodes, weights = [], []
    with mpmath.workdps(40):
        for xi in x:
            t = mpmath.mpf(float(xi))
            for step in range(3):  # quadratic from ~1e-16: two steps reach the working precision
                p0, p1 = mpmath.mpf(1), t
                for l in range(1, n):
                    p0, p1 = p1, ((2 * l + 1) * t * p1 - l * p0) / (l + 1)
                dp = n * (t * p1 - p0) / (t * t - 1)  # dP_n/dx
                if step < 2:
                    t -= p1 / dp
            nodes.append(t)
            weights.append(2 / ((1 - t * t) * dp * dp))
    return np.array(nodes, dtype=object), np.array(weights, dtype=object)
