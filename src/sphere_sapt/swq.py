"""Operator-kernel quantization on the sphere.

The kernel Delta(n) = sqrt(4 pi / d) sum_{l <= 2j, |m| <= l} conj(Y_lm(n)) T_lm
turns band-limited functions into operators and back.  In coefficient space
both maps are diagonal in the tensor-operator basis:

    quantize:    A = sqrt(d / 4 pi) sum b_lm T_lm
    dequantize:  b_lm = sqrt(4 pi / d) tr(T_lm^dagger A)

which makes the round trips exact.  Matrix-valued (fast-sector) symbols
quantize entrywise: the result acts on H_slow (x) H_fast as kron(T, b).
Coherent-state lower symbols are a further diagonal rescaling by the
Clebsch-Gordan factor <j j; l 0 | j j>.  With the tensor basis stored as one
orthogonal matrix Q[m] per band offset, each transform is one matrix product
per m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .spin import SpinIrrep, tensor_basis
from .sphere import Grid, SphereSymbol, ylm_at

__all__ = [
    "SWKernel",
    "quantize",
    "dequantize",
    "lower_symbol",
    "kernel_property_residuals",
]


@dataclass(frozen=True)
class SWKernel:
    """Quantization kernel for one spin irrep."""

    irrep: SpinIrrep

    @property
    def two_j(self) -> int:
        return self.irrep.two_j

    @property
    def d(self) -> int:
        return self.irrep.d

    def at(self, theta: float, phi: float) -> np.ndarray:
        """Dense kernel matrix Delta(n) at a single point."""
        L = self.two_j
        Yc = ylm_at(L, theta, phi).conj()
        Q = tensor_basis(L).Q
        out = np.zeros((self.d, self.d), dtype=complex)
        for m in range(-L, L + 1):
            r, c, sign = _band(self.d, m)
            out[r, c] = sign * (Q[abs(m)].T @ Yc[abs(m) :, L + m])
        return sqrt(4 * pi / self.d) * out

    def samples(self, grid: Grid) -> np.ndarray:
        """Kernel at every grid node, shape (n_theta, n_phi, d, d)."""
        d = self.d
        L = self.two_j
        Q = tensor_basis(L).Q
        c = np.zeros((L + 1, 2 * L + 1, d, d), complex)
        pref = sqrt(4 * pi / d)
        for m in range(-L, L + 1):
            r, cols, sign = _band(d, m)
            # conj(Y_lm) = (-1)^m Y_{l,-m}
            c[abs(m) :, L - m][:, r, cols] = (-1) ** m * sign * pref * Q[abs(m)]
        return grid.synthesize(SphereSymbol(c))


def _band(d: int, m: int):
    """Row and column indices of the offset-m diagonal, and the sign of
    T_lm relative to row l - |m| of Q[|m|]."""
    r = np.arange(d - abs(m)) + max(0, -m)
    return r, r + m, (-1) ** m if m < 0 else 1


def quantize(sym: SphereSymbol, kernel: SWKernel) -> np.ndarray:
    """Operator of a symbol; components with l > 2j are projected out.

    Scalar symbols give a d x d matrix; k x k matrix-valued symbols give a
    (d k) x (d k) matrix on H_slow (x) H_fast.
    """
    L = min(sym.L, kernel.two_j)
    d = kernel.d
    Q = tensor_basis(kernel.two_j).Q
    fast = sym.fast_shape
    k = fast[0] if fast else 1
    A = np.zeros((d, d, k * k), dtype=complex)
    Loff = sym.L
    pref = sqrt(d / (4 * pi))
    for m in range(-L, L + 1):
        am = abs(m)
        r, c, sign = _band(d, m)
        b = sym.coeffs[am : L + 1, Loff + m].reshape(L + 1 - am, k * k)
        A[r, c] = (sign * pref) * (Q[am][: L + 1 - am].T @ b)
    out = A.reshape(d, d, k, k).transpose(0, 2, 1, 3).reshape(d * k, d * k)
    return out if fast else out.reshape(d, d)


def dequantize(A: np.ndarray, kernel: SWKernel, fast_dim: int | None = None) -> SphereSymbol:
    """Symbol of an operator; inverse of quantize on band limit 2j.

    If fast_dim is given, A acts on H_slow (x) H_fast and the symbol is
    fast_dim x fast_dim matrix-valued (partial trace over the slow sector
    against the kernel).
    """
    d = kernel.d
    k = fast_dim or 1
    A4 = np.asarray(A, dtype=complex).reshape(d, k, d, k)
    L = kernel.two_j
    Q = tensor_basis(L).Q
    coeffs = np.zeros((L + 1, 2 * L + 1, k * k), dtype=complex)
    pref = sqrt(4 * pi / d)
    for m in range(-L, L + 1):
        r, c, sign = _band(d, m)
        band = A4[r, :, c, :].reshape(d - abs(m), k * k)
        coeffs[abs(m) :, L + m] = (sign * pref) * (Q[abs(m)] @ band)
    shape = (L + 1, 2 * L + 1) + ((k, k) if fast_dim else ())
    return SphereSymbol(coeffs.reshape(shape))


@lru_cache(maxsize=None)
def _lower_scale(two_j: int) -> np.ndarray:
    """r_l = <j j; l 0 | j j>, the lower-symbol shrink factor per l.

    r_0 = 1 and r_l / r_{l-1} = sqrt((2j - l + 1) / (2j + l + 1)).
    """
    l = np.arange(1, two_j + 1)
    return np.sqrt(np.cumprod(np.concatenate([[1.0], (two_j - l + 1) / (two_j + l + 1)])))


def lower_symbol(A: np.ndarray, irrep: SpinIrrep, fast_dim: int | None = None) -> SphereSymbol:
    """Coherent-state diagonal expectation n -> <zeta_n| A |zeta_n>."""
    kernel = SWKernel(irrep)
    sym = dequantize(A, kernel, fast_dim=fast_dim)
    r = _lower_scale(irrep.two_j)
    shape = (irrep.two_j + 1, 1) + (1,) * (sym.coeffs.ndim - 2)
    return SphereSymbol(sym.coeffs * r.reshape(shape))


def raise_lower_symbol(sym: SphereSymbol, irrep: SpinIrrep) -> np.ndarray:
    """Unique operator with the given lower symbol (inverse of lower_symbol).

    Requires the symbol to be in the range of the lower-symbol map
    (band limit <= 2j).
    """
    if sym.L > irrep.two_j:
        if np.max(np.abs(sym.coeffs[irrep.two_j + 1 :])) > 1e-12:
            raise ValueError("symbol has components with l > 2j; not a lower symbol")
        sym = sym.truncated(irrep.two_j)
    sym = sym.truncated(irrep.two_j)
    r = _lower_scale(irrep.two_j)
    shape = (irrep.two_j + 1, 1) + (1,) * (sym.coeffs.ndim - 2)
    scaled = SphereSymbol(sym.coeffs / r.reshape(shape))
    return quantize(scaled, SWKernel(irrep))


def kernel_property_residuals(kernel: SWKernel, grid: Grid, n_group: int = 20, seed: int = 7):
    """Numerical residuals of the five defining kernel properties.

    Returns a dict with keys 'hermitian', 'normalized', 'reproducing',
    'trace_duality', 'covariant'.
    """
    from .spin import rotation_from_zyz, wigner_zyz

    d = kernel.d
    rng = np.random.default_rng(seed)
    samp = kernel.samples(grid)
    res = {}
    res["hermitian"] = float(np.max(np.abs(samp - samp.conj().swapaxes(-1, -2))))
    mean = (d / (4 * pi)) * grid.integrate_samples(samp)
    res["normalized"] = float(np.max(np.abs(mean - np.eye(d))))

    # reproducing property at a few nodes
    worst = 0.0
    wt = grid.w_theta
    for it, ip in [(0, 0), (grid.n_theta // 2, grid.n_phi // 3), (grid.n_theta - 1, 1)]:
        target = samp[it, ip]
        overlap = np.einsum("tpab,ba->tp", samp, target)  # tr(Delta(m) Delta(n))
        rec = (d / (4 * pi)) * np.einsum("tp,t,tpab->ab", overlap, wt, samp)
        worst = max(worst, float(np.max(np.abs(rec - target))))
    res["reproducing"] = worst

    # trace duality on random hermitian pairs
    worst = 0.0
    for _ in range(20):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = A + A.conj().T
        B = B + B.conj().T
        fa = np.einsum("tpab,ba->tp", samp, A)
        fb = np.einsum("tpab,ba->tp", samp, B)
        lhs = np.trace(A @ B)
        rhs = (d / (4 * pi)) * grid.integrate_samples(fa * fb)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    res["trace_duality"] = float(worst)

    # covariance over random group elements
    worst = 0.0
    theta0, phi0 = 1.1, 0.4
    delta0 = kernel.at(theta0, phi0)
    n0 = np.array(
        [np.sin(theta0) * np.cos(phi0), np.sin(theta0) * np.sin(phi0), np.cos(theta0)]
    )
    for _ in range(n_group):
        ang = rng.uniform(0, 2 * pi, size=3)
        U = wigner_zyz(kernel.irrep, *ang)
        R = rotation_from_zyz(*ang)
        n1 = R @ n0
        th1 = np.arccos(np.clip(n1[2], -1, 1))
        ph1 = np.arctan2(n1[1], n1[0])
        worst = max(
            worst,
            float(np.max(np.abs(U @ delta0 @ U.conj().T - kernel.at(th1, ph1)))),
        )
    res["covariant"] = worst
    return res
