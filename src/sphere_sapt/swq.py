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
from .sphere import Grid, SphereSymbol, _legendre

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
        P = _legendre(self.two_j, np.array([np.cos(theta)]), self.two_j)
        return next(_rows(self.two_j, P, np.array([phi])))[0]

    def samples(self, grid: Grid):
        """Kernel at the grid nodes, yielded one theta row (n_phi, d, d) at a time."""
        return _rows(self.two_j, grid._tab(self.two_j)[0], grid.phi)


def _rows(two_j: int, P: np.ndarray, phi: np.ndarray):
    """Delta at the nodes (theta_t, phi_p) one row t at a time, from a
    Legendre table P[l, m, t] (l, m <= 2j at least) at cos(theta_t).

    Diagonal m of Delta is e^{-i m phi} g_|m|(theta), g_m = sqrt(4 pi / d)
    P[m:, m]^T Q[m].  No sign is needed for m < 0: the (-1)^m of conj(Y_lm)
    = (-1)^m Y_{l,-m} cancels the (-1)^m of T_{l,-m} = (-1)^m T_lm^T.
    """
    d = two_j + 1
    Q = tensor_basis(two_j).Q
    g = [sqrt(4 * pi / d) * (P[m:d, m].T @ Q[m]) for m in range(d)]  # (n_theta, d - m)
    m = np.arange(-two_j, d)
    phase = np.exp(-1j * np.outer(phi, m))  # (n_phi, 2j + 1)
    for t in range(P.shape[2]):
        row = np.zeros((len(phi), d * d), dtype=complex)
        for k, mk in enumerate(m):
            # diagonal mk of the flat d x d layout: start (0, mk) or (|mk|, 0), step d + 1
            diag = row[:, (mk if mk >= 0 else -mk * d) :: d + 1][:, : d - abs(mk)]
            np.multiply(phase[:, k, None], g[abs(mk)][t], out=diag)
        yield row.reshape(len(phi), d, d)


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
    r = _lower_scale(irrep.two_j)[: sym.L + 1]
    shape = (sym.L + 1, 1) + (1,) * (sym.coeffs.ndim - 2)
    return quantize(SphereSymbol(sym.coeffs / r.reshape(shape)), SWKernel(irrep))


def kernel_property_residuals(kernel: SWKernel, grid: Grid, n_group: int = 20):
    """Numerical residuals of the five defining kernel properties.

    Returns a dict with keys 'hermitian', 'normalized', 'reproducing',
    'trace_duality', 'covariant'.  The integrals are over products of two
    kernels, of degree 2 two_j and phi frequency up to 2 two_j, so a grid
    that cannot integrate those exactly is refused with ValueError.
    """
    from .spin import rotation_from_zyz, wigner_zyz

    d = kernel.d
    if grid.L_exact < 2 * kernel.two_j or grid.n_phi <= 2 * kernel.two_j:
        raise ValueError(
            f"a grid exact to degree {grid.L_exact} with {grid.n_phi} phi nodes cannot integrate "
            f"products of two kernels at two_j = {kernel.two_j}; it needs L_exact >= {2 * kernel.two_j} "
            f"and n_phi >= {2 * kernel.two_j + 1}"
        )
    rng = np.random.default_rng(7)
    # reproducing targets at three nodes; 20 random hermitian pairs (AB[2i], AB[2i + 1])
    nodes = [(0, 0), (grid.n_theta // 2, grid.n_phi // 3), (grid.n_theta - 1, 1)]
    targets = [kernel.at(grid.theta[it], grid.phi[ip]) for it, ip in nodes]
    draws = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(40))
    AB = [X + X.conj().T for X in draws]
    # f_X(n) = tr(Delta(n) X) for every X at once: row2d @ M, M[:, i] = X_i^T flattened
    M = np.stack([X.T.ravel() for X in targets + AB], axis=1)

    # one pass over the theta rows: integrals are w_theta-weighted sums over phi
    herm = 0.0
    mean = np.zeros(d * d, dtype=complex)
    rec = np.zeros((3, d * d), dtype=complex)  # int tr(Delta(m) Delta(n)) Delta(m) dm
    fab = np.zeros(20, dtype=complex)  # int f_A f_B
    for w, row in zip(grid.w_theta, kernel.samples(grid)):
        herm = max(herm, float(np.max(np.abs(row - row.conj().swapaxes(-1, -2)))))
        row2d = row.reshape(grid.n_phi, d * d)
        mean += w * row2d.sum(axis=0)
        F = row2d @ M
        rec += (w * F[:, :3]).T @ row2d
        fab += w * np.sum(F[:, 3::2] * F[:, 4::2], axis=0)
    pref = d / (4 * pi)
    res = {"hermitian": herm}
    res["normalized"] = float(np.max(np.abs(pref * mean.reshape(d, d) - np.eye(d))))
    res["reproducing"] = max(float(np.max(np.abs(pref * r.reshape(d, d) - T))) for r, T in zip(rec, targets))
    lhs = [np.trace(A @ B) for A, B in zip(AB[::2], AB[1::2])]
    res["trace_duality"] = float(max(abs(a - pref * b) / max(1.0, abs(a)) for a, b in zip(lhs, fab)))

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
