"""Operator-kernel quantization on the sphere.

The kernel Delta(n) = sqrt(4 pi / d) sum_{l <= 2j, |m| <= l} conj(Y_lm(n)) T_lm
turns band-limited functions into operators and back.  Cut at l <= L it is
the band-L kernel, which reads only the rows l <= L of the tensor basis: it
quantizes symbols of band limit <= L exactly, and dequantizes any operator
to its components l <= L.  In coefficient space both maps are diagonal in
the tensor-operator basis:

    quantize:    A = sqrt(d / 4 pi) sum b_lm T_lm
    dequantize:  b_lm = sqrt(4 pi / d) tr(T_lm^dagger A)

which makes the round trips exact.  Matrix-valued (fast-sector) symbols
quantize entrywise: the result acts on H_slow (x) H_fast as kron(T, b).
Coherent-state lower symbols are a further diagonal rescaling by the
Clebsch-Gordan factor <j j; l 0 | j j>.  With the tensor basis stored as one
matrix Q[m] per band offset, each transform is one matrix product per m.
quantize and dequantize scatter and gather dense matrices (the kernel
checks); quantize_diagonal and dequantize_diagonal map one offset diagonal
alone, from the rows of its own block Q[|m|], which is all the exact star
products and the sapt sweeps read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .spin import SpinIrrep, band_basis, offset_block, tensor_basis
from .sphere import Grid, SphereSymbol, _legendre

__all__ = [
    "SWKernel",
    "quantize",
    "quantize_diagonal",
    "dequantize",
    "dequantize_diagonal",
    "lower_symbol",
    "kernel_property_residuals",
]


@dataclass(frozen=True)
class SWKernel:
    """Quantization kernel of one spin irrep, cut at band limit L.

    L defaults to 2j, the full kernel, and is capped there: no tensor
    operator has l > 2j.
    """

    irrep: SpinIrrep
    L: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "L", self.two_j if self.L is None else min(self.L, self.two_j))

    @property
    def Q(self) -> tuple:
        """Rows l <= L of the tensor basis, one matrix per offset m <= L.

        The full kernel's rows come through tensor_basis, the one full-basis
        entry point (the one the per-layer spans of bench/spans.py time).
        """
        return (tensor_basis(self.two_j) if self.L == self.two_j else band_basis(self.two_j, self.L)).Q

    def block(self, m: int) -> np.ndarray:
        """Rows l <= L of Q[|m|] alone, built without the other offsets."""
        return offset_block(self.two_j, abs(m), self.L)

    @property
    def two_j(self) -> int:
        return self.irrep.two_j

    @property
    def d(self) -> int:
        return self.irrep.d

    def at(self, theta: float, phi: float) -> np.ndarray:
        """Dense kernel matrix Delta(n) at a single point."""
        P = _legendre(self.L, np.array([np.cos(theta)]), self.L)
        return next(_rows(self, P, np.array([phi])))[0]

    def samples(self, grid: Grid):
        """Kernel at the grid nodes, yielded one theta row (n_phi, d, d) at a time."""
        return _rows(self, grid._tab(self.L)[0], grid.phi)


def _rows(kernel: SWKernel, P: np.ndarray, phi: np.ndarray):
    """The kernel at the nodes (theta_t, phi_p) one row t at a time, from a
    Legendre table P[l, m, t] (l, m <= L at least) at cos(theta_t).

    Diagonal m of Delta is e^{-i m phi} g_|m|(theta), g_m = sqrt(4 pi / d)
    P[m:L+1, m]^T Q[m].  No sign is needed for m < 0: the (-1)^m of conj(Y_lm)
    = (-1)^m Y_{l,-m} cancels the (-1)^m of T_{l,-m} = (-1)^m T_lm^T.
    """
    d, L, Q = kernel.d, kernel.L, kernel.Q
    g = [sqrt(4 * pi / d) * (P[m : L + 1, m].T @ Q[m]) for m in range(L + 1)]  # (n_theta, d - m)
    m = np.arange(-L, L + 1)
    phase = np.exp(-1j * np.outer(phi, m))  # (n_phi, 2L + 1)
    for t in range(P.shape[2]):
        row = np.zeros((len(phi), d * d), dtype=complex)
        for k, mk in enumerate(m):
            # diagonal mk of the flat d x d layout: start (0, mk) or (|mk|, 0), step d + 1
            diag = row[:, (mk if mk >= 0 else -mk * d) :: d + 1][:, : d - abs(mk)]
            np.multiply(phase[:, k, None], g[abs(mk)][t], out=diag)
        yield row.reshape(len(phi), d, d)


def _band(d: int, m: int):
    """Row and column indices of the offset-m diagonal."""
    r = np.arange(d - abs(m)) + max(0, -m)
    return r, r + m


def _sign(m: int) -> int:
    """Sign of T_lm relative to row l - |m| of Q[|m|]: T_{l,-m} = (-1)^m T_lm^T."""
    return (-1) ** m if m < 0 else 1


def _diagonal(sym: SphereSymbol, Qm: np.ndarray, m: int, L: int, pref: float) -> np.ndarray:
    """Offset-m diagonal of the band-L operator of sym from the rows Qm of
    Q[|m|], as (d - |m|, k*k); pref = sqrt(d / 4 pi)."""
    am = abs(m)
    b = sym.coeffs[am : L + 1, sym.L + m].reshape(L + 1 - am, -1)
    return (_sign(m) * pref) * (Qm[: L + 1 - am].T @ b)


def quantize_diagonal(sym: SphereSymbol, kernel: SWKernel, m: int) -> np.ndarray:
    """Offset-m diagonal of quantize(sym, kernel): entry i is the slow
    matrix element (r_i, r_i + m), r_i = i + max(0, -m), shape
    (d - |m|,) + the fast shape.  Reads rows of Q[|m|] only."""
    L, d, am = min(sym.L, kernel.L), kernel.d, abs(m)
    if am > L:
        return np.zeros((d - am,) + sym.fast_shape, dtype=complex)
    return _diagonal(sym, kernel.block(m), m, L, sqrt(d / (4 * pi))).reshape((d - am,) + sym.fast_shape)


def quantize(sym: SphereSymbol, kernel: SWKernel) -> np.ndarray:
    """Operator of a symbol, the scatter of its diagonals; components with
    l > L are projected out (for the full kernel those with l > 2j, which
    no operator has).

    Scalar symbols give a d x d matrix; k x k matrix-valued symbols give a
    (d k) x (d k) matrix on H_slow (x) H_fast.
    """
    L = min(sym.L, kernel.L)
    d = kernel.d
    Q = kernel.Q
    fast = sym.fast_shape
    k = fast[0] if fast else 1
    A = np.zeros((d, d, k * k), dtype=complex)
    pref = sqrt(d / (4 * pi))
    for m in range(-L, L + 1):
        r, c = _band(d, m)
        A[r, c] = _diagonal(sym, Q[abs(m)], m, L, pref)
    out = A.reshape(d, d, k, k).transpose(0, 2, 1, 3).reshape(d * k, d * k)
    return out if fast else out.reshape(d, d)


def dequantize_diagonal(diag: np.ndarray, kernel: SWKernel, m: int) -> np.ndarray:
    """Coefficients b_lm, |m| <= l <= L, of an operator whose offset-m
    diagonal is diag (laid out as quantize_diagonal returns it); shape
    (L + 1 - |m|,) + the fast shape.  dequantize does the same per offset."""
    d, am = kernel.d, abs(m)
    band = np.asarray(diag).reshape(d - am, -1)
    coeffs = (_sign(m) * sqrt(4 * pi / d)) * (kernel.block(m) @ band)
    return coeffs.reshape((kernel.L + 1 - am,) + np.shape(diag)[1:])


def dequantize(A: np.ndarray, kernel: SWKernel, fast_dim: int | None = None) -> SphereSymbol:
    """Band-L symbol of an operator, gathered from its diagonals: its tensor
    components l <= L.

    With the full kernel, L = 2j, this is the inverse of quantize.  If
    fast_dim is given, A acts on H_slow (x) H_fast and the symbol is
    fast_dim x fast_dim matrix-valued (partial trace over the slow sector
    against the kernel).
    """
    d = kernel.d
    k = fast_dim or 1
    A4 = np.asarray(A, dtype=complex).reshape(d, k, d, k)
    L = kernel.L
    Q = kernel.Q
    coeffs = np.zeros((L + 1, 2 * L + 1, k * k), dtype=complex)
    pref = sqrt(4 * pi / d)
    for m in range(-L, L + 1):
        r, c = _band(d, m)
        band = A4[r, :, c, :].reshape(d - abs(m), k * k)
        coeffs[abs(m) :, L + m] = (_sign(m) * pref) * (Q[abs(m)] @ band)
    shape = (L + 1, 2 * L + 1) + ((k, k) if fast_dim else ())
    return SphereSymbol(coeffs.reshape(shape))


@lru_cache(maxsize=None)
def _lower_scale(two_j: int) -> np.ndarray:
    """r_l = <j j; l 0 | j j>, the lower-symbol shrink factor per l.

    r_0 = 1 and r_l / r_{l-1} = sqrt((2j - l + 1) / (2j + l + 1)).
    """
    l = np.arange(1, two_j + 1)
    return np.sqrt(np.cumprod(np.concatenate([[1.0], (two_j - l + 1) / (two_j + l + 1)])))


def lower_symbol(A: np.ndarray, kernel: SWKernel, fast_dim: int | None = None) -> SphereSymbol:
    """Coherent-state diagonal expectation n -> <zeta_n| A |zeta_n>, to band
    limit L of the kernel."""
    return _per_l(dequantize(A, kernel, fast_dim=fast_dim), _lower_scale(kernel.two_j))


def _per_l(sym: SphereSymbol, w: np.ndarray) -> SphereSymbol:
    """sym with its coefficient row l scaled by w[l]."""
    return SphereSymbol(sym.coeffs * w[: sym.L + 1].reshape((-1, 1) + (1,) * len(sym.fast_shape)))


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
