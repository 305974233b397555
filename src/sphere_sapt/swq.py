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
Clebsch-Gordan factor <j j; l 0 | j j>.

An operator has one layout here: its offset diagonals indexed by row, a
(2K + 1, d) + fast array whose entry [K + a, r] is the matrix element
(r, r + a).  quantize_diagonals and dequantize_diagonals map a symbol to
that array and back, one matrix product per offset with the rows l <= L of
its own block Q[|a|] of the tensor basis.  quantize_diagonals trims the
array to the largest offset K the symbol carries, and neither map builds
the block of an offset with no content.  The dense quantize and dequantize
(the kernel checks) are a scatter and a gather of that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .spin import SpinIrrep, offset_block
from .sphere import Grid, SphereSymbol, _legendre

__all__ = [
    "SWKernel",
    "quantize",
    "quantize_diagonals",
    "dequantize",
    "dequantize_diagonals",
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
    d, L = kernel.d, kernel.L
    g = [sqrt(4 * pi / d) * (P[m : L + 1, m].T @ kernel.block(m)) for m in range(L + 1)]  # (n_theta, d - m)
    m = np.arange(-L, L + 1)
    phase = np.exp(-1j * np.outer(phi, m))  # (n_phi, 2L + 1)
    for t in range(P.shape[2]):
        row = np.zeros((len(phi), d * d), dtype=complex)
        for k, mk in enumerate(m):
            # diagonal mk of the flat d x d layout: start (0, mk) or (|mk|, 0), step d + 1
            diag = row[:, (mk if mk >= 0 else -mk * d) :: d + 1][:, : d - abs(mk)]
            np.multiply(phase[:, k, None], g[abs(mk)][t], out=diag)
        yield row.reshape(len(phi), d, d)


def _sign(m: int) -> int:
    """Sign of T_lm relative to row l - |m| of Q[|m|]: T_{l,-m} = (-1)^m T_lm^T."""
    return (-1) ** m if m < 0 else 1


def _span(d: int, m: int) -> slice:
    """Rows r of the offset-m diagonal, those whose element (r, r + m) is in the matrix."""
    return slice(max(0, -m), d - max(0, m))


def quantize_diagonals(sym: SphereSymbol, kernel: SWKernel) -> np.ndarray:
    """Offset diagonals of quantize(sym, kernel) indexed by row, shape
    (2K + 1, d) + the fast shape: entry [K + a, r] is the slow matrix
    element (r, r + a), zero where r + a leaves the matrix.

    K is the largest offset |a| <= min(L_sym, L_kernel) whose coefficient
    column is not all zero.  An offset with no content is left zero and
    builds no block; each other one is a single product with the rows of
    Q[|a|], so a symbol of band limit L costs O(d L^2) whatever the kernel.
    """
    d, L, fast = kernel.d, min(sym.L, kernel.L), sym.fast_shape
    cols = {a: sym.coeffs[abs(a) : L + 1, sym.L + a].reshape(L + 1 - abs(a), -1) for a in range(-L, L + 1)}
    cols = {a: b for a, b in cols.items() if np.any(b)}
    K = max(map(abs, cols), default=0)
    out = np.zeros((2 * K + 1, d) + fast, dtype=complex)
    pref = sqrt(d / (4 * pi))
    for a, b in cols.items():
        diag = (_sign(a) * pref) * (kernel.block(a)[: L + 1 - abs(a)].T @ b)
        out[K + a, _span(d, a)] = diag.reshape((d - abs(a),) + fast)
    return out


def dequantize_diagonals(C: np.ndarray, kernel: SWKernel) -> SphereSymbol:
    """Band-L symbol of the operator whose offset diagonals, laid out as
    quantize_diagonals returns them, are C, for any number 2K + 1 of
    offsets: its tensor components l <= L.  Offsets past L are projected
    out, and an all-zero diagonal builds no block."""
    d, L, K, fast = kernel.d, kernel.L, len(C) // 2, C.shape[2:]
    coeffs = np.zeros((L + 1, 2 * L + 1) + fast, dtype=complex)
    pref = sqrt(4 * pi / d)
    for m in range(-min(K, L), min(K, L) + 1):
        band = C[K + m, _span(d, m)]
        if np.any(band):
            b = (_sign(m) * pref) * (kernel.block(m) @ band.reshape(d - abs(m), -1))
            coeffs[abs(m) :, L + m] = b.reshape((L + 1 - abs(m),) + fast)
    return SphereSymbol(coeffs)


def quantize(sym: SphereSymbol, kernel: SWKernel) -> np.ndarray:
    """Operator of a symbol, the scatter of its diagonals; components with
    l > L are projected out (for the full kernel those with l > 2j, which
    no operator has).

    Scalar symbols give a d x d matrix; k x k matrix-valued symbols give a
    (d k) x (d k) matrix on H_slow (x) H_fast.
    """
    D, d, fast = quantize_diagonals(sym, kernel), kernel.d, sym.fast_shape
    K, r = len(D) // 2, np.arange(d)
    A = np.zeros((d, d) + fast, dtype=complex)
    for a in range(-K, K + 1):
        i = r[_span(d, a)]
        A[i, i + a] = D[K + a, _span(d, a)]
    return A.transpose(0, 2, 1, 3).reshape(d * fast[0], d * fast[0]) if fast else A


def dequantize(A: np.ndarray, kernel: SWKernel, fast_dim: int | None = None) -> SphereSymbol:
    """Band-L symbol of an operator, the gather of its diagonals: its tensor
    components l <= L.

    With the full kernel, L = 2j, this is the inverse of quantize.  If
    fast_dim is given, A acts on H_slow (x) H_fast and the symbol is
    fast_dim x fast_dim matrix-valued (partial trace over the slow sector
    against the kernel).
    """
    d, L, k = kernel.d, kernel.L, fast_dim or 1
    A4 = np.asarray(A, dtype=complex).reshape(d, k, d, k)
    r = np.arange(d)
    D = np.zeros((2 * L + 1, d) + ((k, k) if fast_dim else ()), dtype=complex)
    for m in range(-L, L + 1):
        i = r[_span(d, m)]
        D[L + m, _span(d, m)] = A4[i, :, i + m, :].reshape((-1,) + D.shape[2:])
    return dequantize_diagonals(D, kernel)


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


def kernel_property_residuals(kernel: SWKernel, grid: Grid):
    """Numerical residuals of the five defining kernel properties.

    Returns a dict with keys 'hermitian', 'normalized', 'reproducing',
    'trace_duality', 'covariant' (at 20 random group elements).  The
    integrals are over products of two kernels, of degree 2 two_j and phi
    frequency up to 2 two_j, so a grid that cannot integrate those exactly
    is refused with ValueError.
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
    for _ in range(20):
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
