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
Clebsch-Gordan factor <j j; l 0 | j j> (`_per_l` by `_lower_scale`).

An operator has one layout here: its offset diagonals indexed by row, a
(2K + 1, d) + fast array whose entry [K + a, r] is the matrix element
(r, r + a).  quantize_diagonals and dequantize_diagonals map a symbol to
that array and back, one matrix product per offset with the rows l <= L of
its own block Q[|a|] of the tensor basis, a real product on a float view
of the complex band.  quantize_diagonals trims the array to the largest
offset K the symbol carries, dequantize_diagonals returns a symbol of
width min(K, L) for an array of 2K + 1 offsets (an operator on offsets
|a| <= K has no tensor component at |m| > K), and neither map builds the
block of an offset with no content.  The dense quantize and dequantize
are a scatter and a gather of that array; dequantize takes a scalar d x d
operator, and an operator on H_slow (x) H_fast enters as its diagonals
(the model's Hamiltonian as `model.hamiltonian_diagonals`).  The kernel
sampled on a grid is, per offset, a theta-profile on that offset's rows.  On a grid with more
than 2L phi nodes every phi sum of two kernels pairs offset a with -a, so
the kernel checks build and integrate the profiles one offset pair at a
time, never all at once, and store no trace over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from random import Random

import numpy as np

from .spin import SpinIrrep, offset_block, rotation_from_zyz, wigner_zyz
from .sphere import Grid, SphereSymbol, _legendre

__all__ = [
    "SWKernel",
    "quantize",
    "quantize_diagonals",
    "dequantize",
    "dequantize_diagonals",
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

    def at(self, theta, phi) -> np.ndarray:
        """Dense kernel matrices Delta(n) at points (theta, phi) of one shape:
        the result has that shape followed by (d, d).  It is filled offset by
        offset: diagonal a at a point is e^{-i a phi} times profile a there."""
        shape, phi, d = np.shape(theta), np.ravel(phi), self.d
        P = _legendre(self.L, np.cos(np.ravel(theta)), self.L)
        out = np.zeros((len(phi), d, d), dtype=complex)
        for a in range(-self.L, self.L + 1):
            r = np.arange(d)[_span(d, a)]
            out[:, r, r + a] = np.exp(-1j * a * phi)[:, None] * _profile(self, P, a)[:, r]
        return out.reshape(shape + (d, d))

    def samples(self, grid: Grid) -> np.ndarray:
        """The stacked theta-profiles (2L + 1, n_theta, d), one `_profile` per offset, row-indexed:
        offset a at node (theta_t, phi_p) is e^{-i a phi_p} [L + a, t].  No command calls it."""
        P = grid._tab(self.L)[0]
        return np.stack([_profile(self, P, a) for a in range(-self.L, self.L + 1)])


def _profile(kernel: SWKernel, P: np.ndarray, a: int) -> np.ndarray:
    """theta-profile (n_theta, d) of offset a from a Legendre table P[l, m, t], l, m <= L,
    at cos(theta_t): g_m = sqrt(4 pi / d) P[m:L+1, m]^T Q[m], m = |a|, on the rows of
    offset a and zero on the others, with no sign for a < 0: the (-1)^m of
    conj(Y_lm) = (-1)^m Y_{l,-m} cancels the (-1)^m of T_{l,-m} = (-1)^m T_lm^T."""
    d, L, m = kernel.d, kernel.L, abs(a)
    g = np.zeros((P.shape[2], d))
    g[:, _span(d, a)] = sqrt(4 * pi / d) * (P[m : L + 1, m].T @ kernel.block(m))
    return g


def _sign(m: int) -> int:
    """Sign of T_lm relative to row l - |m| of Q[|m|]: T_{l,-m} = (-1)^m T_lm^T."""
    return (-1) ** m if m < 0 else 1


def _span(d: int, m: int) -> slice:
    """Rows r of the offset-m diagonal, those whose element (r, r + m) is in the matrix."""
    return slice(max(0, -m), d - max(0, m))


def _floats(z: np.ndarray) -> np.ndarray:
    """Rows of z, (n,) + rest complex, as an (n, 2 * rest) float view (a copy
    only if z is strided), so that a real block multiplies it in one real
    matmul instead of being copied to complex."""
    return np.ascontiguousarray(z, dtype=complex).reshape(len(z), -1).view(float)


def quantize_diagonals(sym: SphereSymbol, kernel: SWKernel) -> np.ndarray:
    """Offset diagonals of quantize(sym, kernel) indexed by row, shape
    (2K + 1, d) + the fast shape: entry [K + a, r] is the slow matrix
    element (r, r + a), zero where r + a leaves the matrix.

    K is the largest offset |a| <= min(L_kernel, M_sym) whose coefficient
    column M_sym + a is not all zero.  An offset with no content is left
    zero and builds no block; each other one is a single real product with
    the rows of Q[|a|], so a symbol of band limit L and width M costs
    O(d L M) whatever the kernel.
    """
    d, L, W, fast = kernel.d, min(sym.L, kernel.L), sym.M, sym.fast_shape
    cols = {a: sym.coeffs[abs(a) : L + 1, W + a] for a in range(-min(L, W), min(L, W) + 1)}
    cols = {a: b for a, b in cols.items() if np.any(b)}
    K = max(map(abs, cols), default=0)
    out = np.zeros((2 * K + 1, d) + fast, dtype=complex)
    pref = sqrt(d / (4 * pi))
    for a, b in cols.items():
        diag = kernel.block(a)[: L + 1 - abs(a)].T @ _floats(b)
        out[K + a, _span(d, a)] = ((_sign(a) * pref) * diag).view(complex).reshape((d - abs(a),) + fast)
    return out


def dequantize_diagonals(C: np.ndarray, kernel: SWKernel) -> SphereSymbol:
    """Band-L symbol of the operator whose offset diagonals, laid out as
    quantize_diagonals returns them, are C, for any number 2K + 1 of
    offsets: its tensor components l <= L, at width min(K, L).  Offsets
    past L are projected out, and an all-zero diagonal builds no block."""
    d, L, K, fast = kernel.d, kernel.L, len(C) // 2, C.shape[2:]
    W = min(K, L)
    coeffs = np.zeros((L + 1, 2 * W + 1) + fast, dtype=complex)
    pref = sqrt(4 * pi / d)
    for m in range(-W, W + 1):
        band = C[K + m, _span(d, m)]
        if np.any(band):
            b = kernel.block(m) @ _floats(band)
            coeffs[abs(m) :, W + m] = ((_sign(m) * pref) * b).view(complex).reshape((L + 1 - abs(m),) + fast)
    return SphereSymbol(coeffs)


def _scatter(D: np.ndarray) -> np.ndarray:
    """The matrix whose row-indexed diagonals are D: (d, d) for D of shape
    (2K + 1, d), and (d k, d k) on H_slow (x) H_fast for (2K + 1, d, k, k)."""
    K, d = len(D) // 2, D.shape[1]
    A = np.zeros((d, d) + D.shape[2:], dtype=D.dtype)
    for a in range(-K, K + 1):
        i = np.arange(d)[_span(d, a)]
        A[i, i + a] = D[K + a, _span(d, a)]
    return A.transpose(0, 2, 1, 3).reshape(d * D.shape[2], -1) if D.ndim > 2 else A


def _gather(A: np.ndarray, K: int) -> np.ndarray:
    """Row-indexed diagonals |a| <= K, (2K + 1, d) + rest, of a (d, d) + rest matrix."""
    d = A.shape[0]
    D = np.zeros((2 * K + 1,) + A.shape[1:], dtype=A.dtype)
    for a in range(-K, K + 1):
        i = np.arange(d)[_span(d, a)]
        D[K + a, _span(d, a)] = A[i, i + a]
    return D


def quantize(sym: SphereSymbol, kernel: SWKernel) -> np.ndarray:
    """Operator of a symbol, the scatter of its diagonals; components with
    l > L are projected out (for the full kernel those with l > 2j, which
    no operator has).

    Scalar symbols give a d x d matrix; k x k matrix-valued symbols give a
    (d k) x (d k) matrix on H_slow (x) H_fast.
    """
    return _scatter(quantize_diagonals(sym, kernel))


def dequantize(A: np.ndarray, kernel: SWKernel) -> SphereSymbol:
    """Band-L symbol of a d x d operator, the gather of its diagonals: its
    tensor components l <= L.  With the full kernel, L = 2j, this is the
    inverse of quantize."""
    return dequantize_diagonals(_gather(np.asarray(A, dtype=complex), kernel.L), kernel)


def _lower_scale(two_j: int) -> np.ndarray:
    """r_l = <j j; l 0 | j j>, the lower-symbol shrink factor per l.

    r_0 = 1 and r_l / r_{l-1} = sqrt((2j - l + 1) / (2j + l + 1)).
    """
    l = np.arange(1, two_j + 1)
    return np.sqrt(np.cumprod(np.concatenate([[1.0], (two_j - l + 1) / (two_j + l + 1)])))


def _per_l(sym: SphereSymbol, w: np.ndarray) -> SphereSymbol:
    """sym with its coefficient row l scaled by w[l]."""
    return SphereSymbol(sym.coeffs * w[: sym.L + 1].reshape((-1, 1) + (1,) * len(sym.fast_shape)))


def _uniform(rnd: Random, shape) -> np.ndarray:
    """Floats uniform in [-1, 1), 53 bits each, from the Mersenne Twister `rnd`:
    the kernel checks' test inputs, drawn without loading numpy.random."""
    bits = np.frombuffer(rnd.randbytes(8 * int(np.prod(shape))), "<u8") >> 11
    return (bits * 2.0**-52 - 1).reshape(shape)


def kernel_property_residuals(kernel: SWKernel, grid: Grid):
    """Numerical residuals of the five defining kernel properties.

    Returns a dict with keys 'hermitian', 'normalized', 'reproducing',
    'trace_duality', 'covariant' (at 20 random group elements).  The
    integrals are over products of two kernels, of degree 2 two_j and phi
    frequency up to 2 two_j, so a grid that cannot integrate those exactly
    is refused with ValueError.  On the grids accepted, the node sum of
    e^{-i k phi} is n_phi for k = 0 and 0 for every other |k| <= 2L; the
    quadratures take those values in closed form, so every phi sum pairs
    offset a with offset -a.  They are one pass over the offset pairs
    (m, -m) in the row-indexed layout, which builds each offset's
    theta-profile once and integrates it at once.  A dense kernel is formed
    only at the 21 covariance points, whose residual is taken one rotation
    at a time.  The random inputs come from `_uniform` with a fixed seed.
    """
    d, L, pref = kernel.d, kernel.L, kernel.d / (4 * pi)
    if grid.L_exact < 2 * kernel.two_j or grid.n_phi <= 2 * kernel.two_j:
        raise ValueError(
            f"a grid exact to degree {grid.L_exact} with {grid.n_phi} phi nodes cannot integrate "
            f"products of two kernels at two_j = {kernel.two_j}; it needs L_exact >= {2 * kernel.two_j} "
            f"and n_phi >= {2 * kernel.two_j + 1}"
        )
    rnd = Random(7)
    P, w = grid._tab(L)[0], grid.n_phi * grid.w_theta  # w: the weight of a theta node, phi summed
    # reproducing targets at three nodes (t, p): the kernel there, diagonal a (d, 3) from profile a
    ts, ps = [0, grid.n_theta // 2, grid.n_theta - 1], [0, grid.n_phi // 3, 1]

    def target(a, g):
        return g[ts].T * np.exp(-1j * a * grid.phi[ps])

    # 20 random hermitian pairs (A_i, B_i), drawn one operator at a time in the order A_0, B_0, A_1, ...
    A, B = np.empty((d, d, 20), dtype=complex), np.empty((d, d, 20), dtype=complex)
    for k in range(40):
        Y = _uniform(rnd, (d, d)) + 1j * _uniform(rnd, (d, d))
        (B if k % 2 else A)[..., k // 2] = Y + Y.conj().T
    del Y
    lhs = np.einsum("ijk,jik->k", A, B)  # tr(A B)
    # f_X(t, p) = tr(Delta X) = sum_a e^{-i a phi_p} c_a(t), c_a = profile a . diagonal a of X^T,
    # so sum_p f_X f_Y = n_phi sum_a c_a^X c_{-a}^Y.  c[a] (n_theta, 43) holds c_a of the three
    # targets, the B's and the A's (real profiles times the float view of the complex diagonals)
    herm = mean = rec = 0.0
    fab = np.zeros(20, dtype=complex)  # int f_A f_B
    for m in range(L + 1):
        g = {a: _profile(kernel, P, a) for a in dict.fromkeys((m, -m))}
        # profile -m against the conjugate of profile m
        herm = max(herm, np.max(np.abs(g[-m][:, _span(d, -m)] - g[m][:, _span(d, m)].conj())))
        c = {}
        for a in g:
            # diagonal a of X^T at row r is X[r + a, r]; a target's rows r + a past the
            # matrix wrap around onto rows that are zero in its diagonal -a
            r, X = np.arange(d)[_span(d, a)], np.zeros((d, 43), dtype=complex)
            X[:, :3] = target(-a, g[-a])[(np.arange(d) + a) % d]
            X[r, 3:23], X[r, 23:] = B[r + a, r], A[r + a, r]
            c[a] = (g[a] @ X.view(float)).view(complex)
        for a in g:
            # diagonal a of int f_T Delta = sum_t w_t c_{-a}^T(t) profile a
            got = (g[a].T @ (w[:, None] * c[-a][:, :3]).view(float)).view(complex)
            rec = max(rec, np.max(np.abs(pref * got - target(a, g[a]))))
            fab += w @ (c[a][:, 23:] * c[-a][:, 3:23])
        if m == 0:  # diagonal a of int Delta is sum_t w_t profile a at a = 0, and 0 at a != 0
            mean = np.max(np.abs(pref * (w @ g[0]) - 1))
    del A, B  # the covariance step comes on top of neither
    res = {"hermitian": float(herm), "normalized": float(mean), "reproducing": float(rec)}
    # the worst pair's error over the largest |tr(A B)|, so a small trace magnifies no round-off
    res["trace_duality"] = float(np.max(np.abs(lhs - pref * fab)) / np.max(np.abs(lhs)))
    # covariance over random group elements: the kernel at n0 and its 20 rotated images
    theta0, phi0 = 1.1, 0.4
    n0 = np.array([np.sin(theta0) * np.cos(phi0), np.sin(theta0) * np.sin(phi0), np.cos(theta0)])
    ang = pi * (_uniform(rnd, (20, 3)) + 1)
    n1 = (rotation_from_zyz(*ang.T) @ n0).T
    D = kernel.at(np.r_[theta0, np.arccos(np.clip(n1[2], -1, 1))], np.r_[phi0, np.arctan2(n1[1], n1[0])])
    cov = 0.0
    for k, angles in enumerate(ang, 1):
        U = wigner_zyz(kernel.irrep, *angles)
        cov = max(cov, np.max(np.abs(U @ D[0] @ U.conj().T - D[k])))
    res["covariant"] = float(cov)
    return res
