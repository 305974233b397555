"""Dense-operator oracles of the quantization kernel for the tests.

kernel_samples: Delta(n) = sqrt(4 pi / d) sum_lm conj(Y_lm(n)) T_lm is built as one matrix
valued symbol, a dense (2j+1, 4j+1, d, d) coefficient array, and sampled
with `Grid.synthesize`.  The package stacks the kernel's per-offset
theta-profiles (`SWKernel.samples`); the tests compare both.

raise_lower_symbol: the d x d operator with a given lower symbol; the
package's coherent-state product divides by the lower-symbol factor on the
operator diagonals instead.

partial_dequantize and lower_symbol: the symbol and the coherent-state lower
symbol of a dense operator on H_slow (x) H_fast, matrix valued (the partial
trace over the slow sector against the kernel), or of a scalar one.  The
package dequantizes dense scalar operators alone; the model's Hamiltonian
enters it as its offset diagonals.

kernel_property_residuals: the five kernel properties from dense d x d
kernel samples, scattered one theta row at a time (kernel_rows) and
integrated with one (n_phi x d^2) (d^2 x 43) product per row.  The package
integrates the same quadrature in the row-indexed diagonal layout and never
forms a dense sample on the grid.
"""

from __future__ import annotations

from math import pi, sqrt
from random import Random

import numpy as np

from sphere_sapt.sphere import Grid, SphereSymbol, _legendre
from sphere_sapt.spin import rotation_from_zyz, tensor_basis, wigner_zyz
from sphere_sapt.swq import _gather, _lower_scale, _per_l, _sign, _uniform, dequantize_diagonals, quantize


def kernel_samples(kernel, grid) -> np.ndarray:
    """Kernel at every grid node, shape (n_theta, n_phi, d, d)."""
    d = kernel.d
    L = kernel.two_j
    Q = tensor_basis(L)
    c = np.zeros((L + 1, 2 * L + 1, d, d), complex)
    pref = sqrt(4 * pi / d)
    for m in range(-L, L + 1):
        r = np.arange(max(0, -m), d - max(0, m))
        cols = r + m
        # conj(Y_lm) = (-1)^m Y_{l,-m}
        c[abs(m) :, L - m][:, r, cols] = (-1) ** m * _sign(m) * pref * Q[abs(m)]
    return grid.synthesize(SphereSymbol(c))


def partial_dequantize(A: np.ndarray, kernel, fast_dim: int | None = None) -> SphereSymbol:
    """Band-L symbol of A, fast_dim x fast_dim matrix valued if fast_dim is
    given (A acts on H_slow (x) H_fast), from the gather of A's slow diagonals."""
    d, k = kernel.d, fast_dim or 1
    A4 = np.asarray(A, dtype=complex).reshape(d, k, d, k).transpose(0, 2, 1, 3)
    return dequantize_diagonals(_gather(A4 if fast_dim else A4[..., 0, 0], kernel.L), kernel)


def lower_symbol(A: np.ndarray, kernel, fast_dim: int | None = None) -> SphereSymbol:
    """Coherent-state diagonal expectation n -> <zeta_n| A |zeta_n>, to band
    limit L of the kernel."""
    return _per_l(partial_dequantize(A, kernel, fast_dim), _lower_scale(kernel.two_j))


def raise_lower_symbol(sym: SphereSymbol, kernel) -> np.ndarray:
    """Unique operator with the given lower symbol (inverse of lower_symbol).

    Requires the symbol to be in the range of the lower-symbol map
    (band limit <= 2j); components above the kernel's L are projected out.
    """
    two_j = kernel.two_j
    if sym.L > two_j:
        if np.max(np.abs(sym.coeffs[two_j + 1 :])) > 1e-12:
            raise ValueError("symbol has components with l > 2j; not a lower symbol")
        sym = sym.truncated(two_j)
    r = _lower_scale(two_j)[: sym.L + 1]
    shape = (sym.L + 1, 1) + (1,) * (sym.coeffs.ndim - 2)
    return quantize(SphereSymbol(sym.coeffs / r.reshape(shape)), kernel)


def kernel_rows(kernel, P: np.ndarray, phi: np.ndarray):
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


def kernel_at(kernel, theta: float, phi: float) -> np.ndarray:
    """Dense kernel matrix Delta(n) at a single point."""
    P = _legendre(kernel.L, np.array([np.cos(theta)]), kernel.L)
    return next(kernel_rows(kernel, P, np.array([phi])))[0]


def kernel_property_residuals(kernel, grid: Grid):
    """The five kernel residuals from dense samples, one theta row at a time."""
    d = kernel.d
    if grid.L_exact < 2 * kernel.two_j or grid.n_phi <= 2 * kernel.two_j:
        raise ValueError(f"a grid exact to degree {grid.L_exact} cannot integrate products of two kernels")
    rnd = Random(7)  # the package's stream: the 40 operators, then the 20 group elements
    # reproducing targets at three nodes; 20 random hermitian pairs (AB[2i], AB[2i + 1])
    nodes = [(0, 0), (grid.n_theta // 2, grid.n_phi // 3), (grid.n_theta - 1, 1)]
    targets = [kernel_at(kernel, grid.theta[it], grid.phi[ip]) for it, ip in nodes]
    draws = (_uniform(rnd, (d, d)) + 1j * _uniform(rnd, (d, d)) for _ in range(40))
    AB = [X + X.conj().T for X in draws]
    # f_X(n) = tr(Delta(n) X) for every X at once: row2d @ M, M[:, i] = X_i^T flattened
    M = np.stack([X.T.ravel() for X in targets + AB], axis=1)

    # one pass over the theta rows: integrals are w_theta-weighted sums over phi
    herm = 0.0
    mean = np.zeros(d * d, dtype=complex)
    rec = np.zeros((3, d * d), dtype=complex)  # int tr(Delta(m) Delta(n)) Delta(m) dm
    fab = np.zeros(20, dtype=complex)  # int f_A f_B
    for w, row in zip(grid.w_theta, kernel_rows(kernel, grid._tab(kernel.L)[0], grid.phi)):
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
    res["trace_duality"] = float(max(abs(a - pref * b) for a, b in zip(lhs, fab)) / max(map(abs, lhs)))

    # covariance over random group elements
    worst = 0.0
    theta0, phi0 = 1.1, 0.4
    delta0 = kernel_at(kernel, theta0, phi0)
    n0 = np.array(
        [np.sin(theta0) * np.cos(phi0), np.sin(theta0) * np.sin(phi0), np.cos(theta0)]
    )
    for _ in range(20):
        ang = pi * (_uniform(rnd, 3) + 1)
        U = wigner_zyz(kernel.irrep, *ang)
        R = rotation_from_zyz(*ang)
        n1 = R @ n0
        th1 = np.arccos(np.clip(n1[2], -1, 1))
        ph1 = np.arctan2(n1[1], n1[0])
        worst = max(
            worst,
            float(np.max(np.abs(U @ delta0 @ U.conj().T - kernel_at(kernel, th1, ph1)))),
        )
    res["covariant"] = worst
    return res
