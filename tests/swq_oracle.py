"""Dense-operator oracles of the quantization kernel for the tests.

kernel_samples: Delta(n) = sqrt(4 pi / d) sum_lm conj(Y_lm(n)) T_lm is built as one matrix
valued symbol, a dense (2j+1, 4j+1, d, d) coefficient array, and sampled
with `Grid.synthesize`.  The package evaluates the kernel one theta row at a
time from its band diagonals; the tests compare both.

raise_lower_symbol: the d x d operator with a given lower symbol; the
package's coherent-state product divides by the lower-symbol factor on the
operator diagonals instead.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np

from sphere_sapt.sphere import SphereSymbol
from sphere_sapt.spin import tensor_basis
from sphere_sapt.swq import _lower_scale, _sign, quantize


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
