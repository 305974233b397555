"""Kernel samples through the band-limited synthesis, as an oracle for the tests.

Delta(n) = sqrt(4 pi / d) sum_lm conj(Y_lm(n)) T_lm is built as one matrix
valued symbol, a dense (2j+1, 4j+1, d, d) coefficient array, and sampled
with `Grid.synthesize`.  The package evaluates the kernel one theta row at a
time from its band diagonals; the tests compare both.
"""

from __future__ import annotations

from math import pi, sqrt

import numpy as np

from sphere_sapt.sphere import SphereSymbol
from sphere_sapt.spin import tensor_basis
from sphere_sapt.swq import _band, _sign


def kernel_samples(kernel, grid) -> np.ndarray:
    """Kernel at every grid node, shape (n_theta, n_phi, d, d)."""
    d = kernel.d
    L = kernel.two_j
    Q = tensor_basis(L).Q
    c = np.zeros((L + 1, 2 * L + 1, d, d), complex)
    pref = sqrt(4 * pi / d)
    for m in range(-L, L + 1):
        r, cols = _band(d, m)
        # conj(Y_lm) = (-1)^m Y_{l,-m}
        c[abs(m) :, L - m][:, r, cols] = (-1) ** m * _sign(m) * pref * Q[abs(m)]
    return grid.synthesize(SphereSymbol(c))
