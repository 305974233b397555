"""Chern numbers of the principal bands.

The band bundle over the sphere is spanned by psi_m(n) = u0(n)^dagger e_m
with u0 the ZYZ reference unitary of the model.  Its Chern number is 0 for
lam < 1/2 and -2m above, jumping as the coupling crosses 1/2; both
functions refuse the closing itself through ModelParams.require_gap.  A
gauge-invariant plaquette method on the frames provides an exactly integer
cross-check.
"""

from __future__ import annotations

from math import pi

import numpy as np

from .model import ModelParams, principal_bands

__all__ = [
    "chern_analytic",
    "chern_plaquette",
]


def chern_analytic(params: ModelParams, m: float) -> int:
    """Chern number of band m: 0 for lam < 1/2, -2m for lam > 1/2."""
    params.require_gap()
    return int(round(-2 * float(m))) if params.topological else 0


def chern_plaquette(params: ModelParams, m: float, n: int) -> int:
    """Lattice Chern number from plaquette phases of the band frames, on n
    theta links and n phi nodes.

    Includes the pole rows; any pointwise frame gauge gives the same
    integer.  Raises where the model has no gap (ModelParams.require_gap).
    """
    params.require_gap()
    theta = np.linspace(0.0, pi, n + 1)
    phi = 2 * pi * np.arange(n) / n
    th2, ph2 = np.meshgrid(theta, phi, indexing="ij")
    bd = principal_bands(params, th2, ph2, m)
    psi = bd.frame  # (n + 1, n, d_s)

    def link(a, b):
        z = np.sum(a.conj() * b, axis=-1)
        return z / np.abs(z)

    u_phi = link(psi, np.roll(psi, -1, axis=1))  # (theta rows, phi)
    u_theta = link(psi[:-1], psi[1:])  # (theta links, phi)
    plaq = (
        u_phi[:-1]
        * u_theta[:, (np.arange(n) + 1) % n]
        / (u_phi[1:] * u_theta)
    )
    total = float(np.sum(np.angle(plaq))) / (2 * pi)
    c = int(round(total))
    if abs(total - c) > 1e-8:
        raise ArithmeticError(f"plaquette sum {total} not an integer")
    return c
