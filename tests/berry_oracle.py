"""Closed-form Berry connection and curvature of the reference gauge, as an
oracle for the tests.

In the gauge psi_m = u0^dagger e_m the connection has A_theta = 0 and an
A_phi that depends only on the tilted polar angle theta'; the curvature
integrates to the Chern number that `berry.chern_plaquette` counts.
"""

from __future__ import annotations

import numpy as np
from model_oracle import tilt_derivative

from sphere_sapt.model import ModelParams, tilt_angles


def berry_connection(params: ModelParams, m: float, theta):
    """(A_theta, A_phi) of band m in the reference gauge.

    A_theta = 0 identically; A_phi(theta) = -m (1 - cos theta') with theta'
    the tilted polar angle.  A_phi here multiplies d phi (not normalized by
    sin theta).
    """
    theta = np.asarray(theta, dtype=float)
    ct, _ = tilt_angles(theta, params.lam)
    return np.zeros_like(theta), -float(m) * (1.0 - ct)


def berry_curvature(params: ModelParams, m: float, theta):
    """F_theta_phi(theta) = d A_phi / d theta = -m sin(theta') theta''."""
    theta = np.asarray(theta, dtype=float)
    _, st = tilt_angles(theta, params.lam)
    return -float(m) * st * tilt_derivative(theta, params.lam)
