"""Adiabatic connection, curvature, and lattice Chern numbers."""

import numpy as np
import pytest
from berry_oracle import berry_connection, berry_curvature

from sphere_sapt.berry import chern_analytic, chern_plaquette
from sphere_sapt.model import ModelParams, tilt_angles


def test_connection_closed_form():
    # A_phi = -m (1 - cos theta'), A_theta = 0
    p = ModelParams(6, 1, 0.8)
    th = np.linspace(0.05, np.pi - 0.05, 30)
    a_th, a_ph = berry_connection(p, 0.5, th)
    ct, _ = tilt_angles(th, p.lam)
    assert np.max(np.abs(a_th)) < 1e-13
    assert np.max(np.abs(a_ph + 0.5 * (1 - ct))) < 1e-12


def test_curvature_is_connection_curl():
    # F dtheta dphi with A_theta = 0: F = d(A_phi)/d(theta)
    p = ModelParams(6, 1, 0.3)
    th = np.linspace(0.1, np.pi - 0.1, 25)
    h = 1e-6
    for m in (0.5, -0.5):
        F = berry_curvature(p, m, th)
        _, ap_plus = berry_connection(p, m, th + h)
        _, ap_minus = berry_connection(p, m, th - h)
        fd = (ap_plus - ap_minus) / (2 * h)
        assert np.max(np.abs(F - fd)) < 1e-6


def test_curvature_integral_matches_chern():
    # (1/2pi) int F dtheta dphi over S^2 equals the Chern number
    for lam, m, want in [(0.2, 0.5, 0), (0.8, 0.5, -1), (0.8, -0.5, 1)]:
        p = ModelParams(6, 1, lam)
        th = np.linspace(0.0, np.pi, 20001)
        F = berry_curvature(p, m, th)
        integral = np.trapezoid(F, th) * 2 * np.pi
        assert abs(integral / (2 * np.pi) - want) < 1e-6


@pytest.mark.parametrize(
    "lam,m,want",
    [(0.2, 0.5, 0), (0.2, -0.5, 0), (0.8, 0.5, -1), (0.8, -0.5, 1)],
)
def test_chern_spin_half(lam, m, want):
    p = ModelParams(6, 1, lam)
    assert chern_analytic(p, m) == want
    assert chern_plaquette(p, m, 24) == want


@pytest.mark.parametrize("two_s", [2, 3])
def test_chern_higher_spin(two_s):
    p = ModelParams(8, two_s, 0.8)
    s = two_s / 2
    for k in range(two_s + 1):
        m = s - k
        want = int(round(-2 * m))
        assert chern_analytic(p, m) == want
        assert chern_plaquette(p, m, 30) == want


def test_chern_grid_refinement_stability():
    p = ModelParams(6, 1, 0.8)
    vals = {chern_plaquette(p, 0.5, n) for n in (16, 24, 40, 64)}
    assert vals == {-1}


def test_chern_undefined_at_transition():
    p = ModelParams(6, 1, 0.5)
    with pytest.raises(ValueError):
        chern_analytic(p, 0.5)
