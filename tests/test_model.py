"""The coupled two-spin model: Hamiltonian, symbols, bands, and gap.

The package's Hamiltonian is its three slow offset diagonals; each check of
an operator identity reads the independent dense H of model_oracle."""

import numpy as np
import pytest
from model_oracle import (
    dense_hamiltonian,
    exact_symbol_field,
    gap_profile,
    lower_hamiltonian_symbol_field,
    principal_symbol_field,
    tilt_derivative,
)
from swq_oracle import lower_symbol

from sphere_sapt import cli, model
from sphere_sapt.berry import chern_analytic
from sphere_sapt.model import (
    ModelParams,
    band_index,
    build_hamiltonian,
    gap_N,
    hamiltonian_diagonals,
    principal_bands,
    reference_unitary_field,
    tilt_angles,
)
from sphere_sapt.sapt import exact_band_projection
from sphere_sapt.sphere import make_grid
from sphere_sapt.swq import SWKernel, quantize


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 1, 0.5)
    with pytest.raises(ValueError):
        ModelParams(4, 1, 1.5)
    with pytest.raises(ValueError, match="two_s must be >= 0"):
        ModelParams(4, -1, 0.5)


def test_decoupled_limit_spectrum():
    # lam = 0: H = 1 (x) S3, spectrum is m_s with multiplicity d_j
    p = ModelParams(4, 1, 0.0)
    w = np.linalg.eigvalsh(dense_hamiltonian(p))
    want = np.repeat([-0.5, 0.5], p.d_j)
    assert np.max(np.abs(np.sort(w) - want)) < 1e-13


def test_pure_coupling_multiplet_spectrum():
    # lam = 1, two_j = 2, s = 1/2: (2/d) J.S couples to j +/- 1/2 multiplets
    # with eigenvalues {1/3 (x4), -2/3 (x2)}
    p = ModelParams(2, 1, 1.0)
    w = np.sort(np.linalg.eigvalsh(dense_hamiltonian(p)))
    want = np.array([-2 / 3, -2 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
    assert np.max(np.abs(w - want)) < 1e-13


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.8, 1.0])
@pytest.mark.parametrize("two_j", [3, 7])
def test_exact_symbol_identity(lam, two_j):
    # dequantizing the Hamiltonian gives exactly
    # (1-lam) S3 + lam sqrt(1 - d^-2) n.S, and quantizing that returns H
    p = ModelParams(two_j, 1, lam)
    grid = make_grid(2 * two_j)
    sym = grid.analyze(exact_symbol_field(p, grid), 1)
    H = quantize(sym, SWKernel(p.slow))
    assert np.max(np.abs(H - dense_hamiltonian(p))) < 1e-10


@pytest.mark.parametrize("lam", [0.2, 0.8])
def test_lower_symbol_identity(lam):
    # the coherent-state symbol carries the factor (1 - 1/d) instead
    p = ModelParams(5, 1, lam)
    grid = make_grid(2 * p.two_j)
    sym = lower_symbol(dense_hamiltonian(p), SWKernel(p.slow), fast_dim=p.d_s)
    got = grid.synthesize(sym.truncated(1))
    want = lower_hamiltonian_symbol_field(p, grid)
    assert np.max(np.abs(got - want)) < 1e-10


SIZES = [(two_s, two_j) for two_s in (1, 2, 3) for two_j in (two_s + 1, 10, 80)]


def _scatter_error(params) -> float:
    """Largest entry of the scatter of H's diagonals minus the kron-built H."""
    return float(np.max(np.abs(build_hamiltonian(params) - dense_hamiltonian(params))))


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.8, 1.0])
@pytest.mark.parametrize("two_s, two_j", SIZES)
def test_hamiltonian_diagonals_scatter_to_the_dense_hamiltonian(two_s, two_j, lam):
    p = ModelParams(two_j, two_s, lam)
    assert hamiltonian_diagonals(p).shape == (3, p.d_j, p.d_s, p.d_s)
    assert _scatter_error(p) < 1e-15


def _ladder_one_low(params):
    # the offset +1 amplitude of row r taken one index low, sqrt(r (2j - r + 1)):
    # offset -1's amplitude at row r, carried by S- instead of S+
    D = hamiltonian_diagonals(params)
    D[2, :-1] = D[0, :-1].swapaxes(-1, -2)
    return D


@pytest.mark.parametrize(
    "perturbed",
    [_ladder_one_low, lambda params: hamiltonian_diagonals(params)[::-1]],
    ids=["ladder-one-index-low", "offsets-swapped"],
)
def test_perturbed_diagonals_fail_the_oracle_and_kernel_check(perturbed, tmp_path, monkeypatch):
    # build_hamiltonian scatters model's binding, kernel-check reads cli's
    monkeypatch.setattr(model, "hamiltonian_diagonals", perturbed)
    monkeypatch.setattr(cli, "hamiltonian_diagonals", perturbed)
    for two_s, two_j in SIZES:
        for lam in (0.2, 0.8, 1.0):
            assert _scatter_error(ModelParams(two_j, two_s, lam)) > 1e-3, (two_s, two_j, lam)
    assert cli.main(["kernel-check", "--out", str(tmp_path)]) == 1
    rows = [r.split(",") for r in (tmp_path / "kernel-check.csv").read_text().splitlines()[1:]]
    got = {int(t): float(v) for t, prop, v in rows if prop == "model_symbol_identity"}
    assert sorted(got) == [1, 2, 3, 5, 10, 20] and min(v for t, v in got.items() if t > 1) > 1e-10, got


def test_gap_profile_endpoints_and_minimum():
    for lam in (0.0, 0.05, 0.45, 0.5, 0.55, 0.95, 1.0):
        assert abs(gap_N(0.0, lam) - 1.0) < 1e-12
        assert abs(gap_N(np.pi, lam) - abs(1 - 2 * lam)) < 1e-12
    _, _, mn = gap_profile(0.5)
    assert mn < 1e-8


@pytest.mark.parametrize("lam", [0.5] + [0.5 + s * 10.0**-k for k in range(1, 14) for s in (1, -1)])
def test_gap_at_the_south_pole_is_exact(lam):
    # N^2 = (1 - 2 lam)^2 + 2 lam (1 - lam)(1 + cos theta) has no cancellation at
    # theta = pi; the expanded form lam^2 + (1 - lam)^2 + 2 lam (1 - lam) cos theta
    # read 0.0 there for |lam - 1/2| <= 1e-9 and was 5% off at 1e-8
    assert gap_N(np.pi, lam) == abs(1 - 2 * lam)


def test_one_gap_rule():
    for lam in (0.5, 0.5 + 9e-13, 0.5 - 9e-13):
        with pytest.raises(ValueError, match="no spectral gap within 1e-12 of the closing lam = 1/2"):
            ModelParams(4, 1, lam).require_gap()
    for lam in (0.0, 0.5 + 1e-11, 0.5 - 1e-11, 1.0):
        ModelParams(4, 1, lam).require_gap()


def test_one_closing_side(monkeypatch):
    # berry's Chern number and sapt's edge label read the side of the closing
    # from ModelParams.topological alone: flipping it flips both
    assert [ModelParams(4, 1, lam).topological for lam in (0.0, 0.49, 0.5, 0.51, 1.0)] == [False, False, True, True, True]
    p = ModelParams(4, 1, 0.2)
    assert (chern_analytic(p, 0.5), len(exact_band_projection(p)[0.5])) == (0, p.d_j)
    monkeypatch.setattr(ModelParams, "topological", property(lambda self: self.lam < 0.5))
    assert (chern_analytic(p, 0.5), len(exact_band_projection(p)[0.5])) == (-1, p.d_j + 1)


def test_tilt_angle_derivative_fd():
    theta = np.linspace(0.1, np.pi - 0.1, 40)
    h = 1e-6
    for lam in (0.2, 0.8):
        ct, st = tilt_angles(theta, lam)
        assert np.max(np.abs(ct**2 + st**2 - 1)) < 1e-12
        tp = np.arctan2(st, ct)
        ctp, stp = tilt_angles(theta + h, lam)
        tph = np.arctan2(stp, ctp)
        fd = (tph - tp) / h
        assert np.max(np.abs(fd - tilt_derivative(theta, lam))) < 1e-5


def test_reference_unitary_diagonalizes_principal_symbol():
    grid = make_grid(16)
    th = grid.theta[:, None] + 0 * grid.phi[None, :]
    ph = 0 * grid.theta[:, None] + grid.phi[None, :]
    for two_s in (1, 2):
        p = ModelParams(8, two_s, 0.3)
        u0 = reference_unitary_field(p, th, ph)
        H0 = principal_symbol_field(p, grid)
        mv = p.fast.j - np.arange(p.d_s)
        N = gap_N(th, p.lam)
        want = np.zeros_like(H0)
        for i, m in enumerate(mv):
            want[..., i, i] = N * m
        got = np.einsum("...ab,...bc,...dc->...ad", u0, H0, u0.conj())
        assert np.max(np.abs(got - want)) < 1e-12


def test_principal_bands_frames_and_projectors():
    p = ModelParams(6, 1, 0.8)
    th = np.linspace(0.05, np.pi - 0.05, 9)
    ph = np.linspace(0, 2 * np.pi, 9)
    bd = principal_bands(p, th, ph, 0.5)
    S = p.fast.Jvec
    n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    H0 = (1 - p.lam) * np.asarray(S[2]) + p.lam * np.einsum("ax,aij->xij", n, np.asarray(S))
    # frame is a unit eigenvector with eigenvalue E_m
    Hpsi = np.einsum("xij,xj->xi", H0, bd.frame)
    assert np.max(np.abs(Hpsi - 0.5 * gap_N(th, p.lam)[:, None] * bd.frame)) < 1e-12
    norms = np.einsum("xi,xi->x", bd.frame.conj(), bd.frame).real
    assert np.max(np.abs(norms - 1)) < 1e-12
    P2 = np.einsum("xij,xjk->xik", bd.projector, bd.projector)
    assert np.max(np.abs(P2 - bd.projector)) < 1e-12


def test_band_label_validation():
    p = ModelParams(4, 1, 0.2)
    with pytest.raises(ValueError):
        principal_bands(p, np.array([1.0]), np.array([0.0]), 1.5)


@pytest.mark.parametrize("two_s, m, want", [(1, 0.5, 0), (1, -0.5, 1), (2, 1, 0), (2, 0.0, 1), (3, -1.5, 3)])
def test_band_index_of_valid_labels(two_s, m, want):
    assert band_index(two_s, m) == want


@pytest.mark.parametrize("m", [0.7, 0.5 + 1e-12, 5.0, -1.5, 0.0, float("nan"), float("inf")])
def test_band_index_rejects_other_labels(m):
    # no rounding to the nearest label: 0.7 must not become 0.5
    with pytest.raises(ValueError):
        band_index(1, m)
    with pytest.raises(ValueError):
        principal_bands(ModelParams(4, 1, 0.2), np.array([1.0]), np.array([0.0]), m)
