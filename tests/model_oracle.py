"""The model's dense Hamiltonian, its symbols, the tilt-angle derivative and
the gap profile sampled on grids, as oracles for the tests.

The package keeps one representation of the Hamiltonian, its three slow
offset diagonals `model.hamiltonian_diagonals`; `dense_hamiltonian` builds
the 2d x 2d matrix as krons of the dense spin matrices instead.  It keeps
one representation of the Hamiltonian's symbol, the coefficients
`model.hamiltonian_symbol`; the fields here are sampled from their own node
normals, so a test comparing the two compares independent paths.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from sphere_sapt.model import ModelParams, gap_N
from sphere_sapt.sphere import Grid


def dense_hamiltonian(params: ModelParams) -> np.ndarray:
    """H = (1 - lam) 1 (x) S3 + lam (2/d) J.S on H_slow (x) H_fast, any fast spin."""
    J, S, lam = params.slow.Jvec, params.fast.Jvec, params.lam
    H = (1 - lam) * np.kron(np.eye(params.d_j), S[2])
    return H + lam * (2 / params.d_j) * sum(np.kron(J[a], S[a]) for a in range(3))


def node_normals(grid: Grid) -> np.ndarray:
    """Unit normals n(theta, phi) at the grid nodes, shape (3, n_theta, n_phi)."""
    th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


def symbol_field(params: ModelParams, grid: Grid, c: float) -> np.ndarray:
    """Samples of (1-lam) S3 + c n.S at the grid nodes."""
    S = np.asarray(params.fast.Jvec)
    return (1 - params.lam) * S[2][None, None] + c * np.einsum("atp,aij->tpij", node_normals(grid), S)


def principal_symbol_field(params: ModelParams, grid: Grid) -> np.ndarray:
    """H_0(n) = (1-lam) S3 + lam n.S sampled at the nodes."""
    return symbol_field(params, grid, params.lam)


def exact_symbol_field(params: ModelParams, grid: Grid) -> np.ndarray:
    """The Stratonovich-Weyl symbol (1-lam) S3 + lam sqrt(1-d^{-2}) n.S."""
    return symbol_field(params, grid, params.lam * sqrt(1 - params.d_j ** (-2)))


def lower_hamiltonian_symbol_field(params: ModelParams, grid: Grid) -> np.ndarray:
    """The coherent-state symbol (1-lam) S3 + lam (1 - 1/d) n.S."""
    return symbol_field(params, grid, params.lam * (1 - 1 / params.d_j))


def tilt_derivative(theta, lam: float):
    """d theta'/d theta of the tilted polar angle, lam (lam + (1-lam) cos theta) / N^2."""
    N = gap_N(theta, lam)
    return lam * (lam + (1 - lam) * np.cos(theta)) / np.where(N > 1e-300, N, 1.0) ** 2


def gap_profile(lam: float, n_theta: int = 181):
    """(theta grid, N values, min N over theta)."""
    theta = np.linspace(0.0, np.pi, n_theta)
    prof = gap_N(theta, lam)
    return theta, prof, float(prof.min())
