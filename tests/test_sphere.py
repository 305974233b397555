"""Spherical-harmonic transforms, quadrature, and gradient bilinears."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import sphere_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from model_oracle import node_normals

from sphere_sapt.spin import make_irrep
from sphere_sapt.sphere import (
    Grid,
    SphereSymbol,
    _gauss_legendre,
    _legendre,
    _theta_derivative,
    angular_square,
    gradient_bilinears,
    make_grid,
    vector_symbol_coeffs,
)
from sphere_sapt.star import _combine
from sphere_sapt.swq import SWKernel, quantize_diagonals


def _random_symbol(L, rng, fast=()):
    c = rng.normal(size=(L + 1, 2 * L + 1) + fast) + 1j * rng.normal(
        size=(L + 1, 2 * L + 1) + fast
    )
    for l in range(L + 1):
        c[l, : L - l] = 0
        c[l, L + l + 1 :] = 0
    return SphereSymbol(c)


@settings(max_examples=20, deadline=None)
@given(L=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_analyze_synthesize_roundtrip(L, seed):
    rng = np.random.default_rng(seed)
    sym = _random_symbol(L, rng)
    grid = make_grid(2 * L)
    back = grid.analyze(grid.synthesize(sym), L)
    assert np.max(np.abs(back.coeffs - sym.coeffs)) < 1e-12


def test_matrix_valued_roundtrip():
    rng = np.random.default_rng(3)
    sym = _random_symbol(4, rng, fast=(2, 2))
    grid = make_grid(8)
    back = grid.analyze(grid.synthesize(sym), 4)
    assert np.max(np.abs(back.coeffs - sym.coeffs)) < 1e-12


def test_quadrature_exactness():
    # the grid integrates Y_lm exactly: only Y_00 has nonzero mean
    grid = make_grid(12)
    for l, m in [(0, 0), (1, 0), (2, 1), (5, -3), (6, 6)]:
        c = np.zeros((l + 1, 2 * l + 1), dtype=complex)
        c[l, l + m] = 1.0
        val = oracle.integrate(grid, SphereSymbol(c))
        want = np.sqrt(4 * np.pi) if l == 0 else 0.0
        assert abs(val - want) < 1e-13


@lru_cache(maxsize=None)
def _exact_rule(n):
    return oracle.gauss_legendre(_gauss_legendre(n)[1])


def _rule_errors(x, w):
    """Largest absolute node error and relative weight error of an n-point
    rule (theta ascending, weights summing to 2) against the 30-digit one."""
    xo, wo = _exact_rule(len(x))
    return float(np.max(np.abs(x - xo))), float(np.max(np.abs(w / wo - 1)))


def _orthonormality(x, w_ring, L=320):
    """Largest entry of |G - 1|, G the Gram matrix of Y_l0, l <= L, under
    nodes x with ring weights w_ring (summing to 4 pi)."""
    P = _legendre(L, x, 0)[:, 0]
    return float(np.max(np.abs((P * w_ring) @ P.T - np.eye(L + 1))))


@pytest.mark.parametrize("n", [31, 161])
def test_gauss_legendre_rule_matches_a_30_digit_oracle(n):
    # nodes to theta's own rounding (half an ulp of theta ~ 2 is 2.2e-16 in x),
    # weights 30-300x closer than an eigenvalue-based rule's (see below)
    theta, x, w = _gauss_legendre(n)
    assert np.all(np.diff(theta) > 0) and np.array_equal(x, np.cos(theta))
    dx, dw = _rule_errors(x, w)
    assert dx < 2.5e-16 and dw < 2e-12


def test_legendre_table_is_orthonormal_on_grid_640():
    # the quadrature of the kernel checks at two_j = 320; 4.7e-14 with these weights
    grid = Grid(640)
    assert _orthonormality(grid.x, grid.n_phi * grid.w_theta) < 2e-13


def test_the_rule_gates_fail_for_an_eigenvalue_based_rule():
    # numpy's leggauss (Golub-Welsch) weights drift ~20x per doubling of n:
    # 1.5e-11 relative at n = 161, and 3.5e-12 off orthonormal at n = 321
    x, w = (a[::-1] for a in np.polynomial.legendre.leggauss(161))
    assert _rule_errors(x, w)[1] > 2e-12
    x, w = (a[::-1] for a in np.polynomial.legendre.leggauss(321))
    assert _orthonormality(x, 2 * np.pi * w) > 2e-13


def test_constant_symbol():
    grid = make_grid(4)
    samples = grid.synthesize(SphereSymbol.constant(2.5))
    assert np.max(np.abs(samples - 2.5)) < 1e-13


def test_vector_symbols_are_unit_normals():
    grid = make_grid(8)
    n = np.stack([grid.synthesize(s).real for s in vector_symbol_coeffs()])
    assert np.max(np.abs(n - node_normals(grid))) < 1e-13


def test_angular_square_eigenvalues():
    # the spherical Laplacian acts as -l(l+1) on degree-l harmonics
    for l, m in [(1, 0), (2, -2), (4, 3)]:
        c = np.zeros((l + 1, 2 * l + 1), dtype=complex)
        c[l, l + m] = 1.0
        sym = SphereSymbol(c)
        lap = angular_square(sym)
        assert np.max(np.abs(lap.coeffs + l * (l + 1) * sym.coeffs)) < 1e-13


def test_gradient_bilinears_height_function():
    # grad n3 . grad n3 = sin^2(theta) = 1 - n3^2
    n1, n2, n3 = vector_symbol_coeffs()
    grid = make_grid(16)
    dot, cross = gradient_bilinears(n3, n3)
    got = grid.synthesize(dot).real
    ct = np.cos(grid.theta)[:, None]
    assert np.max(np.abs(got - (1 - ct**2))) < 1e-12
    assert np.max(np.abs(cross.coeffs)) < 1e-13


def test_poisson_structure_of_coordinates():
    # n . (grad n_a x grad n_b) = eps_abc n_c
    syms = vector_symbol_coeffs()
    grid = make_grid(16)
    for a, b, c, sign in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (1, 0, 2, -1)]:
        _, cross = gradient_bilinears(syms[a], syms[b])
        got = grid.synthesize(cross).real
        want = sign * grid.synthesize(syms[c]).real
        assert np.max(np.abs(got - want)) < 1e-12


def test_synthesize_at_matches_grid():
    rng = np.random.default_rng(7)
    sym = _random_symbol(6, rng)
    grid = make_grid(12)
    on_grid = grid.synthesize(sym)
    th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    off = oracle.synthesize_at(sym, th.ravel(), ph.ravel()).reshape(th.shape)
    assert np.max(np.abs(off - on_grid)) < 1e-12


def test_synthesize_at_poles():
    # only m=0 harmonics contribute at the poles
    sym = vector_symbol_coeffs()[2]  # n3
    v = oracle.synthesize_at(sym, np.array([0.0, np.pi]), np.array([0.3, 1.1]))
    assert np.max(np.abs(v - np.array([1.0, -1.0]))) < 1e-13


def test_ylm_at_against_closed_forms():
    th, ph = 0.7, 2.1
    Y = oracle.ylm_at(2, th, ph)
    y00 = 1 / np.sqrt(4 * np.pi)
    y10 = np.sqrt(3 / (4 * np.pi)) * np.cos(th)
    y11 = -np.sqrt(3 / (8 * np.pi)) * np.sin(th) * np.exp(1j * ph)
    y22 = 0.25 * np.sqrt(15 / (2 * np.pi)) * np.sin(th) ** 2 * np.exp(2j * ph)
    assert abs(Y[0, 2] - y00) < 1e-13
    assert abs(Y[1, 2] - y10) < 1e-13
    assert abs(Y[1, 3] - y11) < 1e-13
    assert abs(Y[2, 4] - y22) < 1e-13


def test_hermiticity_residual_sees_one_perturbed_coefficient():
    sigma_x = np.array([[0, 1], [1, 0]])
    n1, n2 = (SphereSymbol(oracle.full_width(s.truncated(2).coeffs)) for s in vector_symbol_coeffs()[:2])
    for c in (n1.coeffs, n2.coeffs[..., None, None] * sigma_x):
        assert SphereSymbol(c).hermiticity_residual() < 1e-15
        c = c.copy()
        c[2, 3] += 1e-3  # l = 2, m = +1
        assert SphereSymbol(c).hermiticity_residual() == pytest.approx(1e-3)


def test_truncated_pad_and_crop():
    rng = np.random.default_rng(1)
    sym = _random_symbol(3, rng)
    up = sym.truncated(6)
    assert up.L == 6
    back = up.truncated(3)
    assert np.max(np.abs(back.coeffs - sym.coeffs)) == 0.0


def test_stack_pads_its_members_to_the_largest_band_limit():
    rng = np.random.default_rng(2)
    members = [_random_symbol(1, rng), _random_symbol(3, rng), _random_symbol(2, rng)]
    batch = SphereSymbol.stack(members)
    assert batch.L == 3 and batch.fast_shape == (3,) and batch.is_scalar
    for p, sym in enumerate(members):
        assert np.array_equal(batch.coeffs[..., p], oracle.full_width(sym.truncated(3).coeffs))


# -- the FFT / per-m matmul transforms against the dense-DFT oracle ----------


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize(
    "L_exact, L, fast",
    [
        (8, 4, ()),
        (16, 8, (2, 2)),
        (24, 12, (5, 5)),
        (16, 20, ()),  # 2L+1 > n_phi: aliased m add up
        (16, 20, (2, 2)),
        (0, 0, ()),  # the 1x1 grid
        (0, 0, (2, 2)),
    ],
)
def test_transforms_match_dense_oracle(L_exact, L, fast):
    rng = np.random.default_rng(L_exact + L)
    sym = _random_symbol(L, rng, fast)
    grid = make_grid(L_exact)
    assert _rel(grid.synthesize(sym), oracle.synthesize(grid, sym.coeffs)) < 1e-12
    samples = rng.normal(size=(grid.n_theta, grid.n_phi) + fast) + 1j * rng.normal(
        size=(grid.n_theta, grid.n_phi) + fast
    )
    assert _rel(grid.analyze(samples, L).coeffs, oracle.analyze(grid, samples, L)) < 1e-12


@pytest.mark.parametrize("L_exact, L, fast", [(16, 8, ()), (24, 12, (2, 2)), (16, 20, (5, 5))])
def test_gradient_matches_dense_oracle(L_exact, L, fast):
    sym = _random_symbol(L, np.random.default_rng(L), fast)
    grid = make_grid(L_exact)
    for got, want in zip(grid.synthesize_gradient(sym), oracle.synthesize_gradient(grid, sym.coeffs)):
        assert _rel(got, want) < 1e-12


def test_analyze_with_a_larger_cached_table():
    rng = np.random.default_rng(5)
    grid = Grid(24)  # a private grid, so the cache holds exactly what this test puts there
    samples = grid.synthesize(_random_symbol(12, rng, (2, 2)))
    assert max(grid._tables) == 12
    for L in (3, 0):
        assert _rel(grid.analyze(samples, L).coeffs, oracle.analyze(grid, samples, L)) < 1e-12


def test_synthesis_builds_only_the_columns_a_symbol_carries():
    # a band-40 symbol with content at |m| <= 1 needs the Legendre columns
    # m <= 2 alone (m + 1 for the theta derivative); a full symbol of lower
    # band and its gradient then widen the one cached table to cover both
    rng = np.random.default_rng(9)
    grid = Grid(80)  # a private grid, so the cache holds exactly what this test puts there
    narrow = _random_symbol(40, rng)
    narrow.coeffs[:, np.r_[:39, 42:81]] = 0
    assert _rel(grid.synthesize(narrow), oracle.synthesize(grid, narrow.coeffs)) < 1e-12
    (K, P, _), = grid._tables.values()
    assert K == 1 and P.shape[:2] == (41, 3)
    full = _random_symbol(12, rng, (2, 2))
    for got, want in zip(grid.synthesize_gradient(full), oracle.synthesize_gradient(grid, full.coeffs)):
        assert _rel(got, want) < 1e-12
    assert _rel(grid.synthesize(narrow), oracle.synthesize(grid, narrow.coeffs)) < 1e-12
    assert max(grid._tables) == 40 and grid._tables[40][0] == 12


def test_legendre_tables_equal_the_loop_recurrence():
    x = np.cos(make_grid(64).theta)
    for L in (0, 1, 2, 7, 40):
        P = _legendre(L, x, L)
        for got, want in zip((P, _theta_derivative(P, x, L)), oracle.legendre_tables(L, x)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("M", [0, 1, 3])
def test_m_limited_tables_are_the_first_columns_of_the_full_ones(M):
    full, limited = Grid(80), Grid(80, M)
    for L in (0, 1, 2, 7, 40):
        want = full._tab(L, deriv=True)
        got = limited._tab(L, deriv=True)
        K = min(L, M)
        for g, w in zip(got, want):
            assert np.array_equal(g[: L + 1, : K + 1], w[: L + 1, : K + 1])


def test_synthesis_memory_stays_near_its_output():
    # a large matrix-valued shape: d x d samples at two_j = 30, F = 961.
    # Peak / output measured with tracemalloc: 2.02 for the dense-DFT
    # einsum, 4.03 for a version that concatenated the +-m coefficient
    # stacks and copied the result through moveaxis, 1.51 for the in-place
    # FFT path
    grid = make_grid(60)
    sym = _random_symbol(30, np.random.default_rng(0), (31, 31))
    grid.synthesize(sym)  # the Legendre table is built once, outside the count
    tracemalloc.start()
    try:
        out = grid.synthesize(sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes


# -- the azimuthally band-limited grid ---------------------------------------


def _m_limited_symbol(L, M, rng, fast=()):
    c = _random_symbol(L, rng, fast).coeffs
    c[:, : L - M] = 0
    c[:, L + M + 1 :] = 0
    return SphereSymbol(c)


@pytest.mark.parametrize("L, M, fast", [(8, 0, ()), (8, 1, (2, 2)), (12, 3, (4, 4)), (2, 3, ())])
def test_m_limited_grid_transforms_match_dense_oracle(L, M, fast):
    rng = np.random.default_rng(L + M)
    sym = _m_limited_symbol(L, M, rng, fast)
    grid = Grid(2 * L, M)
    assert grid.n_phi == 2 * M + 1
    samples = grid.synthesize(sym)
    assert _rel(samples, oracle.synthesize(grid, sym.coeffs)) < 1e-12
    for got, want in zip(grid.synthesize_gradient(sym), oracle.synthesize_gradient(grid, sym.coeffs)):
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))  # d/dphi = 0 at M = 0
    back = grid.analyze(samples, L).coeffs
    assert back.shape[1] == 2 * min(L, M) + 1
    assert _rel(oracle.full_width(back), sym.coeffs) < 1e-12


def test_m_limited_grid_refuses_content_it_would_alias():
    grid = Grid(16, 1)
    for m in (2, -2):
        c = np.zeros((3, 5, 2, 2), dtype=complex)
        c[2, 2 + m] = 1e-300  # any nonzero coefficient at |m| = M + 1
        with pytest.raises(ValueError, match=r"\|m\| > 1"):
            grid.synthesize(SphereSymbol(c))
        with pytest.raises(ValueError, match=r"\|m\| > 1"):
            grid.synthesize_gradient(SphereSymbol(c))
        c[2, 2 + m] = 0
        assert np.max(np.abs(grid.synthesize(SphereSymbol(c)))) == 0
    # a symbol of width 2 is refused for its content at |m| = 2, not for its width
    narrow = _narrow_symbol(6, 2, np.random.default_rng(4), (2, 2))
    with pytest.raises(ValueError, match=r"\|m\| > 1"):
        grid.synthesize(narrow)
    c = narrow.coeffs.copy()
    c[:, [0, 4]] = 0
    assert _rel(grid.synthesize(SphereSymbol(c)), oracle.synthesize(grid, c)) < 1e-12


# -- symbols of width M < L ----------------------------------------------------


def _narrow_symbol(L, M, rng, fast=()):
    """A random band-L symbol of width M (entries |m| > l zero)."""
    return SphereSymbol(_random_symbol(L, rng, fast).coeffs[:, L - M : L + M + 1].copy())


def _same(a, b):
    """The two symbols hold the same floats once both are at full width."""
    return np.array_equal(oracle.full_width(a.coeffs), oracle.full_width(b.coeffs))


@pytest.mark.parametrize("L, M, fast", [(6, 1, ()), (6, 2, (2, 2)), (5, 0, ()), (4, 4, ())])
def test_a_narrow_symbol_acts_as_its_full_width_copy(L, M, fast):
    # every map that reads a coefficient array gives the same floats for a
    # symbol of width M and for its zero-padded copy of width L
    rng = np.random.default_rng(10 * L + M)
    narrow = _narrow_symbol(L, M, rng, fast)
    full = SphereSymbol(oracle.full_width(narrow.coeffs))
    assert narrow.coeffs.shape[1] == 2 * M + 1 and narrow.M == M and full.M == L
    other = _narrow_symbol(L + 2, 1, rng, fast)
    for grid in (make_grid(2 * L), Grid(2 * L, max(M, 1))):
        a, b = grid.synthesize(narrow), grid.synthesize(full)
        assert np.array_equal(a, b)
        for x, y in zip(grid.synthesize_gradient(narrow), grid.synthesize_gradient(full)):
            assert np.array_equal(x, y)
        back = grid.analyze(a, L)
        assert np.array_equal(back.coeffs, grid.analyze(b, L).coeffs)
        assert back.M == (L if grid.M is None else min(L, grid.M))
    for kernel_L in (None, L - 1):
        ker = SWKernel(make_irrep(2 * L), kernel_L)
        assert np.array_equal(quantize_diagonals(narrow, ker), quantize_diagonals(full, ker))
    assert narrow.hermiticity_residual() == full.hermiticity_residual()
    for L_new in (L + 2, L, L - 1, M, 0):
        cut = narrow.truncated(L_new)
        assert cut.M == min(L_new, M)
        assert _same(cut, full.truncated(L_new))
    parts = [(0.5, narrow), (-0.25, other)]
    got = _combine(parts)
    assert got.L == L + 2 and got.M == max(M, 1)
    assert _same(got, _combine([(0.5, full), (-0.25, other)]))
    if not fast:
        got = SphereSymbol.stack([narrow, other])
        assert got.L == L + 2 and got.M == max(M, 1)
        assert _same(got, SphereSymbol.stack([full, other]))
