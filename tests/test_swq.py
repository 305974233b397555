"""Quantization/dequantization kernel on the sphere and coherent-state symbols."""

import tracemalloc
from random import Random

import numpy as np
import pytest
from cg_oracle import clebsch_gordan
from sphere_oracle import full_width, synthesize_at
from spin_oracle import coherent_state
import swq_oracle
from swq_oracle import kernel_samples, lower_symbol, partial_dequantize, raise_lower_symbol

from sphere_sapt import cli, swq
from sphere_sapt.spin import make_irrep, tensor_basis
from sphere_sapt.sphere import Grid, SphereSymbol, make_grid, vector_symbol_coeffs
from sphere_sapt.swq import (
    SWKernel,
    dequantize,
    dequantize_diagonals,
    kernel_property_residuals,
    _lower_scale,
    quantize,
    quantize_diagonals,
)


def _random_symbol(L, rng, fast=()):
    c = rng.normal(size=(L + 1, 2 * L + 1) + fast) + 1j * rng.normal(
        size=(L + 1, 2 * L + 1) + fast
    )
    for l in range(L + 1):
        c[l, : L - l] = 0
        c[l, L + l + 1 :] = 0
    return SphereSymbol(c)


@pytest.mark.parametrize("fast", [(), (2, 2)], ids=["scalar", "2x2"])
@pytest.mark.parametrize("kernel_L", [5, None], ids=["band", "full"])
def test_each_diagonal_alone_is_that_of_the_operator(fast, kernel_L):
    # quantize scatters the diagonal array and dequantize gathers it, so the
    # array holds the operator's diagonals as the same floats, rows past
    # the matrix zero, and dequantize_diagonals is dequantize (at width
    # L = 5, the offsets the array holds; the gather of the full kernel
    # holds 2 two_j + 1, the extra ones zero)
    two_j, L = 12, 5
    sym = _random_symbol(L, np.random.default_rng(8), fast)
    ker = SWKernel(make_irrep(two_j), kernel_L)
    d, k = two_j + 1, (fast or (1,))[0]
    A = quantize(sym, ker)
    A4 = A.reshape(d, k, d, k)
    D = quantize_diagonals(sym, ker)
    assert D.shape == (2 * L + 1, d) + fast
    for a in range(-L, L + 1):
        want = np.zeros((d,) + fast, dtype=complex)
        r = np.arange(max(0, -a), d - max(0, a))
        want[r] = A4[r, :, r + a, :].reshape((len(r),) + fast)
        assert np.array_equal(D[L + a], want), a
    back = partial_dequantize(A, ker, fast_dim=fast[0] if fast else None)
    got = dequantize_diagonals(D, ker).coeffs
    assert got.shape[1] == 2 * L + 1
    assert np.array_equal(full_width(got), full_width(back.coeffs))


@pytest.mark.parametrize("two_j", [1, 3])
def test_kernel_axioms_small(two_j):
    ker = SWKernel(make_irrep(two_j))
    res = kernel_property_residuals(ker, make_grid(4 * two_j))
    assert max(res.values()) < 1e-10


@pytest.mark.parametrize("two_j", [1, 2, 3, 5, 10, 20, 30])
def test_residuals_match_the_dense_row_oracle(two_j):
    # the grids kernel-check uses
    ker = SWKernel(make_irrep(two_j))
    grid = make_grid(max(48, 2 * two_j))
    got, want = kernel_property_residuals(ker, grid), swq_oracle.kernel_property_residuals(ker, grid)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-12, (key, got[key], want[key])


def test_uniform_draws_are_seeded_shaped_and_in_range():
    draws = swq._uniform(Random(7), (300, 40))
    assert draws.shape == (300, 40) and draws.dtype == np.float64
    assert np.array_equal(draws, swq._uniform(Random(7), (300, 40)))
    assert not np.array_equal(draws, swq._uniform(Random(8), (300, 40)))
    assert -1 <= draws.min() < -0.999 and 0.999 < draws.max() < 1
    assert abs(draws.mean()) < 0.03 and abs(draws.var() - 1 / 3) < 0.03  # uniform on [-1, 1), 12000 draws
    # one stream: consecutive draws continue it, as the oracle's per-element draws assume
    rnd = Random(7)
    assert np.array_equal(np.concatenate([swq._uniform(rnd, 40) for _ in range(300)]), draws.ravel())


def _dense(G, grid):
    """Kernel samples (n_theta, n_phi, d, d) from the theta-profiles: offset a
    at node (t, p) is e^{-i a phi_p} G[L + a, t] on its rows, zero elsewhere."""
    L, d = len(G) // 2, G.shape[2]
    out = np.zeros((grid.n_theta, grid.n_phi, d, d), dtype=complex)
    for a in range(-L, L + 1):
        rows = np.arange(max(0, -a), d - max(0, a))
        assert not np.any(np.delete(G[L + a], rows, axis=1)), a
        out[:, :, rows, rows + a] = np.exp(-1j * a * grid.phi)[None, :, None] * G[L + a][:, None, rows]
    return out


# (two_j, grid L_exact); make_grid(12) has n_phi = 13 < 2j + 1 = 21, so the
# phases e^{-i m phi} of different m alias on its nodes
@pytest.mark.parametrize("two_j, L_exact", [(1, 2), (2, 4), (5, 10), (10, 20), (10, 12), (30, 60)])
def test_streamed_samples_match_the_synthesis_oracle(two_j, L_exact):
    ker = SWKernel(make_irrep(two_j))
    grid = make_grid(L_exact)
    G = ker.samples(grid)
    assert G.shape == (2 * two_j + 1, grid.n_theta, ker.d)
    assert np.max(np.abs(_dense(G, grid) - kernel_samples(ker, grid))) < 1e-13


def test_kernel_at_matches_the_sampled_rows():
    ker = SWKernel(make_irrep(4))
    grid = make_grid(8)
    dense = _dense(ker.samples(grid), grid)
    theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    at_once = ker.at(theta, phi)
    assert at_once.shape == dense.shape
    assert np.max(np.abs(at_once - dense)) < 1e-13
    for t in range(grid.n_theta):
        for p in range(grid.n_phi):
            assert np.max(np.abs(ker.at(grid.theta[t], grid.phi[p]) - dense[t, p])) < 1e-13
    # a pole, where every offset but 0 vanishes
    assert np.max(np.abs(ker.at(0.0, 0.3) - swq_oracle.kernel_at(ker, 0.0, 0.3))) < 1e-13


def test_kernel_gates_fail_on_a_perturbed_entry(monkeypatch):
    # every gate must be able to fail: scale the +1 profile at row 0, entry
    # (0, 1) of every sample, and leave its -1 partner, entry (1, 0), alone.
    # Every quadrature reads the profiles through this one per-offset seam
    profile = swq._profile

    def perturbed(kernel, P, a):
        g = profile(kernel, P, a)
        if a == 1:
            g[:, 0] *= 1 + 1e-6
        return g

    monkeypatch.setattr(swq, "_profile", perturbed)
    res = kernel_property_residuals(SWKernel(make_irrep(4)), make_grid(8))
    for key in ("hermitian", "reproducing", "trace_duality"):
        assert res[key] > 1e-8, key


@pytest.mark.parametrize("two_j", [10, 30, 80])
def test_trace_duality_fails_on_a_weight_defect(two_j):
    # a 1e-9 relative defect of the quadrature weights scales every int f_A f_B
    # by 1 + 1e-9; over the largest |tr(A B)| that reads 1e-9 at every size,
    # ten times the kernel-check gate (a Frobenius-norm denominator, which
    # grows with d, would read it under the gate from two_j = 30 on)
    grid = Grid(max(48, 2 * two_j))
    grid.w_theta = grid.w_theta * (1 + 1e-9)
    res = kernel_property_residuals(SWKernel(make_irrep(two_j)), grid)
    assert res["trace_duality"] > 1e-10, res


def test_trace_duality_does_not_swing_with_the_draw(monkeypatch):
    # the residual is relative to the largest trace, not to each pair's: with
    # one pair's trace small, a per-pair denominator reports that pair's
    # absolute round-off, which swung 20x over these eight draws at two_j = 30
    ker, grid = SWKernel(make_irrep(30)), make_grid(60)
    got = []
    for seed in range(8):
        monkeypatch.setattr(swq, "Random", lambda _, seed=seed: Random(seed))
        got.append(kernel_property_residuals(ker, grid)["trace_duality"])
    assert max(got) < 1e-13 and max(got) < 8 * min(got), got


def test_kernel_check_forms_dense_kernels_only_at_the_covariance_points(monkeypatch):
    # a dense kernel comes from SWKernel.at or from a scatter of diagonals
    # (quantize's path): the checks call at once, at the 21 covariance
    # points, and scatter nothing
    formed = []
    at, scatter = SWKernel.at, swq._scatter

    def recorded_at(kernel, theta, phi):
        D = at(kernel, theta, phi)
        formed.append(("at", D.shape))
        return D

    def recorded_scatter(D):
        A = scatter(D)
        formed.append(("scatter", A.shape))
        return A

    monkeypatch.setattr(SWKernel, "at", recorded_at)
    monkeypatch.setattr(swq, "_scatter", recorded_scatter)
    kernel_property_residuals(SWKernel(make_irrep(10)), make_grid(20))
    assert formed == [("at", (21, 11, 11))]  # the 21 covariance points, d = 11


@pytest.mark.parametrize("grid", [make_grid(12), make_grid(19), Grid(40, 9)], ids=["L12", "L19", "L40-M9"])
def test_kernel_axioms_refuse_a_grid_too_coarse_for_kernel_products(grid):
    # two_j = 10 needs L_exact >= 20 and n_phi >= 21; make_grid(12) used to
    # report reproducing 1.16 and trace_duality 8.05 as if the kernel failed
    with pytest.raises(ValueError, match="two_j = 10"):
        kernel_property_residuals(SWKernel(make_irrep(10)), grid)
    res = kernel_property_residuals(SWKernel(make_irrep(10)), Grid(40, 10))
    assert max(res.values()) < 1e-10, res


def test_closed_form_phi_sums_at_the_fewest_phi_nodes():
    # Grid(40, 10) has n_phi = 21 = 2 two_j + 1, the fewest nodes on which the
    # node sum of e^{-i k phi} vanishes for every 0 < |k| <= 2 two_j, so the
    # pairing of offset a with -a in the phi sums holds there too
    ker, grid = SWKernel(make_irrep(10)), Grid(40, 10)
    assert grid.n_phi == 21
    got, want = kernel_property_residuals(ker, grid), swq_oracle.kernel_property_residuals(ker, grid)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-12, (key, got[key], want[key])


def _kernel_check_count(two_j: int, monkeypatch) -> float:
    """The bytes kernel-check counts for two_j before it starts any work."""
    counted = []

    def count(two_j, need):
        counted.append(need)
        raise ValueError("counted")

    with monkeypatch.context() as m:
        m.setattr(cli, "_check_memory", count)
        assert cli.main(["kernel-check", "--two-j", str(two_j)]) == 2
    return counted[0]


def _traced_axioms(two_j: int) -> int:
    """tracemalloc peak of the kernel axioms on a fresh make_grid(2 two_j),
    whose Legendre table is built under the trace; the tensor basis, a
    process-wide cache, is built before it."""
    ker = SWKernel(make_irrep(two_j))
    tensor_basis(two_j)
    grid = Grid(2 * two_j)
    tracemalloc.start()
    try:
        res = kernel_property_residuals(ker, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(res.values()) < 1e-10, res
    return peak


def test_kernel_axioms_at_two_j_60_in_a_few_rows_of_memory(monkeypatch):
    # one theta row of dense samples at two_j = 60 on make_grid(120) is
    # n_phi d^2 16 B = 121 * 61^2 * 16 B = 6.9 MiB.  The dense-row oracle,
    # streamed one row at a time, peaks at 5.5 rows; the row-indexed layout,
    # one offset pair at a time, at 0.63 rows, under the count kernel-check
    # makes at entry (0.78 rows).
    row_bytes = 121 * 61**2 * 16
    peak, count = _traced_axioms(60), _kernel_check_count(60, monkeypatch)
    assert peak <= count <= 5 * row_bytes, (peak / row_bytes, count / row_bytes)


@pytest.mark.parametrize("two_j", [80, 160])
def test_kernel_axioms_stream_the_offsets(two_j, monkeypatch):
    # the quadrature holds one offset pair's profiles and traces at a time: at
    # two_j = 160 the peak is ~49 MiB, the grid's Legendre table (32 MiB) and
    # the 40 random operators (16 MiB).  The count kernel-check makes at entry
    # bounds the peak without overstating it by more than 1.6x
    peak, count = _traced_axioms(two_j), _kernel_check_count(two_j, monkeypatch)
    assert peak <= count <= 1.6 * peak, (peak / 2**20, count / 2**20)
    assert peak < (55 if two_j == 160 else 10) * 2**20, peak / 2**20


def test_quantize_constant_is_identity():
    for two_j in (1, 4):
        ker = SWKernel(make_irrep(two_j))
        Q = quantize(SphereSymbol.constant(1.0), ker)
        assert np.max(np.abs(Q - np.eye(two_j + 1))) < 1e-13


def test_quantize_coordinates_give_spin_matrices():
    # independent oracle: the quantized unit-vector components are
    # 2 J_a / sqrt(d^2 - 1)
    for two_j in (1, 2, 7):
        ir = make_irrep(two_j)
        ker = SWKernel(ir)
        scale = 2 / np.sqrt(ir.d**2 - 1)
        for sym, J in zip(vector_symbol_coeffs(), ir.Jvec):
            assert np.max(np.abs(quantize(sym, ker) - scale * J)) < 1e-13


def test_roundtrip_symbol_to_operator():
    rng = np.random.default_rng(2)
    for two_j in (2, 6):
        ker = SWKernel(make_irrep(two_j))
        sym = _random_symbol(two_j, rng)
        back = dequantize(quantize(sym, ker), ker)
        assert np.max(np.abs(back.truncated(two_j).coeffs - sym.coeffs)) < 1e-12


@pytest.mark.parametrize("two_j", [99, 200, 400])
def test_roundtrip_symbol_to_operator_large(two_j):
    rng = np.random.default_rng(two_j)
    ker = SWKernel(make_irrep(two_j))
    sym = _random_symbol(two_j, rng)
    back = dequantize(quantize(sym, ker), ker)
    assert np.all(np.isfinite(back.coeffs))
    assert np.max(np.abs(back.coeffs - sym.coeffs)) < 1e-12


def test_roundtrip_operator_to_symbol():
    rng = np.random.default_rng(4)
    for two_j in (1, 5):
        d = two_j + 1
        ker = SWKernel(make_irrep(two_j))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        back = quantize(dequantize(A, ker), ker)
        assert np.max(np.abs(back - A)) < 1e-12


def test_quantize_projects_out_high_bands():
    # harmonics with l > 2j map to the zero operator
    two_j = 2
    ker = SWKernel(make_irrep(two_j))
    L = two_j + 2
    c = np.zeros((L + 1, 2 * L + 1), dtype=complex)
    c[L, L + 1] = 1.0
    assert np.max(np.abs(quantize(SphereSymbol(c), ker))) < 1e-13


def test_quantize_real_symbol_is_hermitian():
    rng = np.random.default_rng(6)
    two_j = 5
    ker = SWKernel(make_irrep(two_j))
    grid = make_grid(2 * two_j)
    sym = grid.analyze(rng.normal(size=(grid.n_theta, grid.n_phi)), two_j)
    Q = quantize(sym, ker)
    assert np.max(np.abs(Q - Q.conj().T)) < 1e-12


def test_matrix_valued_roundtrip_kron_structure():
    rng = np.random.default_rng(8)
    two_j, k = 3, 2
    ker = SWKernel(make_irrep(two_j))
    sym = _random_symbol(two_j, rng, fast=(k, k))
    Q = quantize(sym, ker)
    assert Q.shape == ((two_j + 1) * k, (two_j + 1) * k)
    back = partial_dequantize(Q, ker, fast_dim=k)
    assert np.max(np.abs(back.truncated(two_j).coeffs - sym.coeffs)) < 1e-12
    # a product symbol f(n) E quantizes to kron(quantize(f), E)
    f = _random_symbol(two_j, rng)
    E = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    fe = SphereSymbol(f.coeffs[..., None, None] * E)
    assert np.max(np.abs(quantize(fe, ker) - np.kron(quantize(f, ker), E))) < 1e-12


def test_lower_symbol_matches_coherent_states():
    # independent oracle: the lower symbol is the coherent-state expectation
    rng = np.random.default_rng(11)
    two_j = 4
    ir = make_irrep(two_j)
    d = ir.d
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    A = A + A.conj().T
    sym = lower_symbol(A, SWKernel(ir))
    for th, ph in [(0.4, 1.0), (1.7, 4.2), (2.9, 0.1)]:
        n = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        z = coherent_state(ir, n)
        want = np.vdot(z, A @ z)
        got = synthesize_at(sym, np.array([th]), np.array([ph]))[0]
        assert abs(got - want) < 1e-11


def test_raise_lower_roundtrip_on_constants():
    ker = SWKernel(make_irrep(6))
    T = raise_lower_symbol(SphereSymbol.constant(1.0), ker)
    assert np.max(np.abs(T - np.eye(ker.d))) < 1e-12
    back = lower_symbol(T, ker)
    grid = make_grid(4)
    assert np.max(np.abs(grid.synthesize(back.truncated(2)) - 1)) < 1e-12


def test_lower_scale_matches_clebsch_gordan():
    for two_j in (*range(1, 12), 40, 79, 80):
        j = two_j / 2
        want = [clebsch_gordan(j, j, l, 0, j, j) for l in range(two_j + 1)]
        assert np.max(np.abs(_lower_scale(two_j) - want)) < 1e-15
