"""The M-sectors of the two-spin model against the dense 2d x 2d oracles.

H and every quantized band symbol conserve M = J3 (x) 1 + 1 (x) S3, so the
package reads the exact levels of each band, the invariance norm and the
Heisenberg evolution off 2 x 2 sector blocks and a few operator
diagonals; model.sector_blocks is the one read of an operator's diagonals
into its sectors, for H and for the quantized projector.  Each check below
compares that path with the dense one and shows that a perturbed block (a
ladder index off by one, a dropped sector, a diagonal read at the wrong
offset or row) fails it.
"""

import numpy as np
import pytest
import test_acceptance
from model_oracle import dense_hamiltonian
from sapt_oracle import band_clusters, dense_invariance_norm, dense_spectrum, exact_band_levels
from sphere_oracle import full_width

from sphere_sapt import cli, sapt, spin, swq
from sphere_sapt.model import ModelParams, hamiltonian_diagonals, sector_blocks
from sphere_sapt.sapt import moyal_projection, sector_commutator_norm
from sphere_sapt.sphere import SphereSymbol
from sphere_sapt.star import CALIBRATED
from sphere_sapt.swq import quantize_diagonals


def _spectrum(params) -> np.ndarray:
    """The unlabelled sector spectrum: both bands' levels, sorted."""
    return np.sort(np.concatenate(list(sapt.exact_band_projection(params).values())))


def _spectrum_error(params) -> float:
    got, want = _spectrum(params), dense_spectrum(params)
    assert got.shape == want.shape, "the sectors miss eigenvalues"
    return float(np.max(np.abs(got - want)))


def _off_by_one(params):
    # the ladder amplitude of J- S+ taken one index too low, in both of H's
    # entries that carry it (hamiltonian_diagonals is this module's binding,
    # which monkeypatching sapt leaves alone)
    D = hamiltonian_diagonals(params)
    i = np.arange(params.d_j - 1)
    D[0, 1:, 0, 1] = D[2, :-1, 1, 0] = params.lam / params.d_j * np.sqrt(i * (params.two_j + 1 - i))
    return D


def _rebuild(blocks, edges) -> np.ndarray:
    """The 2d x 2d matrix with these sector blocks and edges."""
    d = len(blocks) + 1
    A = np.zeros((2 * d, 2 * d), dtype=blocks.dtype)
    for i, block in enumerate(blocks):
        idx = [2 * (i + 1), 2 * i + 1]  # (i + 1, +) and (i, -) in kron(slow, fast) order
        A[np.ix_(idx, idx)] = block
    A[0, 0], A[-1, -1] = edges
    return A


def _rebuild_error(params) -> float:
    # through sapt's binding, the one its consumers read, so a patch there reaches it
    return float(np.max(np.abs(_rebuild(*sapt.sector_blocks(hamiltonian_diagonals(params))) - dense_hamiltonian(params))))


@pytest.mark.parametrize("two_j", [2, 9, 40])
@pytest.mark.parametrize("lam", [0.0, 0.2, 0.8, 1.0])
def test_sector_blocks_rebuild_the_dense_hamiltonian(two_j, lam):
    assert _rebuild_error(ModelParams(two_j, 1, lam)) < 1e-15


def _m_conserving(rng, K: int, d: int) -> np.ndarray:
    """Random complex diagonals (2K + 1, d, 2, 2) of an operator that conserves
    M: offset 0 in entries (+, +) and (-, -), offset -1 in (+, -) and +1 in
    (-, +), zero where the column leaves the matrix."""
    D = np.zeros((2 * K + 1, d, 2, 2), dtype=complex)
    z = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
    D[K, :, 0, 0], D[K, :, 1, 1] = z[:, 0], z[:, 1]
    if K:
        D[K - 1, 1:, 0, 1], D[K + 1, :-1, 1, 0] = z[1:, 2], z[:-1, 3]
    return D


@pytest.mark.parametrize("K", [0, 1])
@pytest.mark.parametrize("d", [2, 3, 11])
def test_sector_blocks_are_the_sectors_of_the_dense_scatter(K, d):
    # the sectors hold every entry of an M-conserving operator: rebuilt from
    # its blocks and edges it is, entry for entry, the scatter of its diagonals
    D = _m_conserving(np.random.default_rng(d + 7 * K), K, d)
    blocks, edges = sector_blocks(D)
    assert blocks.shape == (d - 1, 2, 2) and blocks.dtype == complex
    assert np.array_equal(_rebuild(blocks, edges), swq._scatter(D))


@pytest.mark.parametrize("two_j", [2, 10, 40, 160, 320])
@pytest.mark.parametrize("lam", [0.2, 0.8])
def test_sector_spectrum_matches_eigvalsh(two_j, lam):
    assert _spectrum_error(ModelParams(two_j, 1, lam)) < 1e-12


@pytest.mark.parametrize("two_j", [2, 7, 10, 20, 40, 1001, 10**5])
@pytest.mark.parametrize("lam", [0.2, 0.45, 0.5, 0.8])
def test_sector_spectrum_is_the_closed_form_band_levels(two_j, lam):
    p = ModelParams(two_j, 1, lam)
    (M_up, up), (M_low, low) = (exact_band_levels(p, m) for m in (0.5, -0.5))
    # the bottom edge changes band at lam = 1/2: ranks d + 1 and d - 1 from there on
    assert (len(up), len(low)) == ((p.d_j + 1, p.d_j - 1) if lam >= 0.5 else (p.d_j, p.d_j))
    # every full sector |M| <= j - 1/2 gives one level to each band, each edge M = +-(j + 1/2) one
    full = np.arange(-p.d_j + 2, p.d_j - 1, 2) / 2
    assert np.array_equal(np.sort(np.r_[M_up, M_low]), np.sort(np.r_[full, full, -p.d_j / 2, p.d_j / 2]))
    # the labels are the closed-form bands, level for level in order of decreasing M
    # (at lam = 0.45 and two_j 10 and 20 the gap-clustering oracle cannot split them)
    bands = sapt.exact_band_projection(p)
    assert list(bands) == [0.5, -0.5]
    for levels, want in ((bands[0.5], up), (bands[-0.5], low)):
        assert levels.shape == want.shape and np.max(np.abs(levels - want[::-1])) < 1e-15


def test_clustering_fails_where_the_labels_hold():
    for two_j in (10, 20):
        with pytest.raises(ValueError, match="not separated"):
            band_clusters(_spectrum(ModelParams(two_j, 1, 0.45)), 2)


def _bottom_edge_below(params):
    # a wrong rule for lam >= 1/2: the bottom edge (d - 1, -), the upper
    # band's last level, put in band -1/2 as below the gap closing
    bands = sapt.exact_band_projection(params)
    return {0.5: bands[0.5][:-1], -0.5: np.r_[bands[-0.5], bands[0.5][-1]]}


def test_a_wrong_edge_rule_fails_the_rank_checks(monkeypatch, tmp_path):
    # obstruction's rank check and acceptance 09 both read the labels
    monkeypatch.setattr(cli, "exact_band_projection", _bottom_edge_below)
    assert cli.main(["obstruction", "--lambda", "0.8", "--out", str(tmp_path)]) == 1
    monkeypatch.setattr(test_acceptance, "exact_band_projection", _bottom_edge_below)
    with pytest.raises(AssertionError, match="acceptance criterion 9 failed"):
        test_acceptance.test_acceptance_09_topological_obstruction()


def test_perturbed_sectors_fail_the_spectrum_oracle(monkeypatch):
    p = ModelParams(40, 1, 0.2)
    monkeypatch.setattr(sapt, "hamiltonian_diagonals", _off_by_one)
    assert _spectrum_error(p) > 1e-4
    monkeypatch.undo()
    monkeypatch.setattr(sapt, "sector_blocks", lambda D: (sector_blocks(D)[0][1:], sector_blocks(D)[1]))
    with pytest.raises(AssertionError, match="miss eigenvalues"):
        _spectrum_error(p)


def test_sectors_need_a_spin_half_fast_sector():
    with pytest.raises(ValueError, match="two_s = 2"):
        sector_blocks(hamiltonian_diagonals(ModelParams(10, 2, 0.2)))


def _projections():
    return {lam: moyal_projection(ModelParams(10, 1, lam), 0.5, cs=CALIBRATED) for lam in (0.2, 0.8)}


@pytest.mark.parametrize("two_j", [2, 10, 40, 160])
def test_sector_norms_match_the_dense_norm(two_j):
    for lam, proj in _projections().items():
        p = ModelParams(two_j, 1, lam)
        for order in (0, 1):
            sym = proj.evaluate(p.d_j, order)
            got, want = sector_commutator_norm(p, sym), dense_invariance_norm(p, sym)
            assert abs(got - want) < 1e-15 and abs(got - want) < 1e-10 * want, (lam, order)


@pytest.mark.parametrize(
    "target, perturbed",
    [
        ("hamiltonian_diagonals", _off_by_one),
        ("quantize_diagonals", lambda sym, ker: quantize_diagonals(sym, ker)[::-1]),  # offsets swapped
    ],
    ids=["ladder-off-by-one", "offsets-swapped"],
)
def test_perturbed_blocks_fail_the_norm_oracle(monkeypatch, target, perturbed):
    p = ModelParams(40, 1, 0.2)
    sym = _projections()[0.2].evaluate(p.d_j, 1)
    want = dense_invariance_norm(p, sym)
    monkeypatch.setattr(sapt, target, perturbed)
    assert abs(sector_commutator_norm(p, sym) - want) > 0.1 * want


def _offset_minus_one_a_row_low(D):
    # the one read perturbed: offset -1 of entry (+, -) taken at row i, not i + 1
    blocks, edges = sector_blocks(D)
    blocks[:, 0, 1] = D[len(D) // 2 - 1, :-1, 0, 1]
    return blocks, edges


def test_one_perturbed_read_fails_both_consumers(monkeypatch):
    # H's rebuild, the projector's invariance norm and the band spectrum all
    # read through sector_blocks, so one wrong row fails all three
    p = ModelParams(40, 1, 0.2)
    sym = _projections()[0.2].evaluate(p.d_j, 1)
    want = dense_invariance_norm(p, sym)
    monkeypatch.setattr(sapt, "sector_blocks", _offset_minus_one_a_row_low)
    assert _rebuild_error(p) > 1e-4
    assert abs(sector_commutator_norm(p, sym) - want) > 0.1 * want
    assert _spectrum_error(p) > 1e-4


def test_a_symbol_without_offsets_one_matches_the_dense_norm():
    # entries (+, +) and (-, -) alone: the diagonal array is trimmed to the
    # one row m = 0 (K = 0), so there are no rows +-1 to read
    c = np.zeros((3, 5, 2, 2), dtype=complex)
    c[0, 2, 0, 0], c[1, 2, 0, 0], c[2, 2, 1, 1] = 1.0, 0.3, -0.5
    sym, p = SphereSymbol(c), ModelParams(20, 1, 0.2)
    want = dense_invariance_norm(p, sym)
    assert abs(sector_commutator_norm(p, sym) - want) < 1e-12 * want


def test_spectral_norms_of_2x2_blocks_in_closed_form():
    # random blocks, unitary multiples (both singular values equal, where
    # sigma_max^2 = (f + sqrt(f^2 - 4 |det|^2)) / 2 would lose half the digits)
    # and blocks at the scale of a commutator at d = 10^5
    rng = np.random.default_rng(5)
    C = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    for X in (C, 3.0 * np.linalg.qr(C)[0], 1e-10 * C):
        want = np.linalg.norm(X, 2, axis=(1, 2))
        assert np.max(np.abs(sapt._spectral_norms(X) - want) / want) < 4e-15


def test_content_off_the_sectors_is_refused():
    p = ModelParams(10, 1, 0.2)
    sym = _projections()[0.2].evaluate(p.d_j, 1)
    c = full_width(sym.coeffs)  # the band symbol has width 1: pad it to hold m = 2
    c[3, sym.L + 2, 0, 0] = 1e-9 * np.max(np.abs(c))  # entry (+, +) may carry m = 0 only
    with pytest.raises(ArithmeticError, match="off the M-sectors"):
        sector_commutator_norm(p, SphereSymbol(c))
    c[3, sym.L + 2, 0, 0] = 1e-14 * np.max(np.abs(c))  # round-off is dropped
    assert sector_commutator_norm(p, SphereSymbol(c)) == pytest.approx(sector_commutator_norm(p, sym), rel=1e-9)


def test_round_off_off_the_sectors_builds_no_block(monkeypatch):
    # the padded symbol's 1e-14 at m = 2 is let through, but no sector reads
    # offset 2: only the rows of Q[0] and Q[1] are built
    p = ModelParams(10, 1, 0.2)
    sym = _projections()[0.2].evaluate(p.d_j, 1)
    c = full_width(sym.coeffs)
    c[3, sym.L + 2, 0, 0] = 1e-14 * np.max(np.abs(c))
    calls = []

    def recorded(two_j, m, L):
        calls.append(m)
        return spin.offset_block(two_j, m, L)

    monkeypatch.setattr(swq, "offset_block", recorded)
    assert sector_commutator_norm(p, SphereSymbol(c)) == sector_commutator_norm(p, sym)
    assert calls and set(calls) <= {0, 1}, calls
