"""Spin irreps, Clebsch-Gordan coefficients, and the tensor-operator basis."""

import numpy as np
import pytest

from cg_oracle import clebsch_gordan
from spin_oracle import coherent_state, dense

from sphere_sapt import spin
from sphere_sapt.spin import (
    SpinIrrep,
    make_irrep,
    offset_block,
    rotation_from_zyz,
    tensor_basis,
    wigner_zyz,
)


def test_irrep_algebra():
    for two_j in (1, 2, 3, 7):
        ir = make_irrep(two_j)
        j = two_j / 2
        J1, J2, J3 = ir.Jvec
        comm = J1 @ J2 - J2 @ J1
        assert np.allclose(comm, 1j * J3, atol=1e-13)
        casimir = J1 @ J1 + J2 @ J2 + J3 @ J3
        assert np.allclose(casimir, j * (j + 1) * np.eye(ir.d), atol=1e-12)


def test_cg_known_values():
    # independent tabulated values (Condon-Shortley convention)
    s = np.sqrt
    cases = [
        ((0.5, 0.5, 0.5, -0.5, 1, 0), 1 / s(2)),
        ((0.5, 0.5, 0.5, -0.5, 0, 0), 1 / s(2)),
        ((0.5, -0.5, 0.5, 0.5, 0, 0), -1 / s(2)),
        ((1, 1, 1, -1, 0, 0), 1 / s(3)),
        ((1, 0, 1, 0, 0, 0), -1 / s(3)),
        ((1, 0, 1, 0, 2, 0), s(2.0 / 3.0)),
        ((1, 1, 0.5, -0.5, 1.5, 0.5), 1 / s(3)),
        ((1, 1, 1, 0, 2, 1), 1 / s(2)),
        ((1, 1, 1, 0, 1, 1), 1 / s(2)),
        ((2, 0, 1, 0, 1, 0), -s(2.0 / 5.0)),
    ]
    for args, want in cases:
        assert clebsch_gordan(*args) == pytest.approx(want, abs=1e-14)


def test_cg_orthogonality():
    # sum_{m1 m2} CG(j1 m1 j2 m2 | J M) CG(j1 m1 j2 m2 | J' M') = delta
    j1, j2 = 1.5, 1.0
    for J in (0.5, 1.5, 2.5):
        for Jp in (0.5, 1.5, 2.5):
            acc = 0.0
            M = 0.5
            for tm1 in range(-3, 4, 2):
                m1 = tm1 / 2
                m2 = M - m1
                if abs(m2) <= j2 and (m2 * 2) == int(m2 * 2):
                    acc += clebsch_gordan(j1, m1, j2, m2, J, M) * clebsch_gordan(
                        j1, m1, j2, m2, Jp, M
                    )
            assert acc == pytest.approx(1.0 if J == Jp else 0.0, abs=1e-13)


def _cg_tensor(two_j: int, l: int, m: int) -> np.ndarray:
    # independent construction:
    # (T_lm)_{m1', m1} = sqrt((2l+1)/d) CG(j m1; l m | j m1')
    d = two_j + 1
    j = two_j / 2
    T = np.zeros((d, d))
    for i1, m1 in enumerate(np.arange(j, -j - 1, -1)):
        m1p = m1 + m
        if abs(m1p) <= j:
            i1p = int(round(j - m1p))
            T[i1p, i1] = clebsch_gordan(j, m1, l, m, j, m1p)
    return np.sqrt((2 * l + 1) / d) * T


@pytest.mark.parametrize("two_j", [1, 2, 4, 9])
def test_tensor_basis_matches_cg(two_j):
    tb = tensor_basis(two_j)
    for l in range(two_j + 1):
        for m in range(-l, l + 1):
            want = _cg_tensor(two_j, l, m)
            got = dense(tb, l, m)
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("two_j", [2, 5, 20, 60])
def test_tensor_basis_orthonormal(two_j):
    tb = tensor_basis(two_j)
    flat = np.stack(
        [
            dense(tb, l, m).ravel()
            for l in range(two_j + 1)
            for m in range(-l, l + 1)
        ]
    )
    G = flat.conj() @ flat.T
    assert np.max(np.abs(G - np.eye(len(flat)))) < 1e-12


@pytest.mark.parametrize("two_j", [99, 200, 400])
def test_tensor_basis_finite_orthogonal_large(two_j):
    # from two_j = 99 on, the unnormalized seed J+^m exceeds the float range
    tb = tensor_basis(two_j)
    assert len(tb) == two_j + 1
    for m, Q in enumerate(tb):
        assert Q.shape == (two_j + 1 - m, two_j + 1 - m)
        assert np.all(np.isfinite(Q))
        assert np.max(np.abs(Q @ Q.T - np.eye(len(Q)))) < 1e-13


def test_offset_block_rows_are_the_full_rows():
    # row r of the recurrence reads only rows < r, so the cut changes no float
    full = tensor_basis(400)
    for m in range(49):
        Q = offset_block(400, m, 48)
        assert Q.shape == (49 - m, 401 - m)
        assert np.array_equal(Q, full[m][: 49 - m])
    with pytest.raises(ValueError, match="0 <= m <= L <= 400"):
        offset_block(400, 0, 401)


def test_an_offset_built_alone_is_the_basis_rows():
    # one offset's block, built uncached (its seed grown from offset 0 up
    # inside the call), is the same floats as in the full basis and as the
    # cached block
    want = {(40, 1, 40): tensor_basis(40)[1], (40, 7, 40): tensor_basis(40)[7], (400, 1, 48): offset_block(400, 1, 48)}
    for key, Q in want.items():
        assert np.array_equal(spin.offset_block.__wrapped__(*key), Q), key
    with pytest.raises(ValueError, match="0 <= m <= L <= 10"):
        offset_block(10, 3, 2)


def test_irrep_builds_no_dense_matrix_until_asked():
    ir = make_irrep(10**6)
    assert ir.d == 10**6 + 1 and "Jvec" not in vars(ir)


def test_offset_blocks_finite_orthonormal_at_two_j_10_4():
    for Q in (offset_block(10**4, m, 24) for m in range(25)):
        assert np.all(np.isfinite(Q))
        assert np.max(np.abs(Q @ Q.T - np.eye(len(Q)))) < 1e-13


@pytest.mark.parametrize("two_j", [3, 8, 41])
def test_tensor_conjugation(two_j):
    tb = tensor_basis(two_j)
    for l in range(min(two_j, 6) + 1):
        for m in range(-l, l + 1):
            lhs = dense(tb, l, -m)
            rhs = (-1) ** m * dense(tb, l, m).conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("two_j", [2, 5, 31])
def test_tensor_ladder_relations(two_j):
    ir = make_irrep(two_j)
    tb = tensor_basis(two_j)
    J1, J2, J3 = ir.Jvec
    Jp = J1 + 1j * J2
    for l in (1, 2, min(two_j, 5)):
        for m in range(-l, l + 1):
            T = dense(tb, l, m)
            assert np.max(np.abs(J3 @ T - T @ J3 - m * T)) < 1e-12
            lhs = Jp @ T - T @ Jp
            if m < l:
                rhs = np.sqrt(l * (l + 1) - m * (m + 1)) * dense(tb, l, m + 1)
            else:
                rhs = np.zeros_like(T)
            assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_wigner_rotation_consistency():
    # conjugation by the Wigner matrix realizes the SO(3) rotation on J
    two_j = 3
    ir = make_irrep(two_j)
    rng = np.random.default_rng(5)
    for _ in range(4):
        a, b, g = rng.uniform(0, 2 * np.pi, 3)
        U = wigner_zyz(ir, a, b, g)
        R = rotation_from_zyz(a, b, g)
        assert np.max(np.abs(U @ U.conj().T - np.eye(ir.d))) < 1e-12
        assert abs(np.linalg.det(R) - 1) < 1e-12
        # U J_b U^dag = sum_a R_ab J_a, same convention as rotation_from_zyz
        Js = ir.Jvec
        rot = np.einsum("ab,aij->bij", R, Js)
        conj = np.stack([U @ J @ U.conj().T for J in Js])
        assert np.max(np.abs(rot - conj)) < 1e-11
    # array angles give the stack of the single rotations
    angles = rng.uniform(0, 2 * np.pi, size=(3, 2, 5))
    Us = wigner_zyz(ir, *angles)
    assert Us.shape == (2, 5, ir.d, ir.d)
    for i in np.ndindex(2, 5):
        assert np.max(np.abs(Us[i] - wigner_zyz(ir, *angles[(slice(None),) + i]))) < 1e-14


def test_rotations_of_one_irrep_diagonalize_j2_once(monkeypatch):
    # the covariance check rotates by 20 angles per size: one eigh, not 20
    ir, eigh, calls = SpinIrrep(7), np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    Us = [wigner_zyz(ir, a, 0.7, -a) for a in (0.1, 0.2, 0.3)]
    assert len(calls) == 1 and not ir.J2_eig[1].flags.writeable
    w, V = eigh(ir.Jvec[1])
    mid = ((V * np.exp(0.7j * w)) @ V.conj().T).real
    m = ir.j - np.arange(ir.d)
    assert np.array_equal(Us[2], np.exp(-0.3j * m)[:, None] * mid * np.exp(-0.3j * m)[None, :])


def test_coherent_state_expectations():
    two_j = 6
    ir = make_irrep(two_j)
    j = two_j / 2
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        z = coherent_state(ir, n)
        assert abs(np.vdot(z, z) - 1) < 1e-12
        ev = np.array([np.vdot(z, J @ z).real for J in ir.Jvec])
        assert np.max(np.abs(ev - j * n)) < 1e-12
