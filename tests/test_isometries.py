import json

import numpy as np
import pytest

from pqdec.isometries import (
    PAULI,
    Isometry,
    RankOnePovm,
    bell_basis,
    bell_shredder,
    fourier_basis,
    isometry_from_json,
    isometry_to_json,
    mub_shredder,
    pauli_twirl_isometry,
    povm_isometry,
    random_unitary_channel_dilation,
    twirl_isometry,
)
from pqdec.qmat import DimSig, ValidationError, kron, partial_trace
from pqdec.states import random_density, random_unitary


def isometry_defect(v):
    return np.max(np.abs(v.matrix.conj().T @ v.matrix - np.eye(v.in_dim)))


def output_marginals(v, rho_in):
    out = v.matrix @ rho_in @ v.matrix.conj().T
    b = partial_trace(out, v.out_sig, ["B"])
    e = partial_trace(out, v.out_sig, ["E"])
    return b, e


def test_isometry_accepts_identity_embedding():
    m = np.eye(4, dtype=complex)[:, :2]
    assert Isometry(m, DimSig((2, 2), ("B", "E")), 2).matrix.tobytes() == m.tobytes()


def test_isometry_rejects_scaled_column():
    m = np.eye(4, dtype=complex)[:, :2]
    m[:, 1] *= 2.0
    with pytest.raises(ValidationError, match="columns are not orthonormal"):
        Isometry(m, DimSig((2, 2), ("B", "E")), 2)


def test_isometry_shape_checked():
    with pytest.raises(ValidationError):
        Isometry(np.eye(4), DimSig((2, 2), ("B", "E")), 3)
    with pytest.raises(ValidationError):
        Isometry(np.eye(4), DimSig((4,), ("B",)), 4)


class TestTwirl:
    def test_is_isometry(self):
        for d in (2, 3, 4):
            v = twirl_isometry(d)
            assert v.d_b == d and v.d_e == d * d
            assert isometry_defect(v) <= 1e-12

    def test_kept_output_always_maximally_mixed(self):
        for d in (2, 3):
            v = twirl_isometry(d)
            for seed in range(3):
                rho = random_density(d, d, seed).matrix
                b, e = output_marginals(v, rho)
                assert np.max(np.abs(b - np.eye(d) / d)) <= 1e-12
                # The discarded factor carries half a fresh pair plus the input.
                want_e = kron(np.eye(d) / d, rho)
                assert np.max(np.abs(e - want_e)) <= 1e-12

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValidationError):
            twirl_isometry(1)


class TestMubShredder:
    def test_is_isometry(self):
        for d in (2, 3, 4, 5):
            assert isometry_defect(mub_shredder(d)) <= 1e-9

    def test_fourier_basis_unitary_and_unbiased(self):
        for d in (2, 3, 5):
            e = fourier_basis(d)
            assert np.max(np.abs(e.conj().T @ e - np.eye(d))) <= 1e-12
            assert np.max(np.abs(np.abs(e) ** 2 - 1.0 / d)) <= 1e-12

    def test_copies_fourier_kets(self):
        for d in (2, 3):
            v = mub_shredder(d)
            e = fourier_basis(d)
            for k in range(d):
                got = v.matrix @ e[:, k]
                want = np.kron(e[:, k], e[:, k])
                assert np.max(np.abs(got - want)) <= 1e-12


class TestPauliTwirl:
    def test_matches_controlled_sum(self):
        v = pauli_twirl_isometry()
        want = np.zeros((8, 8), dtype=complex)
        for i, sigma in enumerate(PAULI):
            flag = np.zeros((4, 4))
            flag[i, i] = 1.0
            # Output order is (qubit, register); input order is the same.
            want += np.einsum("ba,ij->biaj", sigma, flag).reshape(8, 8)
        assert np.array_equal(v.matrix, want)
        assert isometry_defect(v) <= 1e-12
        assert v.d_b == 2 and v.d_e == 4 and v.in_dim == 8


class TestBellShredder:
    def test_bell_basis_unitary(self):
        e = bell_basis()
        assert np.max(np.abs(e.conj().T @ e - np.eye(4))) <= 1e-12

    def test_copies_bell_kets(self):
        v = bell_shredder()
        e = bell_basis()
        for i in range(4):
            got = v.matrix @ e[:, i]
            want = np.zeros(16)
            want[i * 4 + i] = 1.0
            assert np.max(np.abs(got - want)) <= 1e-12
        assert isometry_defect(v) <= 1e-12

    def test_is_the_bell_measurement_isometry(self):
        # The matrix that recorded each Bell ket by hand, byte for byte.
        e = bell_basis()
        m = np.zeros((16, 4), dtype=complex)
        for i in range(4):
            m[i * 4 + i, :] = e[:, i].conj()
        assert bell_shredder().matrix.tobytes() == m.tobytes()
        assert bell_shredder(("K", "D")).out_sig == DimSig((4, 4), ("K", "D"))


class TestPovmIsometry:
    def test_records_outcome_twice(self):
        rng = np.random.default_rng(3)
        d = 3
        u = random_unitary(d, 7)
        p = RankOnePovm(tuple(u[:, m].copy() for m in range(d)))
        v = povm_isometry(p)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        got = v.matrix @ psi
        want = np.zeros(d * d, dtype=complex)
        for m in range(d):
            want[m * d + m] = np.vdot(p.vectors[m], psi)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_scaled_basis_povm(self):
        # Non-orthogonal elements are fine as long as they resolve the identity.
        vecs = []
        for m in range(2):
            for sign in (1.0, -1.0):
                e = np.zeros(2)
                e[m] = sign
                vecs.append(e / np.sqrt(2.0))
        v = povm_isometry(RankOnePovm(tuple(vecs)))
        assert v.in_dim == 2 and v.d_b == 4
        assert isometry_defect(v) <= 1e-12

    def test_rejects_non_resolving_elements(self):
        with pytest.raises(ValidationError, match="do not resolve the identity: defect 1.000e"):
            RankOnePovm((np.array([1.0, 0.0]),))

    def test_rejects_non_finite_vectors(self):
        with pytest.raises(ValidationError):
            RankOnePovm((np.array([np.nan, 0.0]), np.array([0.0, 1.0])))


class TestRandomUnitaryDilation:
    def test_channel_action_matches_mixture(self):
        for terms, seed in ((2, 1), (3, 5)):
            us = [random_unitary(2, seed + i) for i in range(terms)]
            p = np.random.default_rng(seed).dirichlet(np.ones(terms))
            v = random_unitary_channel_dilation(us, p)
            assert isometry_defect(v) <= 1e-12
            rho = random_density(2, 2, seed + 9).matrix
            b, _ = output_marginals(v, rho)
            want = sum(w * u @ rho @ u.conj().T for w, u in zip(p, us))
            assert np.max(np.abs(b - want)) <= 1e-12

    def test_rejects_bad_weights_and_operators(self):
        u = np.eye(2)
        with pytest.raises(ValidationError):
            random_unitary_channel_dilation([u, u], [0.7, 0.7])
        with pytest.raises(ValidationError):
            random_unitary_channel_dilation([u, 2 * u], [0.5, 0.5])
        with pytest.raises(ValidationError):
            random_unitary_channel_dilation([u, np.eye(3)], [0.5, 0.5])

    @pytest.mark.parametrize("p", [[np.nan, np.nan], [np.inf, 0.0]])
    def test_rejects_non_finite_weights(self, p):
        with pytest.raises(ValidationError, match="non-finite"):
            random_unitary_channel_dilation([np.eye(2), np.eye(2)], p)

    @pytest.mark.parametrize(
        "p, match",
        [(["a", "b"], "not a vector of numbers: .*'a'"), ([[0.5], [0.5]], r"shape \(2, 1\)")],
    )
    def test_rejects_malformed_weights(self, p, match):
        with pytest.raises(ValidationError, match=match):
            random_unitary_channel_dilation([np.eye(2), np.eye(2)], p)


def test_json_round_trip_bit_for_bit():
    v = mub_shredder(3)
    back = isometry_from_json(isometry_to_json(v))
    assert back.in_dim == v.in_dim
    assert back.out_sig == v.out_sig
    assert np.array_equal(back.matrix, v.matrix)


def test_json_rejects_malformed_documents():
    with pytest.raises(ValidationError):
        isometry_from_json("nonsense")
    with pytest.raises(ValidationError):
        isometry_from_json('{"d_in": 2, "d_B": 2, "d_E": 2}')
    with pytest.raises(ValidationError):
        isometry_from_json(
            '{"d_in": 1, "d_B": 1, "d_E": 1, "matrix": [[2.0, 0.0]]}'
        )
    for matrix in ('[["a", 0]]', "5", "[[0.25]]"):
        with pytest.raises(ValidationError):
            isometry_from_json(f'{{"d_in": 1, "d_B": 1, "d_E": 1, "matrix": {matrix}}}')
    # A truncating read used to load "d_in": 2.9 as a 2-dimensional input.
    for key in ("d_in", "d_B", "d_E"):
        doc = json.loads(isometry_to_json(mub_shredder(2)))
        doc[key] = 2.9
        with pytest.raises(ValidationError, match=f"{key} must be an integer >= 1, got 2.9"):
            isometry_from_json(json.dumps(doc))


def test_json_rejects_non_finite_entries():
    doc = {"d_in": 2, "d_B": 2, "d_E": 2, "matrix": [[float("nan"), 0.0]] * 8}
    with pytest.raises(ValidationError):
        isometry_from_json(json.dumps(doc))
