import json

import numpy as np
import pytest

from pqdec import qmat
from pqdec.entropics import entropy, mutual_information
from pqdec.qmat import DimSig, ValidationError, kron, trace_distance
from pqdec.states import (
    DensityMatrix,
    PureState,
    append_maximally_mixed,
    as_density,
    classically_correlated,
    isotropic,
    max_entangled,
    merge_labels,
    purify,
    random_density,
    random_pure,
    random_separable,
    random_unitary,
    state_from_json,
    state_to_json,
    to_density,
)


def test_density_matrix_shape_checked():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(3) / 3, DimSig((2, 2), ("R", "A")))


def test_pure_state_norm_checked():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]), DimSig((2,), ("Q",)))


def test_marginal():
    rho = random_density(6, 6, 0, labels=("R", "A"), dims=(2, 3))
    r = rho.marginal("R")
    assert r.sig == DimSig((2,), ("R",))
    assert abs(np.trace(r.matrix).real - 1.0) <= 1e-12


def test_max_entangled_vector():
    psi = max_entangled(2)
    want = np.zeros(4)
    want[0] = want[3] = 1.0 / np.sqrt(2.0)
    assert np.allclose(psi.vector, want)
    with pytest.raises(ValidationError):
        max_entangled(1)


def test_to_density_bell_entries_exact():
    rho = to_density(max_entangled(2)).matrix
    assert rho[0, 0].real == 0.5
    assert rho[0, 3].real == 0.5
    assert rho[3, 3].real == 0.5


def test_classically_correlated_structure():
    rho = classically_correlated(
        [0.25, 0.75], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )
    # Flag register is the second factor: blocks are p_i * rho_i.
    assert abs(rho.matrix[0, 0].real - 0.25) <= 1e-12
    assert abs(rho.matrix[3, 3].real - 0.75) <= 1e-12
    marg = rho.marginal("A").matrix
    assert np.allclose(np.diagonal(marg), [0.25, 0.75])


def test_classically_correlated_errors():
    good = np.eye(2) / 2
    with pytest.raises(ValidationError):
        classically_correlated([0.5], [good, good])
    with pytest.raises(ValidationError):
        classically_correlated([0.7, 0.7], [good, good])
    with pytest.raises(ValidationError):
        classically_correlated([0.5, 0.5], [good, np.eye(3) / 3])


@pytest.mark.parametrize("p", [[np.nan, np.nan], [np.inf, 0.0]])
def test_classically_correlated_rejects_non_finite_weights(p):
    # [nan, nan] used to pass the weight check and fail later, as a density
    # matrix with non-finite entries.
    with pytest.raises(ValidationError, match="weights have non-finite"):
        classically_correlated(p, [np.eye(2) / 2, np.eye(2) / 2])


@pytest.mark.parametrize(
    "p, match",
    [(["a", "b"], "not a vector of numbers: .*'a'"), ([[0.5], [0.5]], r"shape \(2, 1\)")],
)
def test_classically_correlated_rejects_malformed_weights(p, match):
    with pytest.raises(ValidationError, match=match):
        classically_correlated(p, [np.eye(2) / 2, np.eye(2) / 2])


def test_append_maximally_mixed_and_merge():
    bell = to_density(max_entangled(2))
    big = append_maximally_mixed(bell, 2, "Ax")
    assert big.sig == DimSig((2, 2, 2), ("R", "A", "Ax"))
    assert abs(mutual_information(big, "R", "Ax")) <= 1e-12
    fused = merge_labels(big, ("A", "Ax"), "AAx")
    assert fused.sig == DimSig((2, 4), ("R", "AAx"))
    assert abs(mutual_information(fused, "R", "AAx") - 2.0) <= 1e-12
    with pytest.raises(ValidationError):
        merge_labels(big, ("R", "Ax"))
    with pytest.raises(ValidationError):
        append_maximally_mixed(bell, 2, "A")


def test_isotropic_limits():
    assert trace_distance(isotropic(2, 1.0).matrix, to_density(max_entangled(2)).matrix) <= 1e-12
    assert trace_distance(isotropic(2, 0.25).matrix, np.eye(4) / 4) <= 1e-12
    with pytest.raises(ValidationError):
        isotropic(2, 1.5)


def test_random_density_properties():
    for seed in range(5):
        rho = random_density(4, 2, seed)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[0] >= -1e-12
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.sum(w > 1e-9) == 2
    assert np.array_equal(random_density(4, 4, 3).matrix, random_density(4, 4, 3).matrix)
    assert not np.array_equal(random_density(4, 4, 3).matrix, random_density(4, 4, 4).matrix)
    with pytest.raises(ValidationError):
        random_density(4, 5, 0)
    with pytest.raises(ValidationError):
        random_density(4, 4, 0, labels=("R", "A"), dims=(2, 3))


def test_random_pure_norm_and_determinism():
    a = random_pure([2, 3], 9)
    b = random_pure([2, 3], 9)
    assert abs(np.linalg.norm(a.vector) - 1.0) <= 1e-12
    assert np.array_equal(a.vector, b.vector)
    assert a.sig.labels == ("Q0", "Q1")


def test_random_unitary_is_unitary_and_deterministic():
    for d in (2, 4):
        u = random_unitary(d, 5)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10
    assert np.array_equal(random_unitary(3, 1), random_unitary(3, 1))


def test_random_separable_is_ppt():
    # Partial transposition keeps separable states positive, an independent
    # witness that the sampler really mixes product states.
    for seed in range(6):
        rho = random_separable(2, 2, 3, seed)
        m = rho.matrix.reshape(2, 2, 2, 2)
        pt = m.transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.linalg.eigvalsh(pt)[0] >= -1e-10


def test_purify_recovers_state():
    for seed in range(4):
        rho = random_density(4, 3, seed, labels=("R", "A"), dims=(2, 2))
        psi = purify(rho)
        assert psi.sig.labels[0] == "S"
        assert psi.sig.dims[0] == 3
        back = to_density(psi).marginal(("R", "A"))
        assert trace_distance(back.matrix, rho.matrix) <= 1e-10
        assert entropy(to_density(psi)) <= 1e-9
    with pytest.raises(ValidationError):
        purify(random_density(2, 2, 0, labels=("S",)))


def test_purify_accepts_what_the_density_tolerance_accepts():
    # A Hermitian defect of 5e-10 is within the 1e-9 every DensityMatrix is
    # held to; purify used to reject it at a tighter 1e-10 of its own.
    rho = random_density(4, 4, 1, labels=("R", "A"), dims=(2, 2))
    m = rho.matrix.copy()
    m[0, 1] += 5e-10
    back = to_density(purify(DensityMatrix(m, rho.sig))).marginal(("R", "A"))
    assert trace_distance(back.matrix, rho.matrix) <= 1e-9


def test_purifier_dimension_is_rank():
    pure_in = to_density(max_entangled(2))
    assert purify(pure_in).sig.dims[0] == 1


def test_json_round_trip_bit_for_bit():
    for seed in range(3):
        rho = random_density(6, 4, seed, labels=("R", "A"), dims=(2, 3))
        back = state_from_json(state_to_json(rho))
        assert back.sig == rho.sig
        assert np.array_equal(back.matrix, rho.matrix)


def test_json_rejects_malformed_documents():
    with pytest.raises(ValidationError):
        state_from_json("not json at all")
    with pytest.raises(ValidationError):
        state_from_json('{"labels": ["R"], "dims": [2]}')
    with pytest.raises(ValidationError):
        state_from_json('{"labels": ["R"], "dims": [2], "matrix": [[1.0, 0.0]]}')


@pytest.mark.parametrize(
    "key, value",
    [("labels", "RA"), ("labels", {"R": 1, "A": 2}), ("labels", 5), ("dims", "22"), ("dims", 4)],
    ids=["labels_string", "labels_dict", "labels_number", "dims_string", "dims_number"],
)
def test_json_labels_and_dims_must_be_lists(key, value):
    # A string or a dict of labels used to load as its characters or keys.
    doc = json.loads(state_to_json(to_density(max_entangled(2))))
    doc[key] = value
    with pytest.raises(ValidationError, match=f"malformed state document: '{key}' must be a list"):
        state_from_json(json.dumps(doc))


def test_as_density_cleans_but_validates():
    m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    rho = as_density(m, DimSig((2,), ("Q",)))
    assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0
    with pytest.raises(ValidationError):
        as_density(np.diag([1.5, -0.5]).astype(complex), DimSig((2,), ("Q",)))


def test_as_density_checks_once(monkeypatch):
    # The constructor keeps the cleaned copy of its one check; the copy used
    # to be checked again, a second eigendecomposition per state.
    calls = []
    check = qmat.validate_density
    monkeypatch.setattr(qmat, "validate_density", lambda *a: calls.append(1) or check(*a))
    rho = random_density(4, 4, 5, labels=("R", "A"), dims=(2, 2))
    loose = as_density(np.diag([1.0 + 5e-7, -5e-7]).astype(complex), DimSig((2,), ("Q",)), 1e-6)
    assert calls == [1, 1] and np.linalg.eigvalsh(loose.matrix)[0] >= 0.0
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)


def test_product_state_mutual_information_zero():
    a = random_density(2, 2, 1).matrix
    b = random_density(2, 2, 2).matrix
    rho = DensityMatrix(kron(a, b), DimSig((2, 2), ("R", "A")))
    assert abs(mutual_information(rho, "R", "A")) <= 1e-9
