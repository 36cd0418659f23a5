import math

import numpy as np
import pytest

from pqdec.entropics import (
    EIGENVALUE_CLAMP,
    coherent_information,
    conditional_mutual_information,
    entropy,
    mutual_information,
    spectrum_entropy,
    subsystem_entropy,
)
from pqdec.qmat import DimSig, kron
from pqdec.states import (
    DensityMatrix,
    classically_correlated,
    max_entangled,
    random_density,
    random_pure,
    to_density,
)


def shannon_bits(ps):
    return -sum(p * math.log2(p) for p in ps if p > 0)


def test_spectrum_entropy_against_shannon_formula():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.dirichlet(np.ones(5))
        assert abs(spectrum_entropy(p) - shannon_bits(p)) <= 1e-12


def test_spectrum_entropy_examples():
    assert spectrum_entropy(np.array([1.0])) == 0.0
    assert not np.signbit(spectrum_entropy(np.array([1.0])))
    assert abs(spectrum_entropy(np.array([0.5, 0.5])) - 1.0) <= 1e-15
    # Frozen high-precision evaluation of -0.25 log2 0.25 - 0.75 log2 0.75.
    assert abs(spectrum_entropy(np.array([0.25, 0.75])) - 0.8112781244591328) <= 1e-14


def test_spectrum_entropy_drops_clamped_weights():
    w = np.array([1.0, EIGENVALUE_CLAMP / 2, -1e-15])
    assert spectrum_entropy(w) == 0.0


def test_entropy_maximally_mixed_and_pure():
    for d in (2, 3, 4):
        mixed = DensityMatrix(np.eye(d, dtype=complex) / d, DimSig((d,), ("Q",)))
        assert abs(entropy(mixed) - math.log2(d)) <= 1e-12
    bell = to_density(max_entangled(2))
    assert entropy(bell) == 0.0


def test_entropy_of_mixture_diagonal():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), DimSig((2,), ("Q",)))
    assert abs(entropy(rho) - 0.8112781244591328) <= 1e-12


def test_subsystem_entropy_of_bell_halves():
    bell = to_density(max_entangled(2))
    assert abs(subsystem_entropy(bell, "R") - 1.0) <= 1e-12
    assert abs(subsystem_entropy(bell, "A") - 1.0) <= 1e-12
    assert abs(subsystem_entropy(bell, ["R", "A"]) - 0.0) <= 1e-12


def test_entropies_within_dimension_bounds():
    for s in range(4):
        rho = random_density(6, 6, s, labels=("R", "A"), dims=(2, 3))
        assert entropy(rho) >= -1e-9
        for label, d in zip(rho.sig.labels, rho.sig.dims):
            assert -1e-9 <= subsystem_entropy(rho, label) <= math.log2(d) + 1e-9


def test_mutual_information_product_state_vanishes():
    rng = np.random.default_rng(8)
    for seed in range(5):
        a = random_density(2, 2, seed).matrix
        b = random_density(3, 3, seed + 50).matrix
        rho = DensityMatrix(kron(a, b), DimSig((2, 3), ("R", "A")))
        assert abs(mutual_information(rho, "R", "A")) <= 1e-9


def test_mutual_information_bell_is_two():
    bell = to_density(max_entangled(2))
    assert mutual_information(bell, "R", "A") == 2.0


def test_mutual_information_larger_entangled_pair():
    # 2 log2(3) bits for the three-level maximally entangled pair.
    rho = to_density(max_entangled(3))
    assert abs(mutual_information(rho, "R", "A") - 3.1699250014423126) <= 1e-12


def test_mutual_information_classical_bit():
    rho = classically_correlated([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert abs(mutual_information(rho, "R", "A") - 1.0) <= 1e-12


def test_mutual_information_nonnegative_on_random_states():
    for seed in range(10):
        rho = random_density(4, 3, seed, labels=("R", "A"), dims=(2, 2))
        assert mutual_information(rho, "R", "A") >= -1e-9


def test_mutual_information_group_arguments():
    psi = to_density(random_pure([2, 2, 2], 4, labels=("R", "A", "B")))
    joint = mutual_information(psi, "R", ["A", "B"])
    chained = mutual_information(psi, "R", "A") + conditional_mutual_information(
        psi, "R", "B", "A"
    )
    assert abs(joint - chained) <= 1e-9


def test_mutual_information_rejects_overlap():
    psi = to_density(random_pure([2, 2], 0, labels=("R", "A")))
    with pytest.raises(ValueError):
        mutual_information(psi, "R", "R")


def test_coherent_information_definition():
    for seed in range(5):
        rho = random_density(4, 4, seed, labels=("R", "A"), dims=(2, 2))
        want = subsystem_entropy(rho, "R") - entropy(rho)
        assert abs(coherent_information(rho, "A", "R") - want) <= 1e-12


def test_coherent_information_bell():
    bell = to_density(max_entangled(2))
    assert abs(coherent_information(bell, "A", "R") - 1.0) <= 1e-12


def test_coherent_information_classical_state_nonpositive():
    rho = classically_correlated([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert coherent_information(rho, "A", "R") <= 1e-12


def test_conditional_mutual_information_nonnegative():
    # Strong subadditivity, on random tripartite mixed states.
    for seed in range(8):
        rho = random_density(8, 5, seed, labels=("R", "A", "B"), dims=(2, 2, 2))
        assert conditional_mutual_information(rho, "R", "B", "A") >= -1e-9


def test_conditional_mutual_information_markov_chain_zero():
    # R correlated with A, B in a product: conditioning on A removes nothing.
    ra = classically_correlated([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    m = kron(ra.matrix, np.eye(2) / 2)
    rho = DensityMatrix(m, DimSig((2, 2, 2), ("R", "A", "B")))
    assert abs(conditional_mutual_information(rho, "R", "B", "A")) <= 1e-9
