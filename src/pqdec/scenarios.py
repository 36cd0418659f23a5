"""The package's main claims, each computed by one function, and named
end-to-end checks built on them.

Each claim function takes the inputs its callers vary (state count, seeds,
privacy grid, optimizer budget) and returns the quantities the claim is
checked on.  The acceptance gate (``tests/test_acceptance.py``), the
``pqdec verify`` scenarios and ``pqdec random-study`` all call these same
functions; only the inputs and tolerances differ.

Each scenario maps its seed to a claim function's inputs and turns the
return value into a dictionary of deviation metrics that must all stay below
its tolerance.  Every scenario includes at least one metric tied to a
strictly positive quantity (an input correlation or a nonzero target), so
that a pass is never vacuous.  Scenario seeds derive from the master seed by
fixed per-scenario offsets.

``pqdec random-study --dims 2 2 --samples 50 --seed 600 --restarts 6
--iterations 800`` prints the bounds and estimates that criterion 06 checks,
and ``--dims 3 3 --samples 10 --seed 3300 --restarts 4 --iterations 600``
those of criterion 06b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import decoupling as dec
from . import entropics as ent
from . import isometries as iso
from . import qmat
from . import states as st

CLOSED_FORM_TOL = 1e-9
OPTIMIZER_TOL = 2e-2
SWEEP_TOL = 5e-2
# Round-off allowance on every side of the bound sandwich.
BOUND_SLACK = 1e-9

__all__ = [
    "SandwichRow", "ScenarioReport", "available_scenarios", "bell_line", "bell_one_bit",
    "bound_sandwich", "conservation_defect", "monogamy_defect", "pointer_residue",
    "randomness_marginal_dev", "run_all", "run_scenario", "sandwich_row",
    "separable_residues", "shredding_residue",
]


def _bell() -> st.DensityMatrix:
    return st.to_density(st.max_entangled(2))


def _residue(out: st.DensityMatrix) -> float:
    """Correlation left with the reference on either output."""
    return max(abs(ent.mutual_information(out, "R", x)) for x in ("B", "E"))


def _monogamy_gap(psi: st.DensityMatrix) -> float:
    halves = sum(0.5 * ent.mutual_information(psi, "R", x) for x in ("A", "B"))
    return abs(halves - ent.subsystem_entropy(psi, "R"))


# ---------------------------------------------------------------------------
# Claims


def shredding_residue(weight_seed: int, state_seed: int) -> float:
    """Largest correlation the basis-unbiased splitting leaves on either
    output of a classically correlated pair, d = 2..5, uniform weights and
    weights drawn from ``weight_seed + d``; conditional state ``i`` draws
    from ``state_seed + 10 d + i``."""
    worst = 0.0
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(weight_seed + d)
        for p in (np.full(d, 1.0 / d), rng.dirichlet(np.ones(d))):
            conds = [st.random_density(d, d, state_seed + 10 * d + i).matrix for i in range(d)]
            rho = st.classically_correlated(p, conds)
            worst = max(worst, _residue(dec.apply_isometry(rho, iso.mub_shredder(d))))
    return worst


def conservation_defect(pairs: int, state_seed: int, theta_seed: int) -> float:
    """Largest ``|I(R:B) + I(R:E) - I(R:A)|`` over ``pairs`` random pure
    inputs (seeds ``state_seed + k``) and random isometries, the first
    columns of Haar unitaries (seeds ``theta_seed + k``)."""
    worst = 0.0
    for k in range(pairs):
        d_r = 2 if k % 2 == 0 else 3
        d_a = 2 if k % 3 == 0 else 3
        rho = st.to_density(st.random_pure([d_r, d_a], state_seed + k, labels=("R", "A")))
        d_b, d_e = (d_a, d_a) if k % 2 == 0 else (2, d_a)
        u = st.random_unitary(d_b * d_e, theta_seed + k)
        v = iso.Isometry(u[:, :d_a], qmat.DimSig((d_b, d_e), ("B", "E")), d_a)
        out = dec.apply_isometry(rho, v)
        i_ra = ent.mutual_information(rho, "R", "A")
        split = ent.mutual_information(out, "R", "B") + ent.mutual_information(out, "R", "E")
        worst = max(worst, abs(split - i_ra))
    return worst


def randomness_marginal_dev(states: int, seed: int) -> float:
    """Largest distance of either output from product form when a uniform
    two-bit register drives Pauli flips on ``states`` random 2x2 inputs
    (seeds ``seed + k``): the correlations are traded for randomness private
    from the reference."""
    worst = 0.0
    for k in range(states):
        rho = st.random_density(4, 4, seed + k, labels=("R", "A"), dims=(2, 2))
        big = st.merge_labels(st.append_maximally_mixed(rho, 4, "Ax"), ("A", "Ax"), "AAx")
        out = dec.apply_isometry(big, iso.pauli_twirl_isometry())
        rho_r = rho.marginal("R").matrix
        worst = max(
            worst,
            qmat.trace_distance(out.marginal(("R", "B")).matrix, qmat.kron(rho_r, np.eye(2) / 2)),
            qmat.trace_distance(out.marginal(("R", "E")).matrix, qmat.kron(rho_r, np.eye(4) / 4)),
        )
    return worst


def bell_one_bit() -> dict[str, float]:
    """The entangled pair plus one random bit through the Bell-basis
    shredder: both outputs' distances from product form, the kept
    correlation and the input correlation ``qmi_in`` (two bits)."""
    big = st.merge_labels(st.append_maximally_mixed(_bell(), 2, "Ax"), ("A", "Ax"), "AAx")
    out = dec.apply_isometry(big, iso.bell_shredder())
    target = qmat.kron(np.eye(2) / 2, np.eye(4) / 4)
    return {
        "rb_dev": qmat.trace_distance(out.marginal(("R", "B")).matrix, target),
        "re_dev": qmat.trace_distance(out.marginal(("R", "E")).matrix, target),
        "kept_mi": abs(ent.mutual_information(out, "R", "B")),
        "qmi_in": ent.mutual_information(big, "R", "AAx"),
    }


class SandwichRow(NamedTuple):
    """One state against ``prop1_lower - BOUND_SLACK <= estimate <=
    min(povm_upper, half_qmi_upper) + BOUND_SLACK``; a slack is the margin
    left on its side, negative on a violation."""

    seed: int
    bounds: dec.BoundsReport
    outcome: dec.DecouplingOutcome
    lower_slack: float
    upper_slack: float

    @property
    def lower_ok(self) -> bool:
        return self.lower_slack >= 0.0

    @property
    def upper_ok(self) -> bool:
        return self.upper_slack >= 0.0


def sandwich_row(rho: st.DensityMatrix, seed: int, restarts: int, iterations: int) -> SandwichRow:
    """Bounds and the unbounded-privacy estimate of one state, both searched
    at ``restarts`` x ``iterations`` from ``seed``, held to the sandwich
    within round-off (``BOUND_SLACK``) on every side."""
    opts = dec.OptimizerOptions(restarts=restarts, iterations=iterations, seed=seed)
    bounds = dec.bounds_report(rho, dec.UNBOUNDED, opts)
    outcome = dec.optimize_xi(rho, dec.UNBOUNDED, opts)
    upper = min(bounds.povm_upper, bounds.half_qmi_upper) + BOUND_SLACK
    lower_slack = outcome.i_rb - (bounds.prop1_lower - BOUND_SLACK)
    return SandwichRow(seed, bounds, outcome, lower_slack, upper - outcome.i_rb)


def bound_sandwich(
    dims: Sequence[int], samples: int, seed: int, restarts: int, iterations: int
) -> list[SandwichRow]:
    """:func:`sandwich_row` on ``samples`` full-rank random states on
    ``dims = (d_R, d_A)``; sample ``k`` seeds its state and search with
    ``seed + k``.  Dimensions and ``samples`` follow :func:`qmat.count`
    (at least 1)."""
    d_r, d_a = (qmat.count(d, 1, "dimension") for d in dims)
    rows = []
    for k in range(qmat.count(samples, 1, "samples")):
        rho = st.random_density(d_r * d_a, d_r * d_a, seed + k, labels=("R", "A"), dims=(d_r, d_a))
        rows.append(sandwich_row(rho, seed + k, restarts, iterations))
    return rows


def monogamy_defect(states: int, seed: int) -> float:
    """Largest ``|I(R:A)/2 + I(R:B)/2 - S(R)|`` over ``states`` random
    three-qubit pure states (seeds ``seed + k``)."""
    pure = (st.random_pure([2, 2, 2], seed + k, labels=("R", "A", "B")) for k in range(states))
    return max((_monogamy_gap(st.to_density(psi)) for psi in pure), default=0.0)


def separable_residues(states: int, seed: int) -> tuple[float, float]:
    """Largest coherent information, either way, and largest many-copy
    residue over ``states`` random separable 2x2 states (seeds ``seed + k``)."""
    worst_ic = -math.inf
    worst_xi = 0.0
    for k in range(states):
        rho = st.random_separable(2, 2, 3 + k % 3, seed + k)
        worst_ic = max(
            worst_ic,
            ent.coherent_information(rho, "A", "R"),
            ent.coherent_information(rho, "R", "A"),
        )
        worst_xi = max(worst_xi, abs(dec.xi_infinity(rho)))
    return worst_ic, worst_xi


def pointer_residue(mixed_states: int, seed: int) -> float:
    """Largest correlation left once the environment of a 2- or 3-term
    mixed-unitary channel is measured in the pointer basis.  The inputs are
    the entangled pair and ``mixed_states`` random 2x2 states (seeds
    ``seed + 1 + k``); weights draw from ``seed + terms``, unitaries from
    ``seed + 10 + 10 terms + i``."""
    inputs = [_bell()] + [
        st.random_density(4, 4, seed + 1 + k, labels=("R", "A"), dims=(2, 2))
        for k in range(mixed_states)
    ]
    worst = 0.0
    for terms in (2, 3):
        us = [st.random_unitary(2, seed + 10 + 10 * terms + i) for i in range(terms)]
        p = np.random.default_rng(seed + terms).dirichlet(np.ones(terms))
        w = iso.random_unitary_channel_dilation(us, p)
        pointer = iso.RankOnePovm(tuple(np.eye(terms)[i] for i in range(terms)))
        for rho in inputs:
            tau = dec.apply_isometry(rho, w).marginal(("R", "E"))
            worst = max(worst, _residue(dec.apply_isometry(tau, iso.povm_isometry(pointer))))
    return worst


def bell_line(grid: Sequence[float], restarts: int, iterations: int, seed: int) -> dict[str, float]:
    """The entangled pair swept over ``grid``: largest distance of the
    envelope from the exchange line ``2 - eps``, and infeasible points."""
    opts = dec.OptimizerOptions(restarts=restarts, iterations=iterations, seed=seed)
    rows = dec.rates_sweep(_bell(), list(grid), opts).rows
    return {
        "envelope_dev": max(abs(row.xi_envelope - (2.0 - row.eps)) for row in rows),
        "infeasible_points": sum(0.0 if row.feasible else 1.0 for row in rows),
    }


# ---------------------------------------------------------------------------
# Scenarios: each maps its seed to claim inputs and the result to metrics.


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    passed: bool
    metrics: dict[str, float]
    tolerance: float
    seed: int


def _bell_witness() -> float:
    return abs(ent.mutual_information(_bell(), "R", "A") - 2.0)


def _basis_bit() -> st.DensityMatrix:
    return st.classically_correlated([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def _pure_conservation(seed: int) -> dict[str, float]:
    defect = conservation_defect(8, seed, seed + 100)
    return {"conservation_dev": defect, "witness_dev": _bell_witness()}


def _classical_shredding(seed: int) -> dict[str, float]:
    """A basis-unbiased splitting erases classical correlations on both
    outputs, one perfectly readable bit included."""
    basis = _basis_bit()
    out = dec.apply_isometry(basis, iso.mub_shredder(2))
    bit_residue = abs(ent.mutual_information(out, "R", "B"))
    return {
        "residual_mi": max(shredding_residue(seed, seed), bit_residue),
        "witness_dev": abs(ent.mutual_information(basis, "R", "A") - 1.0),
    }


def _twirl_transfers(seed: int) -> dict[str, float]:
    """The twirl splitting moves every bit of correlation into the discarded factor."""
    states = [_bell()]
    for k in range(4):
        d = 2 if k % 2 == 0 else 3
        states.append(st.random_density(2 * d, 2 * d, seed + k, labels=("R", "A"), dims=(2, d)))
    kept = 0.0
    transfer = 0.0
    for rho in states:
        out = dec.apply_isometry(rho, iso.twirl_isometry(rho.sig.dims[1]))
        i_ra = ent.mutual_information(rho, "R", "A")
        kept = max(kept, abs(ent.mutual_information(out, "R", "B")))
        transfer = max(transfer, abs(ent.mutual_information(out, "R", "E") - i_ra))
    return {"kept_mi": kept, "transfer_dev": transfer, "witness_dev": _bell_witness()}


def _private_randomness(seed: int) -> dict[str, float]:
    return {"marginal_dev": randomness_marginal_dev(5, seed), "witness_dev": _bell_witness()}


def _bell_one_bit(seed: int) -> dict[str, float]:
    metrics = bell_one_bit()
    metrics["witness_dev"] = abs(metrics.pop("qmi_in") - 2.0)
    return metrics


def _random_unitary_pointer(seed: int) -> dict[str, float]:
    return {"residual_mi": pointer_residue(1, seed), "witness_dev": _bell_witness()}


def _separable_ic(seed: int) -> dict[str, float]:
    worst_ic, worst_xi = separable_residues(50, seed)
    cc = _basis_bit()
    return {
        "positive_ic": max(worst_ic, 0.0),
        "xi_residual": max(worst_xi, abs(dec.xi_infinity(cc))),
        "witness_dev": abs(ent.mutual_information(cc, "R", "A") - 1.0),
    }


def _monogamy_identity(seed: int) -> dict[str, float]:
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    ghz_state = st.to_density(st.PureState(ghz, qmat.DimSig((2, 2, 2), ("R", "A", "B"))))
    return {
        "identity_dev": max(monogamy_defect(50, seed), _monogamy_gap(ghz_state)),
        "witness_dev": abs(ent.subsystem_entropy(ghz_state, "R") - 1.0),
    }


def _bell_optimizer(seed: int) -> dict[str, float]:
    """The numerical search on an entangled pair must land on one bit, the
    exact optimum pinned between the closed-form bounds."""
    row = sandwich_row(_bell(), seed, restarts=8, iterations=1000)
    return {
        "xi_dev": abs(row.outcome.i_rb - 1.0),
        "povm_dev": max(row.bounds.povm_upper - 1.0, 0.0),
        "lower_dev": abs(row.bounds.prop1_lower - 1.0),
        "infeasible": 0.0 if row.outcome.feasible else 1.0,
    }


def _bell_sweep(seed: int) -> dict[str, float]:
    return bell_line((0.0, 0.5, 1.0), 6, 800, seed)


_SCENARIOS = {
    "pure_conservation": (_pure_conservation, CLOSED_FORM_TOL, 1000),
    "classical_shredding": (_classical_shredding, CLOSED_FORM_TOL, 2000),
    "twirl_transfers": (_twirl_transfers, CLOSED_FORM_TOL, 3000),
    "private_randomness": (_private_randomness, CLOSED_FORM_TOL, 4000),
    "bell_one_bit": (_bell_one_bit, CLOSED_FORM_TOL, 5000),
    "random_unitary_pointer": (_random_unitary_pointer, CLOSED_FORM_TOL, 6000),
    "separable_ic": (_separable_ic, CLOSED_FORM_TOL, 7000),
    "monogamy_identity": (_monogamy_identity, CLOSED_FORM_TOL, 8000),
    "bell_optimizer": (_bell_optimizer, OPTIMIZER_TOL, 9000),
    "bell_sweep": (_bell_sweep, SWEEP_TOL, 10000),
}


def available_scenarios() -> tuple[str, ...]:
    return tuple(_SCENARIOS)


def run_scenario(name: str, seed: int = 0) -> ScenarioReport:
    """Run one scenario; its working seed is the master seed plus a fixed offset."""
    try:
        metrics_of, tol, offset = _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}"
        ) from None
    metrics = metrics_of(seed + offset)
    passed = all(v <= tol for v in metrics.values())
    return ScenarioReport(name, passed, metrics, tol, seed + offset)


def run_all(seed: int = 0) -> list[ScenarioReport]:
    return [run_scenario(name, seed) for name in _SCENARIOS]

