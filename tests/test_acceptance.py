"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names themselves carry the same numbering.  Closed-form
claims use a 1e-9 tolerance, optimizer claims use the documented slacks, and
the stated wall-clock budgets are asserted where a claim carries one.  Each
criterion computes its claim with the function in ``pqdec.scenarios`` that
the matching ``pqdec verify`` scenario also calls; criteria 08 (the
isotropic oracle) and 11 live here only.
"""

import time

from pqdec import scenarios as scn
from pqdec.decoupling import (
    UNBOUNDED,
    OptimizerOptions,
    half_qmi_upper,
    optimize_xi,
    povm_upper,
    prop1_lower,
    xi_infinity,
)
from pqdec.entropics import coherent_information, mutual_information
from pqdec.qmat import kron
from pqdec.states import (
    DensityMatrix,
    isotropic,
    max_entangled,
    random_density,
    random_unitary,
    to_density,
)

BELL = to_density(max_entangled(2))


def report(num: int | str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_classical_shredding_all_dims():
    start = time.perf_counter()
    worst = scn.shredding_residue(weight_seed=100, state_seed=200)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"shredded residue {worst:.2e} (tol 1e-9), {elapsed:.2f}s (cap 1s)")


def test_criterion_02_pure_state_conservation():
    start = time.perf_counter()
    worst = scn.conservation_defect(100, state_seed=300, theta_seed=7)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"conservation defect {worst:.2e} over 100 pairs (tol 1e-9), {elapsed:.1f}s (cap 10s)")


def test_criterion_03_bell_state_xi():
    start = time.perf_counter()
    row = scn.sandwich_row(BELL, 0, restarts=32, iterations=2000)
    xi, lower = row.outcome.i_rb, row.bounds.prop1_lower
    pu, half = row.bounds.povm_upper, row.bounds.half_qmi_upper
    elapsed = time.perf_counter() - start
    ok = 0.98 <= xi <= 1.02 and lower == 1.0 and pu <= 1.02 and half == 1.0 and elapsed < 60.0
    report(
        3,
        ok,
        f"xi_hat={xi:.6f} in [0.98,1.02], lower={lower} (exact 1), "
        f"povm={pu:.6f}<=1.02, half={half} (exact 1), {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_04_private_randomness_construction():
    worst = scn.randomness_marginal_dev(20, 400)
    ok = worst <= 1e-9
    report(4, ok, f"worst marginal distance {worst:.2e} over 20 states (tol 1e-9)")


def test_criterion_05_bell_plus_one_bit():
    devs = scn.bell_one_bit()
    d_rb, d_re = devs["rb_dev"], devs["re_dev"]
    ok = d_rb <= 1e-9 and d_re <= 1e-9
    report(5, ok, f"kept/discarded marginal distances {d_rb:.2e}, {d_re:.2e} (tol 1e-9)")


def _sandwich_summary(rows) -> tuple[int, float]:
    violations = sum(not (r.lower_ok and r.upper_ok) for r in rows)
    return violations, min(min(r.lower_slack, r.upper_slack) for r in rows)


def test_criterion_06_bound_sandwich_on_random_states():
    start = time.perf_counter()
    rows = scn.bound_sandwich((2, 2), 50, 600, restarts=6, iterations=800)
    violations, worst_slack = _sandwich_summary(rows)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 600.0
    report(
        6,
        ok,
        f"{violations} sandwich violations over 50 states "
        f"(worst slack {worst_slack:.2e}), {elapsed:.0f}s (cap 600s)",
    )


def test_criterion_06b_bound_sandwich_on_3x3_states():
    start = time.perf_counter()
    rows = scn.bound_sandwich(
        (3, 3), 10, 3300, restarts=4, iterations=600, povm_slack=1e-4, half_slack=1e-4
    )
    violations, worst_slack = _sandwich_summary(rows)
    elapsed = time.perf_counter() - start
    ok = violations == 0
    report(
        "6b",
        ok,
        f"{violations} sandwich violations over 10 3x3 states "
        f"(worst slack {worst_slack:.2e}), {elapsed:.0f}s",
    )


def test_criterion_07_monogamy_identity():
    worst = scn.monogamy_defect(50, 700)
    ok = worst <= 1e-9
    report(7, ok, f"identity defect {worst:.2e} over 50 pure states (tol 1e-9)")


def test_criterion_08_separability():
    worst_ic, worst_xi = scn.separable_residues(50, 800)
    xi_exact = worst_xi == 0.0

    # Independent oracle: bisect the fidelity where the coherent information
    # of the isotropic family changes sign.
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if coherent_information(isotropic(2, mid), "A", "R") > 0.0:
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    below_ok = all(
        xi_infinity(isotropic(2, f)) == 0.0 for f in (0.5, crossing - 0.1, crossing - 0.01)
    )
    above_ok = xi_infinity(isotropic(2, crossing + 0.01)) > 0.0
    ok = worst_ic <= 1e-9 and xi_exact and below_ok and above_ok
    report(
        8,
        ok,
        f"max coherent info {worst_ic:.2e} (tol 1e-9), xi exact zeros: {xi_exact}, "
        f"isotropic crossing at f={crossing:.6f} with zeros below: {below_ok}",
    )


def test_criterion_09_random_unitary_pointer_decoupling():
    worst = scn.pointer_residue(1, 900)
    ok = worst <= 1e-9
    report(9, ok, f"post-measurement residue {worst:.2e} over 2- and 3-term mixes (tol 1e-9)")


def test_criterion_10_bell_rates_boundary():
    start = time.perf_counter()
    worst = scn.bell_line([0.0, 0.25, 0.5, 0.75, 1.0], 6, 800, 0)["envelope_dev"]
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 300.0
    report(10, ok, f"envelope deviation from 2-eps: {worst:.2e} (tol 0.05), {elapsed:.0f}s (cap 300s)")


def test_criterion_11_local_unitary_invariance():
    worst_closed = 0.0
    worst_est = 0.0
    for k in range(20):
        rho = random_density(4, 4, 1100 + k, labels=("R", "A"), dims=(2, 2))
        u = kron(random_unitary(2, 1200 + k), random_unitary(2, 1300 + k))
        conj = DensityMatrix(u @ rho.matrix @ u.conj().T, rho.sig)
        closed = [
            (mutual_information(rho, "R", "A"), mutual_information(conj, "R", "A")),
            (
                coherent_information(rho, "A", "R"),
                coherent_information(conj, "A", "R"),
            ),
            (prop1_lower(rho), prop1_lower(conj)),
            (half_qmi_upper(rho), half_qmi_upper(conj)),
            (xi_infinity(rho), xi_infinity(conj)),
        ]
        worst_closed = max(worst_closed, max(abs(a - b) for a, b in closed))
        opts = OptimizerOptions(restarts=4, iterations=400, seed=1100 + k)
        worst_est = max(
            worst_est,
            abs(optimize_xi(rho, UNBOUNDED, opts).i_rb - optimize_xi(conj, UNBOUNDED, opts).i_rb),
            abs(povm_upper(rho, opts) - povm_upper(conj, opts)),
        )
    ok = worst_closed <= 1e-9 and worst_est <= 2e-2
    report(
        11,
        ok,
        f"closed-form drift {worst_closed:.2e} (tol 1e-9), "
        f"optimizer drift {worst_est:.2e} (tol 2e-2) over 20 states",
    )
