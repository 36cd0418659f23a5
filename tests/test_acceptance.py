"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names themselves carry the same numbering.  Closed-form
claims use a 1e-9 tolerance, optimizer claims use the documented slacks, and
the stated wall-clock budgets are asserted where a claim carries one.
"""

import math
import time

import numpy as np

from pqdec.decoupling import (
    UNBOUNDED,
    OptimizerOptions,
    apply_isometry,
    half_qmi_upper,
    optimize_xi,
    povm_upper,
    prop1_lower,
    rates_sweep,
    xi_infinity,
)
from pqdec.entropics import (
    coherent_information,
    mutual_information,
    subsystem_entropy,
)
from pqdec.isometries import (
    RankOnePovm,
    bell_shredder,
    from_parameters,
    mub_shredder,
    pauli_twirl_isometry,
    povm_isometry,
    random_unitary_channel_dilation,
)
from pqdec.qmat import DimSig, kron, trace_distance
from pqdec.states import (
    DensityMatrix,
    append_maximally_mixed,
    classically_correlated,
    isotropic,
    max_entangled,
    merge_labels,
    random_density,
    random_pure,
    random_separable,
    random_unitary,
    to_density,
)

BELL = to_density(max_entangled(2))


def report(num: int | str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_classical_shredding_all_dims():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(100 + d)
        for p in (np.full(d, 1.0 / d), rng.dirichlet(np.ones(d))):
            conds = [random_density(d, d, 200 + 10 * d + i).matrix for i in range(d)]
            rho = classically_correlated(p, conds)
            out = apply_isometry(rho, mub_shredder(d))
            worst = max(
                worst,
                abs(mutual_information(out, "R", "B")),
                abs(mutual_information(out, "R", "E")),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"shredded residue {worst:.2e} (tol 1e-9), {elapsed:.2f}s (cap 1s)")


def test_criterion_02_pure_state_conservation():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(7)
    for k in range(100):
        d_r = 2 if k % 2 == 0 else 3
        d_a = 2 if k % 3 == 0 else 3
        rho = to_density(random_pure([d_r, d_a], 300 + k, labels=("R", "A")))
        d_b, d_e = (d_a, d_a) if k % 2 == 0 else (2, d_a)
        theta = rng.standard_normal((d_b * d_e) ** 2)
        out = apply_isometry(rho, from_parameters(theta, d_a, d_b, d_e))
        i_ra = mutual_information(rho, "R", "A")
        split = mutual_information(out, "R", "B") + mutual_information(out, "R", "E")
        worst = max(worst, abs(split - i_ra))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"conservation defect {worst:.2e} over 100 pairs (tol 1e-9), {elapsed:.1f}s (cap 10s)")


def test_criterion_03_bell_state_xi():
    start = time.perf_counter()
    opts = OptimizerOptions(restarts=32, iterations=2000, seed=0)
    out = optimize_xi(BELL, UNBOUNDED, opts)
    pu = povm_upper(BELL, opts)
    lower = prop1_lower(BELL)
    half = half_qmi_upper(BELL)
    elapsed = time.perf_counter() - start
    ok = (
        0.98 <= out.i_rb <= 1.02
        and lower == 1.0
        and pu <= 1.02
        and half == 1.0
        and elapsed < 60.0
    )
    report(
        3,
        ok,
        f"xi_hat={out.i_rb:.6f} in [0.98,1.02], lower={lower} (exact 1), "
        f"povm={pu:.6f}<=1.02, half={half} (exact 1), {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_04_private_randomness_construction():
    worst = 0.0
    for k in range(20):
        rho = random_density(4, 4, 400 + k, labels=("R", "A"), dims=(2, 2))
        big = merge_labels(append_maximally_mixed(rho, 4, "Ax"), ("A", "Ax"), "AAx")
        out = apply_isometry(big, pauli_twirl_isometry())
        rho_r = rho.marginal("R").matrix
        worst = max(
            worst,
            trace_distance(out.marginal(("R", "B")).matrix, kron(rho_r, np.eye(2) / 2)),
            trace_distance(out.marginal(("R", "E")).matrix, kron(rho_r, np.eye(4) / 4)),
        )
    ok = worst <= 1e-9
    report(4, ok, f"worst marginal distance {worst:.2e} over 20 states (tol 1e-9)")


def test_criterion_05_bell_plus_one_bit():
    big = merge_labels(append_maximally_mixed(BELL, 2, "Ax"), ("A", "Ax"), "AAx")
    out = apply_isometry(big, bell_shredder())
    target = kron(np.eye(2) / 2, np.eye(4) / 4)
    d_rb = trace_distance(out.marginal(("R", "B")).matrix, target)
    d_re = trace_distance(out.marginal(("R", "E")).matrix, target)
    ok = d_rb <= 1e-9 and d_re <= 1e-9
    report(5, ok, f"kept/discarded marginal distances {d_rb:.2e}, {d_re:.2e} (tol 1e-9)")


def test_criterion_06_bound_sandwich_on_random_states():
    start = time.perf_counter()
    violations = 0
    worst_slack = math.inf
    for k in range(50):
        rho = random_density(4, 4, 600 + k, labels=("R", "A"), dims=(2, 2))
        opts = OptimizerOptions(restarts=6, iterations=800, seed=600 + k)
        est = optimize_xi(rho, UNBOUNDED, opts).i_rb
        lower = prop1_lower(rho)
        upper = min(povm_upper(rho, opts) + 2e-2, half_qmi_upper(rho) + 1e-6)
        lo_slack = est - (lower - 1e-6)
        hi_slack = upper - est
        worst_slack = min(worst_slack, lo_slack, hi_slack)
        if lo_slack < 0 or hi_slack < 0:
            violations += 1
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
    violations = 0
    worst_slack = math.inf
    for k in range(10):
        rho = random_density(9, 9, 3300 + k, labels=("R", "A"), dims=(3, 3))
        opts = OptimizerOptions(restarts=4, iterations=600, seed=3300 + k)
        est = optimize_xi(rho, UNBOUNDED, opts).i_rb
        lower = prop1_lower(rho)
        upper = min(povm_upper(rho, opts), half_qmi_upper(rho)) + 1e-4
        lo_slack = est - (lower - 1e-6)
        hi_slack = upper - est
        worst_slack = min(worst_slack, lo_slack, hi_slack)
        if lo_slack < 0 or hi_slack < 0:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    report(
        "6b",
        ok,
        f"{violations} sandwich violations over 10 3x3 states "
        f"(worst slack {worst_slack:.2e}), {elapsed:.0f}s",
    )


def test_criterion_07_monogamy_identity():
    worst = 0.0
    for k in range(50):
        psi = to_density(random_pure([2, 2, 2], 700 + k, labels=("R", "A", "B")))
        lhs = 0.5 * mutual_information(psi, "R", "A") + 0.5 * mutual_information(
            psi, "R", "B"
        )
        worst = max(worst, abs(lhs - subsystem_entropy(psi, "R")))
    ok = worst <= 1e-9
    report(7, ok, f"identity defect {worst:.2e} over 50 pure states (tol 1e-9)")


def test_criterion_08_separability():
    worst_ic = -math.inf
    xi_exact = True
    for k in range(50):
        rho = random_separable(2, 2, 3 + k % 3, 800 + k)
        worst_ic = max(
            worst_ic,
            coherent_information(rho, "A", "R"),
            coherent_information(rho, "R", "A"),
        )
        xi_exact = xi_exact and xi_infinity(rho) == 0.0

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
    worst = 0.0
    inputs = [
        to_density(max_entangled(2)),
        random_density(4, 4, 901, labels=("R", "A"), dims=(2, 2)),
    ]
    for terms in (2, 3):
        us = [random_unitary(2, 910 + 10 * terms + i) for i in range(terms)]
        p = np.random.default_rng(900 + terms).dirichlet(np.ones(terms))
        w = random_unitary_channel_dilation(us, p)
        pointer = RankOnePovm(tuple(np.eye(terms)[i] for i in range(terms)))
        for rho in inputs:
            tau = apply_isometry(rho, w).marginal(("R", "E"))
            out = apply_isometry(tau, povm_isometry(pointer))
            worst = max(
                worst,
                abs(mutual_information(out, "R", "B")),
                abs(mutual_information(out, "R", "E")),
            )
    ok = worst <= 1e-9
    report(9, ok, f"post-measurement residue {worst:.2e} over 2- and 3-term mixes (tol 1e-9)")


def test_criterion_10_bell_rates_boundary():
    start = time.perf_counter()
    opts = OptimizerOptions(restarts=6, iterations=800, seed=0)
    res = rates_sweep(BELL, [0.0, 0.25, 0.5, 0.75, 1.0], opts)
    worst = max(abs(row.xi_envelope - (2.0 - row.eps)) for row in res.rows)
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
