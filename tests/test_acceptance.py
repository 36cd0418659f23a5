"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names themselves carry the same numbering.  Closed-form
claims use a 1e-9 tolerance, optimizer claims use the documented slacks, and
the stated wall-clock budgets are asserted where a claim carries one.  Each
criterion computes its claim with the function in ``pqdec.scenarios`` that
the matching ``pqdec verify`` scenario also calls; criteria 06c (the qubit
measurement grid), 08 (the isotropic oracle), 11 and 12 live here only.
"""

import functools
import time

import numpy as np

from pqdec import scenarios as scn
from pqdec.decoupling import (
    FEASIBLE_TOL,
    UNBOUNDED,
    OptimizerOptions,
    apply_isometry,
    decoupling_scores,
    half_qmi_upper,
    optimize_xi,
    povm_upper,
    prop1_lower,
    xi_infinity,
)
from pqdec.entropics import coherent_information, mutual_information, subsystem_entropy
from pqdec.isometries import RankOnePovm, povm_isometry
from pqdec.qmat import kron
from pqdec.states import (
    DensityMatrix,
    isotropic,
    max_entangled,
    random_density,
    random_pure,
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


@functools.cache
def _criterion_06_rows():
    """Criterion 06's 50 random 2x2 states, searched once for 06 and 06c,
    and the seconds the searches took."""
    start = time.perf_counter()
    rows = scn.bound_sandwich((2, 2), 50, 600, restarts=6, iterations=800)
    return rows, time.perf_counter() - start


def test_criterion_06_bound_sandwich_on_random_states():
    rows, elapsed = _criterion_06_rows()
    violations, worst_slack = _sandwich_summary(rows)
    ok = violations == 0 and elapsed < 600.0
    report(
        6,
        ok,
        f"{violations} sandwich violations over 50 states "
        f"(worst slack {worst_slack:.2e}), {elapsed:.0f}s (cap 600s)",
    )


def _qubit_bases(theta, phi):
    """The basis vectors b_0 = (cos t/2, e^(i p) sin t/2) and b_1, orthogonal
    to it, of the Bloch points (t, p): arrays of shape (n, 2) each."""
    c, s = np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)
    return np.stack([c, s], axis=-1), np.stack([-s.conj(), c], axis=-1)


def _measured_information(rho4, theta, phi):
    """I(R:X) of measuring A of a 2x2 state in each basis, in closed form.

    I(R:X) = S(R) + H(p) - sum_k S(sigma_k), with sigma_k = <b_k| rho |b_k>
    the unnormalized block of outcome k, p_k = tr sigma_k, and S taken on
    the unnormalized blocks.  ``rho4`` is rho as (r, a, r', a')."""

    def entropy(lam):
        lam = np.clip(lam, 0.0, None)
        return -np.sum(np.where(lam > 0, lam * np.log2(np.where(lam > 0, lam, 1.0)), 0.0), axis=-1)

    total = entropy(np.linalg.eigvalsh(np.einsum("rasa->rs", rho4)))
    for b in _qubit_bases(theta, phi):
        sigma = np.einsum("na,rasc,nc->nrs", b.conj(), rho4, b)
        p = np.trace(sigma, axis1=1, axis2=2).real
        total = total - p * np.log2(p) - entropy(np.linalg.eigvalsh(sigma))
    return total


def _grid_minimum(rho):
    """Least closed-form I(R:X) over qubit bases: a 41 x 80 (theta, phi) grid
    of the Bloch hemisphere, then 8 zooms of an 11 x 11 grid around the
    best point so far, each 4x smaller; 4,248 bases.  Returns (value, theta,
    phi)."""
    rho4 = rho.matrix.reshape(2, 2, 2, 2)
    theta, phi = np.meshgrid(np.linspace(0, np.pi / 2, 41), np.arange(80) * (2 * np.pi / 80))
    half = np.array([np.pi / 80, np.pi / 40])  # the coarse grid's step in theta and phi
    best = None
    for _ in range(9):
        values = _measured_information(rho4, theta.ravel(), phi.ravel())
        k = int(np.argmin(values))
        if best is None or values[k] < best[0]:
            best = (values[k], theta.ravel()[k], phi.ravel()[k])
        offsets = np.linspace(-1.0, 1.0, 11)
        theta, phi = np.meshgrid(best[1] + half[0] * offsets, best[2] + half[1] * offsets)
        half = half / 4
    return best


def test_criterion_06c_qubit_measurements_searched_to_the_grid_minimum():
    """Neither search ends above the least I(R:X) over qubit bases.

    On d_A = 2 every projective measurement is a point (theta, phi) of the
    Bloch hemisphere, scored here in closed form with no search code.  The
    grid and its zooms are a check by refinement, not a proof: they may end
    above the true minimum (by up to 3.6e-5 on these states), never below
    it, so a search result above the grid minimum is a missed global
    optimum.  A dense grid of 320,000 bases on 40 other random 2x2 states
    never went below ``povm_upper`` either.  The best basis is re-scored
    through ``apply_isometry`` and ``decoupling_scores``, which checks the
    closed form itself.
    """
    rows, _ = _criterion_06_rows()
    worst_povm = worst_search = worst_rescore = -np.inf
    for row in rows:
        rho = random_density(4, 4, row.seed, labels=("R", "A"), dims=(2, 2))
        least, theta, phi = _grid_minimum(rho)
        b0, b1 = _qubit_bases(np.array([theta]), np.array([phi]))
        v = povm_isometry(RankOnePovm((b0[0], b1[0])))
        i_rb, i_re, _ = decoupling_scores(apply_isometry(rho, v))
        worst_rescore = max(worst_rescore, abs(i_rb - least), abs(i_re - least))
        worst_povm = max(worst_povm, row.bounds.povm_upper - least)
        worst_search = max(worst_search, row.outcome.i_rb - least)
    ok = worst_povm <= 1e-9 and worst_search <= 1e-9 and worst_rescore <= 1e-9
    report(
        "6c",
        ok,
        f"povm_upper - grid min <= {worst_povm:.2e}, estimate - grid min <= "
        f"{worst_search:.2e} (tol 1e-9), re-scored within {worst_rescore:.2e} over 50 states",
    )


def test_criterion_06b_bound_sandwich_on_3x3_states():
    start = time.perf_counter()
    rows = scn.bound_sandwich((3, 3), 10, 3300, restarts=4, iterations=600)
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


def test_criterion_12_pure_states_exact_at_every_eps():
    # On a pure input the optimum is prop1_lower at every privacy level, so
    # the search must reach it, not merely stay below the upper bounds.
    start = time.perf_counter()
    failures, lo, hi = [], 0.0, 0.0
    for d in (2, 3, 4):
        for s in range(8):
            rho = to_density(random_pure([d, d], 900 + s, labels=("R", "A")))
            s_a = subsystem_entropy(rho, "A")
            opts = OptimizerOptions(restarts=4, iterations=600, seed=s)
            for frac in (0.0, 0.1, 0.5, 0.9, 1.2):
                out = optimize_xi(rho, frac * s_a, opts)
                gap = out.i_rb - prop1_lower(rho, frac * s_a)
                lo, hi = min(lo, gap), max(hi, gap)
                if not (out.feasible and out.converged and -FEASIBLE_TOL <= gap <= 1e-6):
                    failures.append((d, s, frac, gap, out.feasible, out.converged))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(
        12,
        ok,
        f"{len(failures)} of 120 pure-state searches off prop1_lower "
        f"(gaps in [{lo:.1e}, {hi:.1e}], tol [-{FEASIBLE_TOL:g}, 1e-6]), {elapsed:.1f}s (cap 10s)",
    )
