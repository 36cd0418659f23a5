import math
from dataclasses import replace

import numpy as np
import pytest

from pqdec import decoupling as dec
from pqdec.decoupling import (
    UNBOUNDED,
    OptimizerOptions,
    apply_isometry,
    bounds_report,
    decoupling_scores,
    half_qmi_upper,
    optimize_xi,
    outcome_isometry,
    povm_upper,
    prop1_lower,
    rates_sweep,
    xi_infinity,
)
from pqdec.entropics import coherent_information, mutual_information
from pqdec.isometries import (
    RankOnePovm,
    fourier_basis,
    from_parameters,
    mub_shredder,
    povm_isometry,
    twirl_isometry,
)
from pqdec.qmat import DimSig, ValidationError, kron
from pqdec.states import (
    DensityMatrix,
    classically_correlated,
    max_entangled,
    random_density,
    random_pure,
    random_separable,
    to_density,
)

BELL = to_density(max_entangled(2))
CC_BIT = classically_correlated([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
FAST = OptimizerOptions(restarts=4, iterations=400, seed=0)


def product_state():
    a = random_density(2, 2, 3).matrix
    b = random_density(2, 2, 4).matrix
    return DensityMatrix(kron(a, b), DimSig((2, 2), ("R", "A")))


class TestApplyIsometry:
    def test_identity_embedding_keeps_everything(self):
        v = from_parameters(np.zeros(4), 2, 2, 1)
        out = apply_isometry(BELL, v)
        assert out.sig.labels == ("R", "B", "E")
        assert abs(mutual_information(out, "R", "B") - 2.0) <= 1e-12
        assert abs(mutual_information(out, "R", "E")) <= 1e-12

    def test_twirl_on_bell_decouples_kept_output(self):
        out = apply_isometry(BELL, twirl_isometry(2))
        rb = out.marginal(("R", "B")).matrix
        assert np.max(np.abs(rb - np.eye(4) / 4)) <= 1e-12

    def test_trace_preserved(self):
        for seed in range(3):
            rho = random_density(4, 4, seed, labels=("R", "A"), dims=(2, 2))
            out = apply_isometry(rho, mub_shredder(2))
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            apply_isometry(BELL, mub_shredder(3))


class TestDecouplingScores:
    def test_product_state_scores_zero(self):
        m = kron(np.eye(2) / 2, kron(np.eye(2) / 2, np.eye(2) / 2))
        rho = DensityMatrix(m, DimSig((2, 2, 2), ("R", "B", "E")))
        i_rb, i_re, swapped = decoupling_scores(rho)
        assert abs(i_rb) <= 1e-9 and abs(i_re) <= 1e-9
        assert not swapped

    def test_twirl_output_triggers_canonical_swap(self):
        out = apply_isometry(BELL, twirl_isometry(2))
        i_rb, i_re, swapped = decoupling_scores(out)
        assert abs(i_rb - 2.0) <= 1e-9
        assert abs(i_re) <= 1e-9
        assert swapped

    def test_measurement_output_balances_scores(self):
        vecs = tuple(np.eye(2)[i] for i in range(2))
        out = apply_isometry(CC_BIT, povm_isometry(RankOnePovm(vecs)))
        i_rb, i_re, _ = decoupling_scores(out)
        assert abs(i_rb - i_re) <= 1e-9

    def test_needs_three_factors(self):
        with pytest.raises(ValidationError):
            decoupling_scores(BELL)


class TestClosedFormBounds:
    def test_prop1_on_bell(self):
        assert prop1_lower(BELL, 0.0) == 2.0
        assert prop1_lower(BELL, 1.0) == 1.0
        assert prop1_lower(BELL) == 1.0

    def test_prop1_formula_on_random_states(self):
        for seed in range(5):
            rho = random_density(4, 4, seed, labels=("R", "A"), dims=(2, 2))
            ic = coherent_information(rho, "A", "R")
            for eps in (0.0, 0.3, 1.7):
                want = max(2.0 * ic - eps, ic, 0.0)
                assert abs(prop1_lower(rho, eps) - want) <= 1e-12

    def test_prop1_separable_clamps_to_zero(self):
        rho = random_separable(2, 2, 3, 0)
        assert prop1_lower(rho, 0.5) == 0.0
        assert prop1_lower(rho) == 0.0

    def test_prop1_rejects_negative_eps(self):
        with pytest.raises(ValidationError):
            prop1_lower(BELL, -0.5)
        with pytest.raises(ValidationError):
            prop1_lower(BELL, float("nan"))

    def test_half_qmi_examples(self):
        assert half_qmi_upper(BELL) == 1.0
        assert abs(half_qmi_upper(CC_BIT) - 0.5) <= 1e-12
        assert abs(half_qmi_upper(product_state())) <= 1e-9

    def test_xi_infinity_examples(self):
        assert abs(xi_infinity(BELL) - 1.0) <= 1e-12
        mixed = DensityMatrix(np.eye(4, dtype=complex) / 4, DimSig((2, 2), ("R", "A")))
        assert xi_infinity(mixed) == 0.0
        for seed in range(5):
            assert xi_infinity(random_separable(2, 2, 3, seed)) == 0.0


class TestOptimizerOptions:
    # Each of these used to run (1 restart, 1 L-BFGS iteration per stage) or
    # fail late with a TypeError or a numpy ValueError.
    @pytest.mark.parametrize(
        "fields",
        [
            {"restarts": 0},
            {"restarts": -3},
            {"restarts": True},
            {"iterations": 0},
            {"iterations": math.nan},
            {"iterations": 600.5},
            {"d_b": 2.5},
            {"d_b": -2, "d_e": -2},
            {"povm_elements": math.nan},
            {"seed": -5},
        ],
    )
    def test_rejects_bad_values(self, fields):
        with pytest.raises(ValidationError):
            OptimizerOptions(**fields)

    def test_threads_accepted_and_ignored(self):
        plain = optimize_xi(BELL, UNBOUNDED, FAST)
        threaded = optimize_xi(BELL, UNBOUNDED, replace(FAST, threads=2))
        assert np.array_equal(plain.theta, threaded.theta)


class TestOptimize:
    def test_bell_lands_on_one_bit(self):
        out = optimize_xi(BELL, UNBOUNDED, FAST)
        assert 0.98 <= out.i_rb <= 1.02
        assert out.feasible and out.converged
        assert out.restarts_used >= 1

    def test_classical_bit_fully_shredded_at_zero_leak(self):
        out = optimize_xi(CC_BIT, 0.0, OptimizerOptions(restarts=6, iterations=800, seed=0))
        assert out.i_rb <= 1e-4
        assert out.feasible

    def test_result_between_bounds(self):
        for seed in range(3):
            rho = random_density(4, 4, seed + 20, labels=("R", "A"), dims=(2, 2))
            out = optimize_xi(rho, UNBOUNDED, FAST)
            assert out.i_rb >= prop1_lower(rho) - 1e-6
            assert out.i_rb <= mutual_information(rho, "R", "A") + 1e-6

    def test_feasible_flag_invariant(self):
        for seed in range(3):
            rho = random_density(4, 4, seed + 40, labels=("R", "A"), dims=(2, 2))
            out = optimize_xi(rho, 0.3, FAST)
            if out.feasible:
                assert out.i_re <= min(0.3, out.i_rb) + 1e-6

    def test_deterministic_across_runs_and_threads(self, batch_width):
        # The restarts run in lockstep; the batch width replaces the thread count.
        opts = OptimizerOptions(restarts=4, iterations=300, seed=5)
        a = optimize_xi(BELL, UNBOUNDED, opts)
        b = optimize_xi(BELL, UNBOUNDED, opts)
        batch_width(3)
        c = optimize_xi(BELL, UNBOUNDED, opts)
        assert np.array_equal(a.theta, b.theta)
        assert a.i_rb == b.i_rb and a.i_re == b.i_re
        assert np.array_equal(a.theta, c.theta)
        assert a.restarts_used == c.restarts_used

    def test_search_identical_for_any_thread_count(self, batch_width):
        # A state whose search runs past restart 0, so that batches of 1, 2
        # and 3 restarts are mid-run at different points when the stop rule
        # is met.
        rho = random_density(4, 4, 31, labels=("R", "A"), dims=(2, 2))
        opts = OptimizerOptions(restarts=4, iterations=300, seed=7)
        runs = []
        for width in (1, 2, 3, None):
            batch_width(width)
            out = optimize_xi(rho, UNBOUNDED, opts)
            runs.append((out.theta.tobytes(), out.restarts_used, out.i_rb, povm_upper(rho, opts)))
        assert runs[0][1] >= 2
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("width", [1, 2, 3, None])
    def test_stop_rule_drops_later_restarts_at_any_width(self, batch_width, width):
        # Warm-started at the optimum, restart 0 meets the stop rule; the
        # restarts running beside it in the same batch are dropped.
        first = optimize_xi(BELL, UNBOUNDED, FAST)
        batch_width(width)
        warm = OptimizerOptions(restarts=4, iterations=300, seed=0, warm_theta=first.theta)
        out = optimize_xi(BELL, UNBOUNDED, warm)
        assert out.restarts_used == 1
        assert np.array_equal(out.theta, optimize_xi(BELL, UNBOUNDED, replace(warm, restarts=1)).theta)

    def test_certificate_stable_under_input_perturbation(self):
        # Restarts on these states tie within round-off; picking the exact
        # least i_rb returned another restart's isometry after a 1e-12 or
        # 1e-10 Hermitian perturbation of the input.
        for seed, delta in ((637, 1e-12), (624, 1e-10)):
            rho = random_density(4, 4, seed, labels=("R", "A"), dims=(2, 2))
            g = np.random.default_rng(seed - 600).standard_normal((4, 4, 2)) @ [1, 1j]
            h = g + g.conj().T
            h -= np.trace(h) / 4 * np.eye(4)
            h /= np.max(np.abs(h))
            shifted = DensityMatrix(rho.matrix + delta * h, rho.sig)
            opts = OptimizerOptions(restarts=6, iterations=800, seed=seed)
            a = outcome_isometry(optimize_xi(rho, UNBOUNDED, opts)).matrix
            b = outcome_isometry(optimize_xi(shifted, UNBOUNDED, opts)).matrix
            assert np.max(np.abs(a - b)) <= 1e-6

    def test_three_level_state_feasible_at_zero_leak(self):
        rho = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        for seed in range(5):
            out = optimize_xi(rho, 0.0, OptimizerOptions(restarts=4, iterations=600, seed=seed))
            assert out.feasible and out.i_re <= 1e-6

    def test_three_level_state_reaches_measurement_bound(self):
        rho = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        for seed in range(5):
            opts = OptimizerOptions(restarts=4, iterations=600, seed=seed)
            out = optimize_xi(rho, UNBOUNDED, opts)
            assert abs(out.i_rb - povm_upper(rho, opts)) <= 1e-6
            assert out.converged

    def test_certificate_reproduces_scores(self):
        out = optimize_xi(BELL, UNBOUNDED, FAST)
        replay = apply_isometry(BELL, outcome_isometry(out))
        i_rb, i_re, _ = decoupling_scores(replay)
        assert abs(i_rb - out.i_rb) <= 1e-9
        assert abs(i_re - out.i_re) <= 1e-9

    def test_forced_leak_is_reported_infeasible(self):
        opts = OptimizerOptions(restarts=2, iterations=200, seed=0, d_b=1, d_e=2)
        out = optimize_xi(BELL, 0.5, opts)
        assert not out.feasible
        assert out.i_re >= 1.9

    def test_warm_start_accepted(self):
        first = optimize_xi(BELL, UNBOUNDED, FAST)
        warm = OptimizerOptions(restarts=1, iterations=100, seed=1, warm_theta=first.theta)
        second = optimize_xi(BELL, UNBOUNDED, warm)
        assert second.i_rb <= first.i_rb + 1e-6

    def test_malformed_warm_start_rejected(self):
        for warm in (np.zeros(15), np.full(16, np.nan)):
            opts = OptimizerOptions(restarts=1, iterations=10, warm_theta=warm)
            with pytest.raises(ValidationError):
                optimize_xi(BELL, UNBOUNDED, opts)

    def test_eps_validation(self):
        with pytest.raises(ValidationError):
            optimize_xi(BELL, -1.0, FAST)

    def test_fourier_start_is_the_fourier_measurement(self):
        # Its completion to a unitary has a degenerate eigenvalue -1.
        basis = fourier_basis(4)
        want = np.zeros((20, 4), dtype=complex)
        for m in range(4):
            want[m * 5 + m, :] = basis[:, m].conj()
        theta = dec._measurement_start(basis, 4, 4, 5)
        assert np.max(np.abs(from_parameters(theta, 4, 4, 5).matrix - want)) <= 1e-12


class TestPovmUpper:
    def test_pure_state_pinned_at_reference_entropy(self):
        value = povm_upper(BELL, FAST)
        assert abs(value - 1.0) <= 2e-2

    def test_classical_bit_reaches_zero(self):
        assert povm_upper(CC_BIT, OptimizerOptions(restarts=6, iterations=600, seed=0)) <= 1e-4

    def test_product_state_is_zero(self):
        assert povm_upper(product_state(), FAST) <= 1e-6

    def test_never_exceeds_half_qmi(self):
        for seed in range(5):
            rho = random_density(4, 4, seed + 60, labels=("R", "A"), dims=(2, 2))
            assert povm_upper(rho, FAST) <= half_qmi_upper(rho) + 1e-6


def central_difference(f, theta, h=1e-5):
    grad = np.empty(theta.size)
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        grad[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return grad


def objective(scorer, merit):
    """The search objective and its exact gradient at one theta, through stacks of one."""

    def f(theta):
        return merit(*scorer.scores(theta[None])[0])[0]

    def grad(theta):
        return scorer.gradient(theta[None], [merit])[0]

    return f, grad


def penalized_problem(rho, d_b, d_e, eps, weight):
    d_r, d_a = rho.sig.dims
    scorer = dec._Scorer(rho.matrix, d_r, d_a, d_b, d_e)

    def merit(m_b, m_e):
        return dec._penalized(m_b, m_e, eps, weight, d_b == d_e)

    return (scorer, *objective(scorer, merit))


def measurement_scorer(rho, m):
    d_r, d_a = rho.sig.dims
    return dec._Scorer(rho.matrix, d_r, d_a, m, m, rows=np.arange(m) * m + np.arange(m))


class TestBatchedScorer:
    """A stack of candidates scores each one exactly as a stack of one does."""

    @pytest.mark.parametrize(
        "d, d_b, d_e, m",
        [(2, 2, 2, None), (3, 3, 3, None), (2, 2, 3, None), (2, 2, 2, 2), (2, 3, 3, 3)],
    )
    def test_stack_matches_each_candidate_alone(self, d, d_b, d_e, m):
        rho = random_density(d * d, d * d, 60 + d_b + d_e, labels=("R", "A"), dims=(d, d))
        if m is None:
            scorer = dec._Scorer(rho.matrix, d, d, d_b, d_e)
        else:
            scorer = measurement_scorer(rho, m)
        thetas = np.random.default_rng(d_b * d_e).standard_normal((6, scorer.n**2)) * 0.7
        thetas[0] = 0.0
        merits = [
            lambda m_b, m_e, w=w: dec._penalized(m_b, m_e, 0.01, w, d_b == d_e)
            for w in (0.0, 10.0, 1e2, 1e3, 1e4, 1e5)
        ]
        alone = [
            (scorer.scores(t[None]).tobytes(), scorer.gradient(t[None], [merit]).tobytes())
            for t, merit in zip(thetas, merits)
        ]
        for k in range(1, 7):
            scores = scorer.scores(thetas[:k])
            grads = scorer.gradient(thetas[:k], merits[:k])
            assert scores.shape == (k, 2) and grads.shape == (k, scorer.n**2)
            stacked = [(scores[i : i + 1].tobytes(), grads[i : i + 1].tobytes()) for i in range(k)]
            assert stacked == alone[:k]

    def test_scores_match_the_public_scoring_path(self):
        rho = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        scorer = dec._Scorer(rho.matrix, 3, 3, 3, 3)
        thetas = np.random.default_rng(0).standard_normal((3, 81)) * 0.7
        for theta, (m_b, m_e) in zip(thetas, scorer.scores(thetas)):
            out = apply_isometry(rho, from_parameters(theta, 3, 3, 3))
            assert abs(m_b - mutual_information(out, "R", "B")) <= 1e-12
            assert abs(m_e - mutual_information(out, "R", "E")) <= 1e-12


class TestExactGradient:
    """The closed-form gradient of the search objective against central differences."""

    def assert_matches(self, f, grad, theta):
        exact = grad(theta)
        approx = central_difference(f, theta)
        assert np.all(np.isfinite(exact))
        assert np.linalg.norm(exact - approx) <= 1e-6 * np.linalg.norm(approx)

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetric_unconstrained(self, d):
        rho = random_density(d * d, d * d, 70 + d, labels=("R", "A"), dims=(d, d))
        _, f, grad = penalized_problem(rho, d, d, UNBOUNDED, 0.0)
        theta = np.random.default_rng(d).standard_normal(d**4) * 0.7
        self.assert_matches(f, grad, theta)

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetric_with_active_penalty(self, d):
        rho = random_density(d * d, d * d, 80 + d, labels=("R", "A"), dims=(d, d))
        eps = 0.01
        scorer, f, grad = penalized_problem(rho, d, d, eps, 1000.0)
        theta = np.random.default_rng(10 + d).standard_normal(d**4) * 0.7
        m_b, m_e = scorer.scores(theta[None])[0]
        assert min(m_b, m_e) > eps
        self.assert_matches(f, grad, theta)

    def test_asymmetric_outputs(self):
        rho = random_density(4, 4, 91, labels=("R", "A"), dims=(2, 2))
        for eps, weight in ((UNBOUNDED, 10.0), (0.01, 1000.0)):
            _, f, grad = penalized_problem(rho, 2, 3, eps, weight)
            theta = np.random.default_rng(5).standard_normal(36) * 0.7
            self.assert_matches(f, grad, theta)

    def test_measurement_objective(self):
        rho = random_density(4, 4, 92, labels=("R", "A"), dims=(2, 2))
        rng = np.random.default_rng(6)
        # theta = 0 has a fully degenerate generator spectrum, while the
        # two-outcome measurement keeps every marginal at full rank.
        for m, theta in (
            (2, np.zeros(4)),
            (2, rng.standard_normal(4) * 0.7),
            (3, rng.standard_normal(9) * 0.7),
        ):
            scorer = measurement_scorer(rho, m)
            f, grad = objective(scorer, lambda a, b: (0.5 * (a + b), 0.5, 0.5))
            self.assert_matches(f, grad, theta)

    def test_rank_deficient_marginal(self):
        # At theta = 0 the input goes wholly into E and the B marginal is
        # pure: its entropy is differentiated on its support only.  I(R:E)
        # is at its maximum there, so the gradient vanishes up to rounding,
        # and a step along it moves the objective by rounding only.
        rho = random_density(4, 4, 93, labels=("R", "A"), dims=(2, 2))
        _, f, grad = penalized_problem(rho, 2, 2, UNBOUNDED, 0.0)
        g = grad(np.zeros(16))
        assert np.all(np.isfinite(g)) and np.linalg.norm(g) <= 1e-12
        # A pure input keeps the RB and RE marginals at rank 2 of 4 at every
        # theta, where the gradient is far from zero: it matches central
        # differences and a step against it descends.
        pure = to_density(random_pure((2, 2), 93, labels=("R", "A")))
        _, f, grad = penalized_problem(pure, 2, 2, UNBOUNDED, 0.0)
        theta = np.random.default_rng(93).standard_normal(16) * 0.7
        self.assert_matches(f, grad, theta)
        g = grad(theta)
        assert f(theta - 1e-4 * g / np.linalg.norm(g)) < f(theta) - 1e-6 * np.linalg.norm(g)


class TestBoundsReport:
    def test_bell_report(self):
        rep = bounds_report(BELL, UNBOUNDED, FAST)
        assert rep.qmi == 2.0
        assert abs(rep.ic_a_to_r - 1.0) <= 1e-12
        assert rep.prop1_lower == 1.0
        assert rep.half_qmi_upper == 1.0
        assert abs(rep.povm_upper - 1.0) <= 2e-2
        assert abs(rep.xi_infinity - 1.0) <= 1e-12

    def test_three_level_entangled_pair(self):
        rho = to_density(max_entangled(3))
        rep = bounds_report(rho, UNBOUNDED, OptimizerOptions(restarts=3, iterations=300, seed=0))
        want = math.log2(3.0)
        assert abs(rep.prop1_lower - want) <= 1e-9
        assert abs(rep.half_qmi_upper - want) <= 1e-9
        assert abs(rep.xi_infinity - want) <= 1e-9

    def test_separable_sample(self):
        rep = bounds_report(random_separable(2, 2, 3, 1), UNBOUNDED, FAST)
        assert rep.xi_infinity == 0.0
        assert rep.prop1_lower == 0.0


class TestRatesSweep:
    def test_bell_line(self):
        opts = OptimizerOptions(restarts=6, iterations=800, seed=0)
        res = rates_sweep(BELL, [0.0, 0.5, 1.0], opts)
        for row in res.rows:
            assert abs(row.xi_envelope - (2.0 - row.eps)) <= 0.05
            assert row.feasible

    def test_envelope_is_running_minimum(self):
        res = rates_sweep(BELL, [0.0, 0.5, 1.0], FAST)
        best = math.inf
        for row in res.rows:
            best = min(best, row.xi_raw)
            assert row.xi_envelope == best
        env = [row.xi_envelope for row in res.rows]
        assert all(b <= a + 1e-12 for a, b in zip(env, env[1:]))

    def test_product_state_flatlines(self):
        res = rates_sweep(product_state(), [0.0, 0.5], FAST)
        for row in res.rows:
            assert row.xi_raw <= 1e-6

    def test_classical_bit_all_points_shredded(self):
        opts = OptimizerOptions(restarts=6, iterations=800, seed=0)
        res = rates_sweep(CC_BIT, [0.0, 0.25, 0.5], opts)
        for row in res.rows:
            assert row.xi_raw <= 1e-4

    def test_grid_clipped_at_half_qmi(self):
        opts = OptimizerOptions(restarts=4, iterations=400, seed=0)
        res = rates_sweep(BELL, [5.0, float("inf")], opts)
        unbounded = optimize_xi(BELL, UNBOUNDED, opts)
        for row in res.rows:
            assert abs(row.xi_raw - unbounded.i_rb) <= 2e-2

    def test_csv_shape(self):
        res = rates_sweep(BELL, [0.0, float("inf")], FAST)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == (
            "eps,xi_raw,xi_envelope,i_rb,i_re,prop1_lower,half_qmi_upper,"
            "feasible,restarts_used,converged"
        )
        assert len(lines) == 3
        assert lines[2].startswith("inf,")

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            rates_sweep(BELL, [], FAST)
        with pytest.raises(ValidationError):
            rates_sweep(BELL, [1.0, 0.5], FAST)
        with pytest.raises(ValidationError):
            rates_sweep(BELL, [-0.5, 1.0], FAST)
