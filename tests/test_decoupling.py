import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from pqdec import decoupling as dec
from pqdec import entropics
from pqdec import qmat
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
    Isometry,
    RankOnePovm,
    fourier_basis,
    mub_shredder,
    povm_isometry,
    twirl_isometry,
)
from pqdec.qmat import DimSig, ValidationError, kron, q_factor
from pqdec.scenarios import bell_line
from pqdec.states import (
    DensityMatrix,
    classically_correlated,
    isotropic,
    max_entangled,
    random_density,
    random_pure,
    random_separable,
    random_unitary,
    to_density,
)

BELL = to_density(max_entangled(2))
CC_BIT = classically_correlated([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
FAST = OptimizerOptions(restarts=4, iterations=400, seed=0)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """The stack size of every batched evaluate call made from here on."""
    calls = []
    evaluate = dec._Scorer.evaluate

    def counted(self, p):
        calls.append(len(p))
        return evaluate(self, p)

    monkeypatch.setattr(dec._Scorer, "evaluate", counted)
    return calls


def product_state():
    a = random_density(2, 2, 3).matrix
    b = random_density(2, 2, 4).matrix
    return DensityMatrix(kron(a, b), DimSig((2, 2), ("R", "A")))


class TestApplyIsometry:
    def test_identity_embedding_keeps_everything(self):
        v = Isometry(np.eye(2, dtype=complex), DimSig((2, 1), ("B", "E")), 2)
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
            {"d_e": 0},
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

    def test_smoothing_rounds_identical_for_any_batch_width(self, batch_width, monkeypatch):
        # At 10 L-BFGS iterations per round one restart ends its first round
        # off the kink and asks for trial points at every smoothing width,
        # while the others stop after one round, so at batch widths 1, 2 and
        # 3 the restarts change their smoothing width at different batches.
        rho = random_density(4, 4, 22, labels=("R", "A"), dims=(2, 2))
        opts = OptimizerOptions(restarts=4, iterations=80, seed=7)
        asked = []  # the smoothing width of each trial point
        lbfgs = dec._lbfgs

        def recorded(merit, start, iters, step):
            search, reply = lbfgs(merit, start, iters, step), None
            try:
                while True:
                    ask = search.send(reply)
                    asked.append(merit.keywords["delta"])
                    reply = yield ask
            except StopIteration as done:
                return done.value

        monkeypatch.setattr(dec, "_lbfgs", recorded)
        runs = []
        for width in (1, 2, 3, None):
            batch_width(width)
            out = optimize_xi(rho, UNBOUNDED, opts)
            runs.append((out.theta.tobytes(), out.restarts_used, out.i_rb, out.i_re, out.converged))
        assert runs[0][1] == 4 and set(asked) == set(dec.SMOOTHING_WIDTHS)
        assert all(run == runs[0] for run in runs[1:])

    def test_answers_pinned_at_unbounded_privacy(self):
        # i_rb before the larger share was smoothed, when a restart was one
        # L-BFGS run on the exact maximum.
        pinned = [
            (BELL, 1.0),
            (isotropic(3, 0.5), 0.2555284977961909),
            (random_density(9, 1, 5, labels=("R", "A"), dims=(3, 3)), 1.0722657451640933),
            (random_density(16, 16, 7, labels=("R", "A"), dims=(4, 4)), 0.03659327667424961),
        ]
        for rho, i_rb in pinned:
            out = optimize_xi(rho, UNBOUNDED, FAST)
            assert out.feasible and out.converged
            assert abs(out.i_rb - i_rb) <= 1e-12

    def test_unconstrained_search_evaluation_count(self, evaluate_calls):
        # The 40 study_2x2 states of the bench at seed 1 (criterion-06
        # states, 6 x 800).  One L-BFGS run on the exact larger share
        # zigzagged across the kink m_b = m_e and made 2160 evaluate calls;
        # rounds on the smoothed share made 979, and with trial steps capped
        # at MAX_STEP and the memory restarted on negative curvature they
        # make 800.  The gate is 0.6 x 2160.
        for seed in range(100_000, 100_040):
            rho = random_density(4, 4, seed, labels=("R", "A"), dims=(2, 2))
            optimize_xi(rho, UNBOUNDED, OptimizerOptions(restarts=6, iterations=800, seed=seed))
        assert len(evaluate_calls) <= 0.6 * 2160

    def test_study_evaluation_count(self, evaluate_calls):
        # The bench's study_2x2 op, bounds_report then optimize_xi, on the
        # same 40 states.  Two-loop directions up to 375 long, some of them
        # halved 8 times, and pairs kept past steps with s.y <= 0 made 1811
        # evaluate calls.  Capping every trial step at MAX_STEP and
        # restarting the memory on negative curvature make 1356.  The gate
        # is 0.85 x 1811.
        for seed in range(100_000, 100_040):
            rho = random_density(4, 4, seed, labels=("R", "A"), dims=(2, 2))
            opts = OptimizerOptions(restarts=6, iterations=800, seed=seed)
            bounds_report(rho, UNBOUNDED, opts)
            optimize_xi(rho, UNBOUNDED, opts)
        assert len(evaluate_calls) <= 0.85 * 1811

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

    def test_three_level_state_interior_leak(self):
        # An interior privacy level on the 3x3 state: every row is feasible
        # and within 1e-3 of the converged optimum 0.236669.  A restart
        # started on the measurement family never leaves it, and at this
        # level it stays infeasible there; seeds 5 and 6 show it.
        rho = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        for seed in range(8):
            out = optimize_xi(rho, 0.02, OptimizerOptions(restarts=4, iterations=600, seed=seed))
            assert out.feasible
            assert out.i_rb <= 0.2375

    def test_live_restarts_are_bounded(self, monkeypatch, evaluate_calls):
        # 40 restarts run at most LOCKSTEP_WIDTH = 32 at once, and the result
        # is the one a serial run gives.
        rho = random_density(4, 4, 31, labels=("R", "A"), dims=(2, 2))
        opts = OptimizerOptions(restarts=40, iterations=16, seed=3)
        out = optimize_xi(rho, UNBOUNDED, opts)
        assert out.restarts_used == 40
        assert max(evaluate_calls) == dec.LOCKSTEP_WIDTH == 32
        run = dec._run_restarts
        monkeypatch.setattr(dec, "_run_restarts", lambda *args: run(*args, width=1))
        assert optimize_xi(rho, UNBOUNDED, opts).theta.tobytes() == out.theta.tobytes()

    def test_certificate_reproduces_scores(self):
        out = optimize_xi(BELL, UNBOUNDED, FAST)
        replay = apply_isometry(BELL, outcome_isometry(out))
        i_rb, i_re, _ = decoupling_scores(replay)
        assert abs(i_rb - out.i_rb) <= 1e-9
        assert abs(i_re - out.i_re) <= 1e-9

    def test_unequal_outputs_give_canonical_scores(self):
        # A feasible restart may end with I(R:E) up to FEASIBLE_TOL above
        # I(R:B); it used to be reported in that order, which a replay
        # through decoupling_scores does not reproduce.
        rho = random_density(4, 2, 0, labels=("R", "A"), dims=(2, 2))
        opts = OptimizerOptions(d_b=2, d_e=3, restarts=4, iterations=400, seed=0)
        out = optimize_xi(rho, 0.05, opts)
        assert out.feasible and out.i_rb >= out.i_re
        i_rb, i_re, _ = decoupling_scores(apply_isometry(rho, outcome_isometry(out)))
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
        # The warm start is a 4 x 2 isometry matrix; the 16 parameters of
        # the old generator chart, other shapes, non-numbers, non-finite
        # entries and non-orthonormal columns are all rejected.
        skewed = np.eye(4, 2, dtype=complex)
        skewed[1, 0] = 1e-6
        for warm in (
            np.zeros(15),
            np.zeros(16),
            np.eye(4, 3),
            np.full((4, 2), "a"),
            [[1.0, 0.0], [0.0]],
            np.full((4, 2), np.nan),
            np.ones((4, 2)),
            skewed,
        ):
            opts = OptimizerOptions(restarts=1, iterations=10, warm_theta=warm)
            with pytest.raises(ValidationError):
                optimize_xi(BELL, UNBOUNDED, opts)

    def test_eps_validation(self):
        with pytest.raises(ValidationError):
            optimize_xi(BELL, -1.0, FAST)

    def test_identity_start_is_feasible_at_every_eps(self, evaluate_calls):
        # With equal outputs and d_E >= d_A the identity embedding sends A
        # wholly into E: I(R:B) = 0 meets every constraint, and its larger
        # share I(R:A) costs one evaluation, at which every gradient vanishes.
        cases = [
            (random_density(4, 4, 20, labels=("R", "A"), dims=(2, 2)), {}),
            (random_density(9, 9, 21, labels=("R", "A"), dims=(3, 3)), {}),
            (random_density(4, 4, 22, labels=("R", "A"), dims=(2, 2)), {"d_b": 3, "d_e": 3}),
        ]
        for rho, dims in cases:
            for eps in (0.0, 0.1, UNBOUNDED):
                evaluate_calls.clear()
                out = optimize_xi(rho, eps, OptimizerOptions(restarts=1, iterations=600, **dims))
                assert out.feasible and out.converged
                assert abs(out.i_rb - 2 * half_qmi_upper(rho)) <= 1e-12
                assert len(evaluate_calls) == 1

    def test_fourier_start_is_the_fourier_measurement(self):
        basis = fourier_basis(4)
        want = np.zeros((20, 4), dtype=complex)
        for m in range(4):
            want[m * 5 + m, :] = basis[:, m].conj()
        assert np.array_equal(dec._measurement_start(basis, 4, 4, 5), want)

    def test_measurement_starts_stay_on_the_measurement_family(self, monkeypatch):
        # At eps = inf restarts 1 and 2 start from measurement isometries,
        # whose rows lie on |kk>.  Their R (x) B and R (x) E marginals are
        # block-diagonal, so the gradients have rows only there, and QR keeps
        # that row support: both restarts end on the family, with equal
        # shares.  Swapping B and E alone would keep them only on the larger
        # set of swap-invariant isometries.
        considered = []
        run = dec._run_restarts
        monkeypatch.setattr(
            dec, "_run_restarts", lambda *args: considered.append(run(*args)) or considered[-1]
        )
        off = np.ones(9, dtype=bool)
        off[[0, 4, 8]] = False
        for s in range(5):
            rho = random_density(9, 9, 3000 + s, labels=("R", "A"), dims=(3, 3))
            optimize_xi(rho, UNBOUNDED, OptimizerOptions(restarts=4, iterations=600, seed=s))
            assert len(considered[-1]) >= 3
            for res in considered[-1][1:3]:
                assert np.linalg.norm(res["x"][off]) <= 1e-9
                assert abs(res["i_rb"] - res["i_re"]) <= 1e-9

    @pytest.mark.parametrize(
        "rho, eps, opts",
        [
            (
                random_density(4, 4, 20, labels=("R", "A"), dims=(2, 2)),
                UNBOUNDED,
                OptimizerOptions(restarts=6, iterations=800, seed=0),
            ),
            # The defaults: 32 restarts, whose last round runs in a (31, 9, 3) stack.
            (random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3)), UNBOUNDED, None),
            (
                random_density(4, 2, 0, labels=("R", "A"), dims=(2, 2)),
                0.05,
                OptimizerOptions(d_b=2, d_e=3, restarts=4, iterations=400, seed=0),
            ),
        ],
        ids=["2x2", "3x3-defaults", "unequal-outputs"],
    )
    def test_certificate_owns_its_memory(self, rho, eps, opts):
        # A kept outcome must not keep the stack of the search's last round.
        theta = optimize_xi(rho, eps, opts).theta
        assert theta.base is None
        assert theta.flags.c_contiguous

    def test_array_holding_values_compare_by_identity(self):
        # Field-wise == on an array field would raise "truth value ... is
        # ambiguous", and a generated __hash__ would raise on the array.
        rho = random_density(4, 4, 20, labels=("R", "A"), dims=(2, 2))
        twin = random_density(4, 4, 20, labels=("R", "A"), dims=(2, 2))
        a, b = (optimize_xi(rho, UNBOUNDED, FAST) for _ in range(2))
        assert np.array_equal(a.theta, b.theta)
        pairs = [
            (rho, twin),
            (a, b),
            (outcome_isometry(a), outcome_isometry(b)),
            (max_entangled(2), max_entangled(2)),
            (RankOnePovm(tuple(np.eye(2))), RankOnePovm(tuple(np.eye(2)))),
        ]
        for x, y in pairs:
            assert x == x and x != y
            assert x in [y, x] and x not in [y]
            assert hash(x) != hash(y) and {x, y} == {y, x}
        # Values without arrays still compare by value, and options compare
        # their warm start by value too.
        assert bounds_report(rho, UNBOUNDED, FAST) == bounds_report(twin, UNBOUNDED, FAST)
        assert OptimizerOptions(seed=3) == OptimizerOptions(seed=3)
        warm, copy = OptimizerOptions(warm_theta=a.theta), OptimizerOptions(warm_theta=a.theta.copy())
        assert warm == copy and hash(warm) == hash(copy) and len({warm, copy}) == 1
        others = [OptimizerOptions(), OptimizerOptions(warm_theta=-a.theta),
                  OptimizerOptions(warm_theta=a.theta[:, :1]), replace(warm, seed=1)]
        assert all(warm != other for other in others)
        ragged = OptimizerOptions(warm_theta=[[1, 2], [3]])
        assert ragged == ragged and ragged != replace(ragged, warm_theta=[[1, 2], [3]])
        assert len({ragged, ragged}) == 1
        assert rho.sig == twin.sig and hash(rho.sig) == hash(twin.sig)


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

    def test_values_pinned_bit_for_bit(self):
        # Exact reprs: a change to the measurement search that moves any bit
        # of its result shows here.
        pinned = [
            (BELL, FAST, "1.0"),
            (isotropic(3, 0.5), FAST, "0.25552849779619047"),
            (
                random_density(4, 4, 600, labels=("R", "A"), dims=(2, 2)),
                OptimizerOptions(restarts=6, iterations=800, seed=600),
                "0.00022455607972293734",
            ),
            (
                random_density(9, 9, 3300, labels=("R", "A"), dims=(3, 3)),
                OptimizerOptions(restarts=4, iterations=600, seed=3300),
                "0.05293281222047108",
            ),
        ]
        for rho, opts, value in pinned:
            assert repr(povm_upper(rho, opts)) == value


def random_point(n, d_a, seed):
    """An ``n x d_a`` isometry matrix: the first columns of a Haar unitary."""
    return random_unitary(n, seed)[:, :d_a]


def raw_scores(scorer, ps):
    """The raw (I(R:B), I(R:E)) at the retractions of a stack of points."""
    return scorer.evaluate(ps)[1]


def merit_value(scorer, merit, p):
    """The merit at the retraction of the point ``p``."""
    return merit(*raw_scores(scorer, p[None])[0])[0]


def merit_gradient(scorer, merit, p):
    """The merit's Riemannian gradient at the retraction of ``p``, by the
    chain rule on the gradients of the two scores."""
    _, scores, grads = scorer.evaluate(p[None])
    _, c_b, c_e = merit(*scores[0])
    return c_b * grads[0, 0] + c_e * grads[0, 1]


def penalized_problem(rho, d_b, d_e, eps, lam=(), mu=1.0):
    """The scorer and the augmented Lagrangian with multipliers ``lam`` at penalty ``mu``."""
    d_r, d_a = rho.sig.dims

    def merit(m_b, m_e):
        return dec._lagrangian(m_b, m_e, eps, lam, mu, d_b == d_e)

    return dec._Scorer(rho.matrix, d_r, d_a, d_b, d_e), merit


def measurement_scorer(rho, m):
    d_r, d_a = rho.sig.dims
    return dec._Scorer(rho.matrix, d_r, d_a, m, m, rows=np.arange(m) * m + np.arange(m))


def drive(search, reply):
    """Answer every request of an L-BFGS generator with ``reply(p)``.

    Returns the generator's result and the points it asked about, in order.
    """
    asked = []
    ask = next(search)
    while True:
        asked.append(ask)
        try:
            ask = search.send(reply(ask))
        except StopIteration as done:
            return done.value, asked


class TestLbfgs:
    """The request pattern of one L-BFGS run, on toy merits answered by hand."""

    @staticmethod
    def merit(m_b, m_e):
        return m_b, 1.0, 0.0

    @staticmethod
    def curve_reply(f, df):
        """Answers for f(phi) in the phase of a 1 x 1 isometry x = e^(i phi)."""

        def reply(p):
            x = q_factor(p)
            phi = float(np.angle(x[0, 0]))
            return x, (f(phi), 0.0), np.stack([1j * df(phi) * x, np.zeros_like(x)])

        return reply

    @classmethod
    def phase_reply(cls, c):
        """Answers for f = c phi^2 / 2."""
        return cls.curve_reply(lambda phi: 0.5 * c * phi * phi, lambda phi: c * phi)

    def test_an_accepted_unit_step_costs_one_request(self):
        # The weighted trace f = Re tr(x^dag a x w) on 4 x 2 isometries,
        # from an evaluated, non-stationary start: each of the eight
        # iterations takes its unit step, and the point it lands on arrives
        # with its gradient, so the run asks about 8 points, each once, and
        # never about its start.
        a, w = np.diag(np.arange(1.0, 5.0)), np.diag([1.0, 2.0])

        def reply(p):
            x = q_factor(p)
            g = dec._tangent(x, 2.0 * a @ x @ w)
            return x, (np.trace(x.conj().T @ a @ x @ w).real, 0.0), np.stack([g, np.zeros_like(g)])

        start = reply(random_point(4, 2, 1))
        ((x, scores, grads), stationary, _), asked = drive(
            dec._lbfgs(self.merit, start, 8, 0.3), reply
        )
        assert len(asked) == 8 and not stationary
        assert not any(np.array_equal(q_factor(p), start[0]) for p in asked)
        values = [start[1][0]] + [reply(p)[1][0] for p in asked]
        assert all(after < before for before, after in zip(values, values[1:]))
        last = reply(asked[-1])
        assert x.tobytes() == last[0].tobytes() and scores == last[1]
        assert grads.tobytes() == last[2].tobytes()

    def test_a_search_that_cannot_pass_is_not_tried(self):
        # A stiff quadratic, c = 1e4.  The first step (length 0.3, which
        # the retraction turns into a phase change of atan(0.3)) lands 1e-9
        # from the minimum, where the gradient 1e-5 is above GRAD_TOL but the
        # secant step promises a decrease of only c phi^2 = 1e-14 <=
        # MIN_DECREASE, and every halving promises less.
        reply = self.phase_reply(1e4)
        start = reply(np.exp(1j * (np.arctan(0.3) + 1e-9)).reshape(1, 1))
        ((x, _, _), stationary, _), asked = drive(dec._lbfgs(self.merit, start, 50, 0.3), reply)
        assert stationary and len(asked) <= 1
        assert abs(np.angle(x[0, 0]) - 1e-9) <= 1e-15

    def test_a_reset_steps_the_last_accepted_length(self):
        # From phi = 0.1 at c = 10 the step of length 0.3 overshoots the
        # minimum and its half, of length 0.15, is accepted.  A run started
        # from that point with the returned length resets along -g by
        # exactly that length, before retraction.
        reply = self.phase_reply(10.0)
        start = reply(np.exp(0.1j).reshape(1, 1))
        (point, stationary, step), asked = drive(dec._lbfgs(self.merit, start, 1, 0.3), reply)
        assert not stationary and len(asked) == 2
        length = float(np.linalg.norm(asked[-1] - start[0]))
        assert abs(step - length) <= 1e-15 and abs(step - 0.15) <= 1e-15
        x, _, grads = point
        _, asked = drive(dec._lbfgs(self.merit, point, 1, step), reply)
        want = x - grads[0] * (step / np.linalg.norm(grads[0]))
        assert np.abs(asked[0] - want).max() <= 1e-15

    def test_a_long_direction_is_asked_at_the_longest_step(self):
        # A flat quadratic, c = 0.1, from phi = 1.  After the first step,
        # of length 0.3 along -g, the secant direction points at the minimum,
        # about 0.7 away; it is asked at length exactly MAX_STEP instead.
        reply = self.phase_reply(0.1)
        start = reply(np.exp(1j).reshape(1, 1))
        (_, stationary, _), asked = drive(dec._lbfgs(self.merit, start, 2, 0.3), reply)
        assert not stationary and len(asked) == 2
        x1 = reply(asked[0])[0]
        assert np.angle(x1[0, 0]) > 2 * dec.MAX_STEP
        assert abs(np.linalg.norm(asked[1] - x1) - dec.MAX_STEP) <= 1e-15

    def test_negative_curvature_restarts_the_memory(self):
        # f = phi + 100 phi^3 / 3 from phi = 0.3 curves upward while phi > 0:
        # the first step, of length 0.3, keeps its pair, whose secant step is
        # about 0.04 long.  The second step crosses phi = 0, and its pair has
        # s.y < 0.  The memory restarts: the third request is a step of
        # length MAX_STEP along -g, not a secant step of the first pair
        # (0.04 long again).
        reply = self.curve_reply(lambda phi: phi + 100 * phi**3 / 3, lambda phi: 1 + 100 * phi * phi)
        start = reply(np.exp(0.3j).reshape(1, 1))
        (_, stationary, _), asked = drive(dec._lbfgs(self.merit, start, 3, 0.3), reply)
        assert not stationary and len(asked) == 3
        (x0, _, g0), (x1, _, g1), (x2, _, g2) = start, reply(asked[0]), reply(asked[1])
        assert dec._inner(x1 - x0, g1[0] - g0[0]) > 0.0
        assert np.linalg.norm(asked[1] - x1) < 0.1
        assert np.angle(x2[0, 0]) < 0.0 and dec._inner(x2 - x1, g2[0] - g1[0]) < 0.0
        want = x2 - g2[0] * (dec.MAX_STEP / np.linalg.norm(g2[0]))
        assert np.abs(asked[2] - want).max() <= 1e-15

    def test_a_constrained_restart_asks_for_its_start_once(self, monkeypatch):
        # Every augmented-Lagrangian round after the first starts from the
        # point, scores, gradients and step length the round before it
        # returned, so the whole restart asks about its start only once.
        rho = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        scorer = dec._Scorer(rho.matrix, 3, 3, 3, 3)
        runs = []
        lbfgs = dec._lbfgs

        def recorded(merit, start, iters, step):
            result = yield from lbfgs(merit, start, iters, step)
            runs.append((start, step, result))
            return result

        def reply(p):
            x, scores, grads = scorer.evaluate(p[None])
            return x[0], tuple(scores[0].tolist()), grads[0]

        monkeypatch.setattr(dec, "_lbfgs", recorded)
        x0 = random_point(9, 3, 5)
        # At 2000 iterations some rounds end on a trial they reject.
        opts = OptimizerOptions(iterations=2000)
        result, asked = drive(dec._solve_restart(x0, 0.02, opts, True, 0.0), reply)
        assert sum(np.array_equal(p, x0) for p in asked) == 1 and asked[0] is x0
        assert len(runs) >= 5 and result["x"] is runs[-1][2][0][0]
        assert runs[0][1] == 0.3
        for (_, _, done), (start, step, _) in zip(runs, runs[1:]):
            assert start is done[0] and step == done[2]
        # Each round hands on the scores and gradients of its own final
        # point, not those of a trial it rejected after it.
        for _, _, ((x, scores, grads), _, _) in runs:
            _, again, grads_again = reply(x)
            assert np.allclose(scores, again, rtol=0, atol=1e-12)
            assert np.allclose(grads, grads_again, rtol=0, atol=1e-9)


class TestBatchedScorer:
    """A stack of points retracts and scores each one exactly as a stack of one does."""

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
        # Bare points off the manifold, as L-BFGS trial points are, and the
        # identity embedding, where some marginals are rank-deficient.
        rng = np.random.default_rng(d_b * d_e)
        ps = rng.standard_normal((6, scorer.n, d, 2)) @ np.array([1.0, 1j])
        ps[0] = np.eye(scorer.n, d)
        alone = [tuple(a.tobytes() for a in scorer.evaluate(p[None])) for p in ps]
        for k in range(1, 7):
            x, scores, grads = scorer.evaluate(ps[:k])
            assert x.tobytes() == q_factor(ps[:k]).tobytes()
            assert scores.shape == (k, 2) and grads.shape == (k, 2, scorer.n, d)
            stacked = [
                (x[i : i + 1].tobytes(), scores[i : i + 1].tobytes(), grads[i : i + 1].tobytes())
                for i in range(k)
            ]
            assert stacked == alone[:k]

    def test_scores_match_the_public_scoring_path(self):
        # Equal and unequal outputs, a one-dimensional B, and the
        # measurement chart: the padded square output must not show.
        for d_r, d_a, d_b, d_e, m in [
            (3, 3, 3, 3, None), (2, 2, 2, 3, None), (2, 2, 3, 2, None),
            (2, 2, 1, 3, None), (3, 2, 4, 5, None), (2, 2, 3, 3, 3),
            (2, 4, 4, 4, None), (2, 3, 4, 3, None),
        ]:
            rho = random_density(d_r * d_a, d_r * d_a, 3, labels=("R", "A"), dims=(d_r, d_a))
            scorer = measurement_scorer(rho, m) if m else dec._Scorer(rho.matrix, d_r, d_a, d_b, d_e)
            ps = np.stack([random_point(scorer.n, d_a, seed) for seed in range(3)])
            xs, scores, _ = scorer.evaluate(ps)
            for x, (m_b, m_e) in zip(xs, scores):
                v = x
                if m:
                    v = np.zeros((d_b * d_e, d_a), dtype=complex)
                    v[scorer.rows] = x
                out = apply_isometry(rho, Isometry(v, DimSig((d_b, d_e), ("B", "E")), d_a))
                assert abs(m_b - mutual_information(out, "R", "B")) <= 1e-12
                assert abs(m_e - mutual_information(out, "R", "E")) <= 1e-12

    def test_measurement_chart_scores_both_outputs_alike(self):
        # The swap of B and E fixes the record rows |kk>, so on the chart of
        # povm_upper the two shares and their gradients are equal bit for
        # bit, the smoothed larger share is their common value and its
        # slack is zero: a measurement restart runs one round.
        for d_r, d_a, m in [(2, 2, 2), (2, 2, 3), (3, 3, 3)]:
            rho = random_density(d_r * d_a, d_r * d_a, 7, labels=("R", "A"), dims=(d_r, d_a))
            scorer = measurement_scorer(rho, m)
            ps = np.stack([random_point(m, d_a, seed) for seed in range(4)])
            _, scores, grads = scorer.evaluate(ps)
            assert np.array_equal(scores[:, 0], scores[:, 1])
            assert np.array_equal(grads[:, 0], grads[:, 1])
            for m_b, m_e in scores:
                smoothed = dec._lagrangian(m_b, m_e, UNBOUNDED, [], 1.0, True, dec.SMOOTHING_WIDTHS[0])
                assert smoothed == (m_b, 0.5, 0.5)

    def test_measurement_chart_is_scored_once(self, monkeypatch, evaluate_calls):
        # The swap of B and E fixes each |kk> row, so the measurement chart
        # stacks its K candidates once; every other chart stacks them with
        # their swaps, 2K entries.
        sizes = []
        entropy_derivative = dec._entropy_derivative
        monkeypatch.setattr(
            dec, "_entropy_derivative", lambda s: sizes.append(len(s)) or entropy_derivative(s)
        )
        rho = random_density(4, 4, 7, labels=("R", "A"), dims=(2, 2))
        for scorer, copies in [
            (measurement_scorer(rho, 2), 1),
            (measurement_scorer(rho, 3), 1),
            (dec._Scorer(rho.matrix, 2, 2, 2, 2), 2),
            (dec._Scorer(rho.matrix, 2, 2, 2, 3), 2),
            (dec._Scorer(rho.matrix, 2, 2, 3, 2), 2),
        ]:
            sizes.clear()
            scorer.evaluate(np.stack([random_point(scorer.n, 2, seed) for seed in range(3)]))
            assert sizes == [3 * copies] * 2
        # And the chart that povm_upper builds for itself.
        sizes.clear()
        evaluate_calls.clear()
        povm_upper(rho, FAST)
        assert sizes == [k for k in evaluate_calls for _ in range(2)]

    @pytest.mark.parametrize("d_r, d_a, d", [(2, 2, 2), (3, 3, 3), (2, 3, 2)])
    def test_swapping_the_outputs_swaps_the_scores(self, d_r, d_a, d):
        # I(R:E) at V is I(R:B) at S V, S the swap of B and E, and its
        # gradient is the one at S V with the rows permuted back by S.
        rho = random_density(d_r * d_a, d_r * d_a, 5, labels=("R", "A"), dims=(d_r, d_a))
        scorer = dec._Scorer(rho.matrix, d_r, d_a, d, d)
        xs = np.stack([random_point(d * d, d_a, seed) for seed in range(3)])
        swap = xs.reshape(3, d, d, d_a).swapaxes(1, 2).reshape(3, d * d, d_a)
        _, scores, grads = scorer.evaluate(xs)
        _, swapped_scores, swapped_grads = scorer.evaluate(swap)
        back = swapped_grads[:, 0].reshape(3, d, d, d_a).swapaxes(1, 2).reshape(3, d * d, d_a)
        assert np.abs(scores[:, 1] - swapped_scores[:, 0]).max() <= 1e-13
        assert np.abs(grads[:, 1] - back).max() <= 1e-13

    def test_the_marginal_is_formed_without_the_whole_output(self):
        # At the size of three copies of a qubit pair (d_r = d_a = d_b = d_e
        # = 8), one candidate's conjugated state and that of its swap, two
        # operators on R (x) B (x) E, would take 8.4 MB; evaluate forms only
        # the R (x) B marginal.
        d = 8
        rho = random_density(d * d, d * d, 8, labels=("R", "A"), dims=(d, d))
        scorer = dec._Scorer(rho.matrix, d, d, d, d)
        p = random_point(d * d, d, 8)[None]
        tracemalloc.start()
        try:
            scorer.evaluate(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (d * d * d) ** 2 * 16


class TestExactGradient:
    """The closed-form Riemannian gradients of I(R:B) and of I(R:E), and the
    merit's gradient formed from them by the chain rule, against central
    differences along random tangent directions."""

    def assert_matches(self, scorer, merit, p, h=1e-5):
        # As many random tangent directions as the ambient space has real
        # coordinates, so that together they pin down each gradient.  The
        # points x +- h xi go to evaluate bare, and it retracts them.
        (x,), (scores,), (grads,) = scorer.evaluate(p[None])
        rng = np.random.default_rng(x.size)
        xis = [
            dec._tangent(x, rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
            for _ in range(2 * x.size)
        ]
        plus = raw_scores(scorer, np.stack([x + h * xi for xi in xis]))
        minus = raw_scores(scorer, np.stack([x - h * xi for xi in xis]))
        _, c_b, c_e = merit(*scores)
        for g, up, down in (
            (grads[0], plus[:, 0], minus[:, 0]),
            (grads[1], plus[:, 1], minus[:, 1]),
            (
                c_b * grads[0] + c_e * grads[1],
                np.array([merit(*s)[0] for s in plus]),
                np.array([merit(*s)[0] for s in minus]),
            ),
        ):
            exact = np.array([dec._inner(g, xi) for xi in xis])
            approx = (up - down) / (2.0 * h)
            assert np.all(np.isfinite(g))
            assert np.linalg.norm(exact - approx) <= 1e-6 * np.linalg.norm(approx)

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetric_unconstrained(self, d):
        rho = random_density(d * d, d * d, 70 + d, labels=("R", "A"), dims=(d, d))
        self.assert_matches(*penalized_problem(rho, d, d, UNBOUNDED), random_point(d * d, d, d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetric_with_active_penalty(self, d):
        rho = random_density(d * d, d * d, 80 + d, labels=("R", "A"), dims=(d, d))
        eps = 0.01
        x = random_point(d * d, d, 10 + d)
        for lam in (0.0, 0.5):
            scorer, merit = penalized_problem(rho, d, d, eps, [lam], 2000.0)
            m_b, m_e = raw_scores(scorer, x[None])[0]
            assert min(m_b, m_e) > eps
            self.assert_matches(scorer, merit, x)

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetric_slack_constraint_with_multiplier(self, d):
        # The constraint holds with slack 0.01, yet lam + mu c = 40 > 0, so
        # the multiplier term still moves the merit and its gradient.
        rho = random_density(d * d, d * d, 80 + d, labels=("R", "A"), dims=(d, d))
        x = random_point(d * d, d, 10 + d)
        m_b, m_e = raw_scores(dec._Scorer(rho.matrix, d, d, d, d), x[None])[0]
        eps = min(m_b, m_e) + 0.01
        assert 50.0 + 1000.0 * (min(m_b, m_e) - eps) > 0.0
        self.assert_matches(*penalized_problem(rho, d, d, eps, [50.0], 1000.0), x)

    def test_asymmetric_outputs(self):
        rho = random_density(4, 4, 91, labels=("R", "A"), dims=(2, 2))
        x = random_point(6, 2, 5)
        m_b, m_e = raw_scores(dec._Scorer(rho.matrix, 2, 2, 2, 3), x[None])[0]
        # The last case keeps m_e below eps with slack 0.01 while
        # lam + mu c = 30 > 0 on that constraint.
        for eps, lam, mu in (
            (UNBOUNDED, [0.0], 20.0),
            (UNBOUNDED, [0.7], 20.0),
            (0.01, [0.0, 0.0], 2000.0),
            (0.01, [0.3, 0.5], 2000.0),
            (m_e + 0.01, [0.2, 40.0], 1000.0),
        ):
            self.assert_matches(*penalized_problem(rho, 2, 3, eps, lam, mu), x)

    @pytest.mark.parametrize(
        "d_r, d_a, d_b, d_e, eps, lam",
        [
            (3, 2, 4, 5, 0.01, [0.3, 0.5]),
            (4, 4, 4, 4, UNBOUNDED, []),
            (2, 3, 3, 4, 0.01, [0.3, 0.5]),
        ],
    )
    def test_distinct_factor_dimensions(self, d_r, d_a, d_b, d_e, eps, lam):
        # Four distinct dimensions, so a transposed R trace or a B/E axis mix-up
        # in the gradient changes its shape or its value; a d_a = 4 case the
        # size of two copies of a qubit state; and d_r < d_a, so that the two R
        # axes of the gradient's contraction cannot stand in for A.
        rho = random_density(d_r * d_a, d_r * d_a, 94 + d_b, labels=("R", "A"), dims=(d_r, d_a))
        x = random_point(d_b * d_e, d_a, 7)
        scorer, merit = penalized_problem(rho, d_b, d_e, eps, lam, 2000.0)
        if lam:
            assert raw_scores(scorer, x[None])[0][1] > eps  # the eps constraint is active
        self.assert_matches(scorer, merit, x)

    def test_measurement_objective(self):
        # The computational measurement, a random two-outcome one and a
        # random three-outcome one.
        rho = random_density(4, 4, 92, labels=("R", "A"), dims=(2, 2))
        for m, x in (
            (2, np.eye(2, dtype=complex)),
            (2, random_point(2, 2, 6)),
            (3, random_point(3, 2, 6)),
        ):
            merit = lambda a, b: (0.5 * (a + b), 0.5, 0.5)  # noqa: E731
            self.assert_matches(measurement_scorer(rho, m), merit, x)

    def test_rank_deficient_marginal(self):
        # At the first two columns of the identity the input goes wholly
        # into E and the B marginal is pure: its entropy is differentiated
        # on its support only.  I(R:E) is at its maximum there, so the
        # gradient vanishes up to rounding.
        rho = random_density(4, 4, 93, labels=("R", "A"), dims=(2, 2))
        scorer, merit = penalized_problem(rho, 2, 2, UNBOUNDED)
        g = merit_gradient(scorer, merit, np.eye(4, 2, dtype=complex))
        assert np.all(np.isfinite(g)) and np.linalg.norm(g) <= 1e-12
        # A pure input keeps the RB and RE marginals at rank 2 of 4 at every
        # isometry, where the gradient is far from zero: it matches central
        # differences and a retracted step against it descends.
        pure = to_density(random_pure((2, 2), 93, labels=("R", "A")))
        scorer, merit = penalized_problem(pure, 2, 2, UNBOUNDED)
        x = random_point(4, 2, 93)
        self.assert_matches(scorer, merit, x)
        g = merit_gradient(scorer, merit, x)
        gn = np.linalg.norm(g)
        assert merit_value(scorer, merit, x - 1e-4 * g / gn) < merit_value(scorer, merit, x) - 1e-6 * gn

    @pytest.mark.parametrize(
        "m_b, m_e, eps, lam, mu, symmetric",
        [
            (0.4, 0.1, UNBOUNDED, [], 20.0, True),
            (0.1, 0.4, UNBOUNDED, [], 20.0, True),
            (0.5, 0.35, 0.3, [0.2], 200.0, True),
            (0.5, 0.2, 0.3, [30.0], 200.0, True),
            (0.2, 0.5, 0.3, [30.0], 200.0, True),
            (0.5, 0.6, UNBOUNDED, [0.1], 20.0, False),
            (0.5, 0.35, 0.3, [0.2, 0.5], 200.0, False),
            (0.3, 0.32, 0.3, [0.2, 0.5], 200.0, False),
        ],
    )
    def test_lagrangian_partials(self, m_b, m_e, eps, lam, mu, symmetric):
        # Points where the larger share and each max(0, lam + mu c) are
        # smooth; the last three cases of each kind have a term active.
        self.assert_partials(partial(dec._lagrangian, eps=eps, lam=lam, mu=mu, symmetric=symmetric), m_b, m_e)

    @pytest.mark.parametrize(
        "m_b, m_e, delta, h",
        [
            (0.4, 0.4, 1e-2, 1e-6),
            (0.4, 0.4, 2e-9, 1e-6),
            (0.403, 0.4, 1e-2, 1e-6),
            (0.4, 0.403, 1e-2, 1e-6),
            (0.4, 0.400006, 1e-5, 1e-9),
            (0.6, 0.1, 2e-9, 1e-6),
            (0.1, 0.6, 1e-5, 1e-6),
        ],
    )
    def test_smoothed_lagrangian_partials(self, m_b, m_e, delta, h):
        # The larger share smoothed to width delta, on the kink m_b = m_e,
        # inside the smoothing zone (h well below delta there) and far from
        # it.  On the kink the difference quotient is exact at any h, since
        # the smoothing term is even in m_b - m_e.
        merit = partial(dec._lagrangian, eps=UNBOUNDED, lam=[], mu=1.0, symmetric=True, delta=delta)
        self.assert_partials(merit, m_b, m_e, h)
        value, d_b, d_e = merit(m_b, m_e)
        assert 0.0 <= d_b <= 1.0 and 0.0 <= d_e <= 1.0 and abs(d_b + d_e - 1.0) <= 1e-15
        # The merit is F - delta / 2, F the smoothed maximum, which lies in
        # [max, max + delta / 2].
        top = max(m_b, m_e)
        assert top - 1e-15 <= value + delta / 2 <= top + delta / 2 + 1e-15
        if m_b == m_e:
            assert value == m_b and d_b == d_e == 0.5

    @staticmethod
    def assert_partials(merit, m_b, m_e, h=1e-6):
        """The partial derivatives of ``merit`` against central differences."""
        _, d_b, d_e = merit(m_b, m_e)
        approx_b = (merit(m_b + h, m_e)[0] - merit(m_b - h, m_e)[0]) / (2.0 * h)
        approx_e = (merit(m_b, m_e + h)[0] - merit(m_b, m_e - h)[0]) / (2.0 * h)
        assert abs(d_b - approx_b) <= 1e-6 * max(1.0, abs(d_b))
        assert abs(d_e - approx_e) <= 1e-6 * max(1.0, abs(d_e))


class TestBoundsReport:
    @pytest.mark.parametrize("scale", [-1.0, 20.0])
    def test_non_density_state_rejected_where_a_computation_starts(self, scale):
        # Every computation starts from a DensityMatrix, and a matrix that is
        # not a density matrix cannot be made one: -I/4 used to give an
        # all-zero report, and 5 I a misleading bound-ordering failure.
        for sig in (DimSig((2, 2), ("R", "A")), DimSig((2, 2, 2), ("R", "B", "E"))):
            with pytest.raises(ValidationError, match="density matrix trace"):
                DensityMatrix(scale * np.eye(sig.side) / sig.side, sig)

    def test_nothing_downstream_checks_a_made_state_again(self, monkeypatch):
        # A DensityMatrix is checked once, where it is made; the entry points
        # and the entropies they take of it build no checked state again.
        study = random_density(4, 4, 100000, labels=("R", "A"), dims=(2, 2))
        sweep = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        calls = []
        check = qmat.validate_density
        monkeypatch.setattr(qmat, "validate_density", lambda *a: calls.append(1) or check(*a))
        opts = OptimizerOptions(restarts=2, iterations=80, seed=0)
        bounds_report(study, UNBOUNDED, opts)
        optimize_xi(study, UNBOUNDED, opts)
        rates_sweep(sweep, [0.0, 0.02, 0.04, UNBOUNDED], opts)
        assert calls == []
        DensityMatrix(study.matrix, study.sig)
        assert calls == [1]

    def test_each_entropy_once(self, monkeypatch):
        # bounds_report and rates_sweep take S(R), S(A) and S(RA) once each;
        # the rest are the stop values, S(R) and S(AR), of povm_upper and of
        # each point's optimize_xi.
        sweep = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        calls = []
        entropy = entropics.subsystem_entropy
        monkeypatch.setattr(entropics, "subsystem_entropy", lambda *a: calls.append(1) or entropy(*a))
        opts = OptimizerOptions(restarts=2, iterations=80, seed=0)
        bounds_report(sweep, UNBOUNDED, opts)
        assert len(calls) == 5
        calls.clear()
        rates_sweep(sweep, [0.0, 0.02, 0.04, UNBOUNDED], opts)
        assert len(calls) == 3 + 4 * 2

    def test_each_field_has_one_home(self):
        # A report field and a sweep row column are the public function's
        # value, bit for bit, not a second formula for it.
        opts = OptimizerOptions(restarts=2, iterations=80, seed=0)
        grid = [0.0, 0.3, UNBOUNDED]
        for rho in (
            BELL,
            isotropic(2, 0.9),
            random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3)),
            random_density(4, 2, 5, labels=("R", "A"), dims=(2, 2)),
            random_separable(2, 2, 3, 1),
        ):
            for eps in grid:
                rep = bounds_report(rho, eps, opts)
                assert rep.qmi == mutual_information(rho, "R", "A")
                assert rep.ic_a_to_r == coherent_information(rho, "A", "R")
                assert rep.prop1_lower == prop1_lower(rho, eps)
                assert rep.half_qmi_upper == half_qmi_upper(rho)
                assert rep.xi_infinity == xi_infinity(rho)
            for row in rates_sweep(rho, grid, opts).rows:
                assert row.prop1_lower == prop1_lower(rho, row.eps)
                assert row.half_qmi_upper == half_qmi_upper(rho)

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
        line = bell_line([0.0, 0.5, 1.0], restarts=6, iterations=800, seed=0)
        assert line["envelope_dev"] <= 0.05
        assert line["infeasible_points"] == 0

    def test_envelope_is_running_minimum(self):
        res = rates_sweep(BELL, [0.0, 0.5, 1.0], FAST)
        best = math.inf
        for row in res.rows:
            best = min(best, row.i_rb)
            assert row.xi_envelope == best
        env = [row.xi_envelope for row in res.rows]
        assert all(b <= a + 1e-12 for a, b in zip(env, env[1:]))

    def test_product_state_flatlines(self):
        res = rates_sweep(product_state(), [0.0, 0.5], FAST)
        for row in res.rows:
            assert row.i_rb <= 1e-6

    def test_classical_bit_all_points_shredded(self):
        opts = OptimizerOptions(restarts=6, iterations=800, seed=0)
        res = rates_sweep(CC_BIT, [0.0, 0.25, 0.5], opts)
        for row in res.rows:
            assert row.i_rb <= 1e-4

    def test_each_row_is_optimize_xi_at_its_own_eps(self):
        # The warm-start chain replayed by hand: every row, eps = inf too,
        # is the search at the level it reports, not at half the QMI.
        rho = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        grid = [0.0, 0.02, 0.04, math.inf]
        opts = OptimizerOptions(restarts=4, iterations=600, seed=100_000)
        warm = None
        for eps, row in zip(grid, rates_sweep(rho, grid, opts).rows):
            out = optimize_xi(rho, eps, replace(opts, warm_theta=warm))
            warm = out.theta
            assert (row.i_rb, row.i_re, row.converged) == (out.i_rb, out.i_re, out.converged)
        opts = OptimizerOptions(restarts=4, iterations=400, seed=0)
        unbounded = optimize_xi(BELL, UNBOUNDED, opts)
        for row in rates_sweep(BELL, [5.0, math.inf], opts).rows:
            assert abs(row.i_rb - unbounded.i_rb) <= 2e-2

    def test_unbounded_row_runs_the_unconstrained_search(self):
        # Solved at half the QMI, this row ended unconverged at 0.507731686524;
        # the smoothed unconstrained search converges at 0.506027916011.
        rho = random_density(9, 2, 500, labels=("R", "A"), dims=(3, 3))
        opts = OptimizerOptions(restarts=4, iterations=600, seed=0)
        row = rates_sweep(rho, [0.0, 0.05, math.inf], opts).rows[-1]
        assert row.converged
        assert row.i_rb <= 0.5065

    def test_constrained_sweep_evaluation_count(self, evaluate_calls):
        # The bench's 3x3 sweep at 4 x 600, seed 100000.  Rounds that each
        # re-scored their start and reset to a step of length 0.3 made 616
        # evaluate calls; handing each round its evaluated start and the
        # last step length made 425, solving the eps = inf row by the
        # unconstrained search instead of at half the QMI 396, and capping
        # every trial step at MAX_STEP with the memory restarted on negative
        # curvature 361.  The gate is 0.85 x 616.
        rho = random_density(9, 9, 3, labels=("R", "A"), dims=(3, 3))
        opts = OptimizerOptions(restarts=4, iterations=600, seed=100_000)
        res = rates_sweep(rho, [0.0, 0.02, 0.04, math.inf], opts)
        assert all(row.feasible for row in res.rows)
        assert len(evaluate_calls) <= 0.85 * 616

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            rates_sweep(BELL, [], FAST)
        with pytest.raises(ValidationError):
            rates_sweep(BELL, [1.0, 0.5], FAST)
        with pytest.raises(ValidationError):
            rates_sweep(BELL, [-0.5, 1.0], FAST)
