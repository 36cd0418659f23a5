"""Bounds and numerical search for splitting correlations privately.

Given a bipartite state on a reference factor R and an acted factor A, an
isometry into B (kept) and E (discarded) redistributes the R-A correlations:
I(R:B) + I(R:E) always reproduces I(R:A) on pure inputs, and the question is
how small the kept share I(R:B) can be made while the discarded share I(R:E)
stays below a privacy level eps and below I(R:B) itself.  This module
provides the closed-form bounds on that minimum, a multistart optimizer
that searches the isometry family directly (:func:`optimize_xi`), a
measurement-isometry variant, and a sweep of the trade-off curve over a
grid of privacy levels, each point solved at its own level.

The unbounded privacy level is ``float("inf")`` (spelled ``inf`` on the
command line); it is the distinguished IEEE infinity, detectable with
``math.isinf``, never a large finite float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Generator, Sequence

import numpy as np

from . import entropics, isometries, qmat
from .entropics import EIGENVALUE_CLAMP, spectrum_entropy
from .isometries import Isometry
from .qmat import DimSig, ValidationError
from .states import DensityMatrix, as_density, random_unitary

UNBOUNDED = float("inf")
# Constraint violation a candidate may carry and still count as feasible.
FEASIBLE_TOL = 1e-6
# A feasible restart whose kept share is this close to the lower bound cannot
# usefully improve: it skips its remaining rounds, and the restarts after it
# are dropped.
LOWER_BOUND_SLACK = 2.5e-7
# Restarts live at once in _run_restarts, so memory does not grow with their count.
LOCKSTEP_WIDTH = 32
# Smallest decrease accepted as progress; below it a move is rounding noise.
MIN_DECREASE = 1e-13
# Gradient norm below which L-BFGS treats its point as stationary.
GRAD_TOL = 1e-9
# (s, y) pairs L-BFGS keeps for its inverse-Hessian estimate.
LBFGS_PAIRS = 8
# Longest trial step of L-BFGS, on a manifold a few units across: the length
# of a restart's first step along -g and of the step after a reset of the
# memory, and the cap on every quasi-Newton step.
MAX_STEP = 0.3
# Kept shares this close to the best tie; optimize_xi takes the first restart.
TIE_TOL = 1e-9
# Smoothing widths of the larger share, one per round, of an unconstrained
# restart (equal outputs, unbounded privacy); see _lagrangian.
SMOOTHING_WIDTHS = (1e-2, 1e-5, 2 * TIE_TOL)

__all__ = [
    "BoundsReport",
    "DecouplingOutcome",
    "FEASIBLE_TOL",
    "OptimizerOptions",
    "SweepResult",
    "SweepRow",
    "UNBOUNDED",
    "apply_isometry",
    "bounds_report",
    "decoupling_scores",
    "half_qmi_upper",
    "optimize_xi",
    "outcome_isometry",
    "povm_upper",
    "prop1_lower",
    "rates_sweep",
    "xi_infinity",
]


# ---------------------------------------------------------------------------
# Applying an isometry and scoring the result


def _bipartite(state: DensityMatrix) -> tuple[str, str, int, int]:
    if len(state.sig.labels) != 2:
        raise ValidationError(
            f"need a bipartite state, got factors {state.sig.labels}; "
            "merge factors first"
        )
    r, a = state.sig.labels
    return r, a, state.sig.dims[0], state.sig.dims[1]


def apply_isometry(state: DensityMatrix, v: Isometry) -> DensityMatrix:
    """Conjugate the second factor of a bipartite state by an isometry.

    Returns the state (1 (x) V) rho (1 (x) V)^dag on (reference, B, E), with
    the output labels taken from the isometry's signature.  It forms the half
    product ``y = (1 (x) V) rho``, of shape ``(d_r, n, d_r * d_a)`` with
    ``n = d_b * d_e``, then ``y (1 (x) V)^dag``, an operator on the whole of
    R (x) B (x) E.  The search never builds that operator
    (:meth:`_Scorer.evaluate` forms only the R (x) B marginal).
    """
    r, _, d_r, d_a = _bipartite(state)
    if v.in_dim != d_a:
        raise ValidationError(
            f"isometry expects input dimension {v.in_dim}, state has {d_a}"
        )
    if r in v.out_sig.labels:
        raise ValidationError(
            f"reference label {r!r} collides with output labels {v.out_sig.labels}"
        )
    sig = DimSig((d_r,) + v.out_sig.dims, (r,) + v.out_sig.labels)
    y = v.matrix[None] @ state.matrix.reshape(d_r, d_a, d_r * d_a)
    return as_density((y.reshape(-1, d_a) @ v.matrix.conj().T).reshape(sig.side, sig.side), sig)


def decoupling_scores(state: DensityMatrix) -> tuple[float, float, bool]:
    """Mutual informations of a (reference, kept, discarded) state, canonically ordered.

    Returns ``(i_rb, i_re, swapped)`` where the two output factors are
    relabeled if necessary so that ``i_re <= i_rb``; ``swapped`` records
    whether that relabeling happened.
    """
    if len(state.sig.labels) != 3:
        raise ValidationError(
            f"need a tripartite state, got factors {state.sig.labels}"
        )
    r, b, e = state.sig.labels
    i_rb = entropics.mutual_information(state, r, b)
    i_re = entropics.mutual_information(state, r, e)
    if i_re > i_rb:
        return i_re, i_rb, True
    return i_rb, i_re, False


# ---------------------------------------------------------------------------
# Closed-form bounds


def _check_eps(eps: float) -> float:
    return qmat.real(eps, 0.0, "privacy level", unbounded=True)


def _prop1(ic: float, eps: float) -> float:
    return max(2.0 * ic - eps, ic, 0.0)


def _qmi_and_ic(state: DensityMatrix) -> tuple[float, float]:
    """``(I(R:A), I(A>R))`` from one entropy each of R, A and RA."""
    r, a, _, _ = _bipartite(state)
    s_r = entropics.subsystem_entropy(state, r)
    s_a = entropics.subsystem_entropy(state, a)
    s_ra = entropics.subsystem_entropy(state, (r, a))
    return s_r + s_a - s_ra, s_r - s_ra


def prop1_lower(state: DensityMatrix, eps: float = UNBOUNDED) -> float:
    """Lower bound ``max(2 ic - eps, ic, 0)`` on the optimal kept correlations.

    ``ic`` is the coherent information from the acted factor to the
    reference.  With unbounded privacy the first term drops out and the bound
    is ``max(ic, 0)``.
    """
    eps = _check_eps(eps)
    r, a, _, _ = _bipartite(state)
    return _prop1(entropics.coherent_information(state, a, r), eps)


def half_qmi_upper(state: DensityMatrix) -> float:
    """Upper bound: half the mutual information between the two factors."""
    r, a, _, _ = _bipartite(state)
    return 0.5 * entropics.mutual_information(state, r, a)


def xi_infinity(state: DensityMatrix) -> float:
    """Ineliminable correlations at unbounded privacy in the many-copy limit:
    ``max(ic, 0)`` with ``ic`` the coherent information from the acted factor
    to the reference, which is :func:`prop1_lower` at unbounded privacy.
    Zero exactly whenever ``ic <= 0``, in particular on every separable
    state."""
    return prop1_lower(state)


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form bounds plus the measurement-search upper bound for one state."""

    qmi: float
    ic_a_to_r: float
    prop1_lower: float
    half_qmi_upper: float
    povm_upper: float
    xi_infinity: float


# ---------------------------------------------------------------------------
# Optimizer


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the multistart searches.

    ``d_b``/``d_e`` override the output dimensions (default: both equal the
    acted factor's dimension) of :func:`optimize_xi`; :func:`povm_upper`
    always searches ``d_a``-outcome measurements.  ``iterations`` is the
    per-restart descent budget: at unbounded privacy with equal outputs a
    restart runs one to three L-BFGS rounds of ``iterations // 8``
    iterations on the larger share, smoothed ever more finely, and stops
    after the first round whose smoothed value ends within ``TIE_TOL`` of
    the larger share; otherwise it runs five to eight augmented-Lagrangian
    rounds of ``iterations // 40`` iterations, half that plus one from the
    sixth round on; always at least one.  Each round after the first goes on
    from the point where the round before it stopped, without scoring it
    again, and its first step has the length of that round's last accepted
    step.  No trial step is longer than 0.3 (``MAX_STEP``).  Counts must be
    positive integers and ``seed`` a non-negative one, by the rule of
    :func:`qmat.count`, and are stored as ``int``; anything else raises
    :class:`ValidationError`.  ``warm_theta``, if set, is the start of
    restart 0 of :func:`optimize_xi`: an isometry matrix of shape
    ``(d_b*d_e, d_a)``, finite and with orthonormal columns within
    ``qmat.UNITARITY_TOL`` (a search raises :class:`ValidationError`
    otherwise), such as an earlier outcome's ``theta``.

    ``threads`` is deprecated and ignored: the restarts of a search run in
    lockstep in one thread, and results never depended on it.
    """

    d_b: int | None = None
    d_e: int | None = None
    restarts: int = 32
    iterations: int = 2000
    seed: int = 0
    warm_theta: np.ndarray | None = None
    threads: int | None = None

    def __post_init__(self):
        optional = {"d_b": 1, "d_e": 1}
        required = {"restarts": 1, "iterations": 1, "seed": 0}
        for name, least in (optional | required).items():
            value = getattr(self, name)
            if value is not None or name in required:
                object.__setattr__(self, name, qmat.count(value, least, name))


@dataclass(frozen=True)
class DecouplingOutcome:
    """Best candidate found by :func:`optimize_xi`.

    ``theta`` is the matrix of the certificate isometry, of shape
    ``(d_b*d_e, d_a)`` with orthonormal columns (:func:`outcome_isometry`
    wraps it with its output signature); ``i_rb``/``i_re`` are its canonical
    scores, the larger first, except that an infeasible outcome with unequal
    outputs reports the share of E, the one that leaks, as ``i_re``.
    """

    theta: np.ndarray
    i_rb: float
    i_re: float
    epsilon: float
    feasible: bool
    restarts_used: int
    converged: bool
    d_a: int = 0
    d_b: int = 0
    d_e: int = 0


def outcome_isometry(outcome: DecouplingOutcome) -> Isometry:
    """The certificate isometry recorded in an optimizer outcome."""
    return Isometry(outcome.theta, DimSig((outcome.d_b, outcome.d_e), ("B", "E")), outcome.d_a)


class _Scorer:
    """Retraction, raw mutual-information scores and their Riemannian
    gradients for a stack of points, in one call (:meth:`evaluate`).

    Entry ``k`` of a ``(K, n, d_a)`` stack is an ``n x d_a`` matrix whose Q
    factor is a point of the Stiefel manifold (orthonormal columns): the
    isometry itself, with ``n = d_b*d_e``, or, with ``rows`` given,
    ``n = len(rows)`` and its rows are embedded in the listed rows of a
    ``d_b*d_e x d_a`` matrix (the measurement family of :func:`povm_upper`).
    That ``rows`` chart is what keeps :func:`povm_upper` exactly on the
    family: a search over the whole matrix started there stays on it only
    in exact arithmetic, and rounding lets rows off the family grow.
    Unequal outputs get the chart of rows ``(b, e)`` of the square
    ``m x m`` output, ``m = max(d_b, d_e)``, which the swap of B and E maps
    to itself, while it fixes each row of the measurement chart, scored
    once per candidate.  Every step works on the whole stack at once, and
    each candidate's result is the same, bit for bit, whatever else shares it.
    """

    def __init__(
        self,
        rho: np.ndarray,
        d_r: int,
        d_a: int,
        d_b: int,
        d_e: int,
        rows: np.ndarray | None = None,
    ):
        # rho as (c, r, a, a'), its column R index c first, for evaluate's y
        self.rho = rho.reshape(d_r, d_a, d_r, d_a).transpose(2, 0, 1, 3).copy()
        self.dims = (d_r, d_a, d_b, d_e)
        self.n = d_b * d_e if rows is None else len(rows)
        self.m = max(d_b, d_e)
        if rows is None and d_b != d_e:
            rows = (self.m * np.arange(d_b)[:, None] + np.arange(d_e)).ravel()
        self.rows = rows
        # The swap S of B and E sends row m b + e to m e + b: it fixes |kk> rows.
        self.copies = 1 if rows is not None and np.array_equal(rows // self.m, rows % self.m) else 2
        rho_r = np.trace(rho.reshape(d_r, d_a, d_r, d_a), axis1=1, axis2=3)
        self.s_r = spectrum_entropy(np.linalg.eigvalsh(rho_r))

    def evaluate(self, p: np.ndarray):
        """Retract a stack of points, score it and differentiate both scores.

        ``p`` holds bare points: starts, or trial points ``x + a d`` off the
        manifold.  Returns ``(x, scores, grads)``: ``x = q_factor(p)``, the
        whole stack retracted in one call; ``scores[k]`` the raw (I(R:B),
        I(R:E)) at ``x[k]``; and ``grads[k]``, of shape ``(2, n, d_a)``, the
        Riemannian gradients there of I(R:B) and of I(R:E).  Each is the
        Euclidean gradient for the inner product ``Re tr(a^dag b)``,
        projected onto the tangent space at ``x[k]`` (see :func:`_tangent`).
        Only I(R:B) is computed, on ``cK`` entries: each embedded candidate
        ``w`` and its swap ``S w`` (``c = 2``), since I(R:E) at ``w`` is
        I(R:B) at ``S w``, and its gradient is the one there with the rows
        permuted back by ``S``; where ``S`` fixes every row of the chart, as
        on the measurement chart, ``S w = w`` and each ``w`` is stacked once
        (``c = 1``).  The half product ``y = (1 (x) w) rho`` is formed with
        the column R index of ``rho`` moved to the front, of shape
        ``(cK, d_r, d_r, m*m, d_a)``.  One product of ``y`` with ``w^dag``,
        which sums over E and the column A index together, gives the
        R (x) B marginal ``t_rb``, of shape ``(cK, d_r, m, d_r, m)``;
        ``t_b`` is its trace over R.  The gradient is
        ``z = 2 tr_R((a (x) 1_E) y)`` with ``a`` on R (x) B, and one product
        of ``a``, laid out as ``(cK, m, d_r*d_r*m)``, with ``y`` takes the
        trace over R with it.  No operator on the whole of R (x) B (x) E is
        formed.  One eigendecomposition per marginal gives its entropy and
        the entropy's derivative, on the support of the marginal as
        :func:`spectrum_entropy` sums it: eigenvalues at or below
        ``EIGENVALUE_CLAMP`` contribute zero to both.  At full rank this is
        the exact derivative; on a rank-deficient marginal it is that of the
        clamped entropy, which stays finite where the unclamped one diverges.
        """
        (d_r, d_a, _, _), m, copies = self.dims, self.m, self.copies
        x = qmat.q_factor(p)
        k = len(x)
        w = x
        if self.rows is not None:
            w = np.zeros((k, m * m, d_a), dtype=complex)
            w[:, self.rows, :] = x
        if copies == 2:
            w = np.concatenate([w, w.reshape(k, m, m, d_a).swapaxes(1, 2).reshape(k, m * m, d_a)])
        y = (w[:, None, None] @ self.rho).reshape(-1, d_r * d_r * m, m * d_a)  # (c, r b, e a')
        t_rb = y @ w.conj().reshape(-1, m, m * d_a).swapaxes(1, 2)              # (c r b, b')
        t_rb = t_rb.reshape(-1, d_r, d_r, m, m).transpose(0, 2, 3, 1, 4)      # (r, b, c, b')
        s_rb, k_rb = _entropy_derivative(t_rb.reshape(-1, d_r * m, d_r * m))
        s_b, k_b = _entropy_derivative(np.trace(t_rb, axis1=1, axis2=3))
        # The last copy is S w, or w itself where S fixes the chart.
        scores = (self.s_r + s_b - s_rb).reshape(copies, k)[[0, -1]].T
        # dI(R:B) = tr(dt_b k_b) - tr(dt_rb k_rb) = tr(dt_rb a) on R (x) B, and
        # d tr(A t) = 2 Re tr(A (1 (x) dw) rho (1 (x) w)^dag) for Hermitian A,
        # so the Euclidean gradient in w is z = 2 tr_R(A y) with A = a (x) 1_E,
        # here with a laid out as (b, c, r b') so that one product with y
        # contracts r b' and traces c.
        a = k_b[:, :, None, None, :] * np.eye(d_r)[:, :, None]
        a = a - k_rb.reshape(-1, d_r, m, d_r, m).swapaxes(1, 2)
        z = 2.0 * (a.reshape(-1, m, d_r * d_r * m) @ y).reshape(copies, k, m, m, d_a)
        z = np.stack([z[0], z[-1].swapaxes(1, 2)], axis=1).reshape(k, 2, m * m, d_a)
        return x, scores, _tangent(x[:, None], z if self.rows is None else z[:, :, self.rows, :])


def _entropy_derivative(sigma: np.ndarray):
    """Clamped entropies of a stack ``sigma`` and the Hermitian ``k`` with dS = tr(dsigma k).

    ``k = -(log2 sigma + 1/ln 2)`` on the eigenvectors whose eigenvalue
    exceeds ``EIGENVALUE_CLAMP``, and zero on the rest, so that it
    differentiates exactly what :func:`spectrum_entropy` sums.
    """
    lam, vec = np.linalg.eigh(sigma)
    support = lam > EIGENVALUE_CLAMP
    coef = np.where(support, -(np.log2(np.where(support, lam, 1.0)) + 1.0 / math.log(2.0)), 0.0)
    return spectrum_entropy(lam), (vec * coef[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def _tangent(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of ``v`` onto the tangent space of the Stiefel manifold at
    ``x``, ``v - x sym(x^dag v)``, for one matrix or a stack."""
    h = x.conj().swapaxes(-1, -2) @ v
    return v - x @ (0.5 * (h + h.conj().swapaxes(-1, -2)))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """The real inner product ``Re tr(a^dag b)`` of two matrices of one shape."""
    return float(np.vdot(a, b).real)


def _lbfgs(merit, start, iters, step):
    """Riemannian limited-memory BFGS on ``merit`` from an evaluated start,
    at most ``iters`` iterations.

    ``start`` is ``(x, scores, grads)`` as :meth:`_Scorer.evaluate` returns
    it for one point, so a start that was already scored is not scored
    again.  A generator of evaluation requests: it yields a bare trial point
    ``x + a d``, and the caller sends back what :meth:`_Scorer.evaluate`
    returns for it, so each trial point costs one request.  ``merit`` maps
    the raw scores (I(R:B), I(R:E)) to ``(value, d/dI(R:B), d/dI(R:E))``; it
    is called once per point, and the merit's gradient ``c_b g_B + c_e g_E``
    is formed only at the start and at an accepted point.  Directions come
    from the two-loop recursion over the last ``LBFGS_PAIRS`` (s, y) pairs
    (Nocedal & Wright, *Numerical Optimization*, 2006, alg. 7.4), taken as
    ambient differences of points and of gradients, and are projected onto
    the tangent space at ``x``; a descent direction longer than ``MAX_STEP``
    is scaled to that length, so no trial step ``a d`` is longer.  With no
    pairs, or no descent, the pairs are dropped and the step is ``-g`` scaled
    to length ``step``.  An accepted step ``a d`` whose pair has positive
    curvature ``s.y`` joins the pairs and sets ``step`` to ``a |d|``; one
    with ``s.y <= 0`` cannot (the update needs ``s.y > 0``, Nocedal & Wright,
    sec. 7.2), so it restarts the memory: the pairs are dropped and ``step``
    is ``MAX_STEP``, and the next step is a full-length step along ``-g``,
    not one of stale pairs.  A step of length ``a`` along ``d`` goes to the
    retraction ``q_factor(x + a d)`` (Absil, Mahony & Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008, sec. 4.1), and is
    halved, at most 30 times, until the Armijo condition
    (c = 1e-4) holds and the merit drops by more than ``MIN_DECREASE``.
    Returns ``((x, scores, grads), stationary, step)``: the final accepted
    point with its raw scores and the raw gradients of both scores there,
    ready to start a run on another merit; ``stationary``, set when the
    gradient norm falls below ``GRAD_TOL``, when 30 halvings find no step
    that passes, or as soon as a step's first-order decrease ``a |slope|``
    is at most ``MIN_DECREASE``, since from there on no trial can pass to
    first order; and the reset length for the next run.
    """
    x, scores, grads = start
    value, c_b, c_e = merit(*scores)
    g = c_b * grads[0] + c_e * grads[1]
    pairs: list[tuple[np.ndarray, np.ndarray, float, float]] = []
    for _ in range(iters):
        gn = math.sqrt(_inner(g, g))
        if gn < GRAD_TOL:
            return (x, scores, grads), True, step
        d = -g
        alphas = []
        for s, y, rho, _ in reversed(pairs):
            alphas.append(rho * _inner(s, d))
            d = d - alphas[-1] * y
        if pairs:
            d = d * pairs[-1][3]  # gamma = s.y / y.y of the newest pair
        for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * _inner(y, d)) * s
        d = _tangent(x, d)
        slope = _inner(g, d)
        if not pairs or slope >= 0.0:
            pairs.clear()
            d = -g * (step / gn)
            slope = -step * gn
        elif (dn := math.sqrt(_inner(d, d))) > MAX_STEP:
            d, slope = d * (MAX_STEP / dn), slope * (MAX_STEP / dn)
        a = 1.0
        for _ in range(30):
            if -a * slope <= MIN_DECREASE:
                return (x, scores, grads), True, step
            cand, trial, trial_grads = yield x + a * d
            v, c_b, c_e = merit(*trial)
            if v <= value + 1e-4 * a * slope and v < value - MIN_DECREASE:
                break
            a *= 0.5
        else:
            return (x, scores, grads), True, step
        g_new = c_b * trial_grads[0] + c_e * trial_grads[1]
        s, y = cand - x, g_new - g
        sy = _inner(s, y)
        if sy > 0.0:
            pairs = pairs[-(LBFGS_PAIRS - 1) :] + [(s, y, 1.0 / sy, sy / _inner(y, y))]
            step = a * math.sqrt(_inner(d, d))
        else:
            pairs, step = [], MAX_STEP
        x, scores, grads, value, g = cand, trial, trial_grads, v, g_new
    return (x, scores, grads), False, step


def _measurement_start(basis: np.ndarray, d_a: int, d_b: int, d_e: int) -> np.ndarray:
    """The isometry that records a basis measurement in both outputs, for
    ``d_b, d_e >= d_a``."""
    v = np.zeros((d_b * d_e, d_a), dtype=complex)
    v[isometries.record_rows(d_a, d_e)] = basis.conj().T
    return v


def _warm_start(opts: OptimizerOptions, d_a: int, d_b: int, d_e: int) -> np.ndarray:
    """Start of restart 0: ``opts.warm_theta`` if set, else the
    first ``d_a`` columns of the identity; with equal outputs and ``d_e >=
    d_a`` that sends A into E, the one start feasible at every ``eps``, at
    I(R:A) after one evaluation.  Raises :class:`ValidationError` unless the
    warm start is a ``(d_b*d_e, d_a)`` isometry matrix."""
    if opts.warm_theta is None:
        return np.eye(d_b * d_e, d_a, dtype=complex)
    return Isometry(opts.warm_theta, DimSig((d_b, d_e), ("B", "E")), d_a).matrix


def _constraints(m_b: float, m_e: float, eps: float, symmetric: bool):
    """The constraints ``c <= 0`` of a search at raw scores ``(m_b, m_e)``.

    Symmetric outputs keep the smaller share at most ``eps``; otherwise
    ``m_e`` stays at most ``m_b`` and at most ``eps``.  An unbounded ``eps``
    drops its constraint.  Each entry is ``(c, dc/dm_b, dc/dm_e)``.
    """
    cons = [] if symmetric else [(m_e - m_b, -1.0, 1.0)]
    if not math.isinf(eps):
        cons.append((m_b - eps, 1.0, 0.0) if symmetric and m_e > m_b else (m_e - eps, 0.0, 1.0))
    return cons


def _lagrangian(
    m_b: float,
    m_e: float,
    eps: float,
    lam: Sequence[float],
    mu: float,
    symmetric: bool,
    delta: float = 0.0,
):
    """PHR augmented Lagrangian and its partial derivatives in ``m_b`` and ``m_e``.

    The objective is the larger share for symmetric outputs and ``m_b``
    otherwise; each constraint ``c <= 0`` of :func:`_constraints`, with its
    multiplier in ``lam``, adds ``(max(0, lam + mu c)^2 - lam^2) / (2 mu)``
    (Nocedal & Wright, *Numerical Optimization*, 2006, sec. 17.4).  With a
    smoothing width ``delta > 0`` the larger share of symmetric outputs
    becomes ``F - delta / 2``, where ``F = (m_b + m_e + sqrt(u^2 +
    delta^2)) / 2``, ``u = m_b - m_e``, is the smoothed maximum (Nesterov,
    *Math. Program.* 103, 2005): smooth across the kink ``m_b = m_e``, and
    between ``max(m_b, m_e)`` and that plus ``delta / 2``.  The constant
    shift changes no minimizer, and where the two shares are equal it makes
    the value their common value bit for bit, with weights 1/2 on each
    gradient.  ``delta = 0`` is the exact maximum.  Returns ``(value,
    d/dm_b, d/dm_e)``.
    """
    if symmetric and delta > 0.0:
        u = m_b - m_e
        r = math.hypot(u, delta)
        value = 0.5 * (m_b + m_e) + 0.5 * (r - delta)
        d_b, d_e = 0.5 * (1.0 + u / r), 0.5 * (1.0 - u / r)
    elif symmetric and m_e > m_b:
        value, d_b, d_e = m_e, 0.0, 1.0
    else:
        value, d_b, d_e = m_b, 1.0, 0.0
    for mult, (c, c_b, c_e) in zip(lam, _constraints(m_b, m_e, eps, symmetric)):
        t = max(0.0, mult + mu * c)
        value += (t * t - mult * mult) / (2.0 * mu)
        d_b += t * c_b
        d_e += t * c_e
    return value, d_b, d_e


def _solve_restart(
    x: np.ndarray,
    eps: float,
    opts: OptimizerOptions,
    symmetric: bool,
    stop_value: float,
):
    """One restart from the isometry ``x``: L-BFGS rounds on an augmented Lagrangian.

    Round ``k`` minimizes :func:`_lagrangian` at ``mu = 200 * 10**k`` and
    then updates each multiplier to ``max(0, lam + mu c)``.  The restart asks
    for ``x`` once; each round after the first starts from the evaluated
    point ``(x, scores, grads)`` that the round before it returned, so a
    start is never scored twice, and its reset step (see :func:`_lbfgs`)
    has the length :func:`_lbfgs` returns, ``MAX_STEP`` at first and after
    a step with ``s.y <= 0``, else the last accepted step, carried from
    round to round.  Rounds get ``opts.iterations // 40`` L-BFGS
    iterations each, half that plus one from the sixth on; the loop
    stops after the fifth round once every constraint holds within
    ``FEASIBLE_TOL``, and after the eighth in any case.  With no constraint
    (equal outputs, unbounded privacy) round ``k`` instead minimizes the
    larger share smoothed to width ``SMOOTHING_WIDTHS[k]`` (``delta`` of
    :func:`_lagrangian`) in ``opts.iterations // 8`` iterations, and the
    loop stops after the first round whose slack ``(delta + |u| - sqrt(u^2 +
    delta^2)) / 2``, ``u = m_b - m_e``, by which the smoothed value lies
    below the larger share, is at most ``TIE_TOL``.  The slack is zero where
    the shares are equal, so a restart on the measurement chart runs one
    round, and the last width always meets the rule.  A feasible restart
    whose larger share lies within ``LOWER_BOUND_SLACK`` of ``stop_value``
    cannot usefully improve and stops after the round that brought it
    there; its result says so in ``at_bound``.  ``converged``: the last
    round ended stationary, or the restart is at the bound.  The result's
    ``i_rb``/``i_re`` are the raw shares, never smoothed, and canonical, the
    larger share first, for equal outputs and for every feasible restart:
    with unequal outputs ``m_e`` may exceed ``m_b`` by up to
    ``FEASIBLE_TOL`` and still be feasible.  An infeasible restart with
    unequal outputs keeps ``i_re`` the share of E, the one that leaks.  A
    generator of the requests of :func:`_lbfgs`; returns the restart's
    result.
    """
    lam = [0.0] * len(_constraints(0.0, 0.0, eps, symmetric))
    if lam:
        widths, per_round = (0.0,) * 8, max(1, opts.iterations // 40)
    else:
        widths, per_round = SMOOTHING_WIDTHS, max(1, opts.iterations // 8)
    point, step = (yield x), MAX_STEP
    for k, delta in enumerate(widths):
        mu = 200.0 * 10.0**k
        merit = partial(_lagrangian, eps=eps, lam=lam, mu=mu, symmetric=symmetric, delta=delta)
        iters = per_round if k < 5 else per_round // 2 + 1
        point, converged, step = yield from _lbfgs(merit, point, iters, step)
        x, (m_b, m_e), _ = point
        cons = _constraints(m_b, m_e, eps, symmetric)
        feasible = all(c <= FEASIBLE_TOL for c, _, _ in cons)
        at_bound = feasible and max(m_b, m_e) <= stop_value + LOWER_BOUND_SLACK
        u = abs(m_b - m_e)
        settled = k >= 4 if lam else 0.5 * (delta + u - math.hypot(u, delta)) <= TIE_TOL
        if at_bound or (feasible and settled):
            break
        lam = [max(0.0, mult + mu * c) for mult, (c, _, _) in zip(lam, cons)]

    if m_e > m_b and (symmetric or feasible):
        m_b, m_e = m_e, m_b
    converged = converged or at_bound
    return dict(x=x, i_rb=m_b, i_re=m_e, feasible=feasible, converged=converged, at_bound=at_bound)


def _run_restarts(
    scorer: _Scorer,
    eps: float,
    opts: OptimizerOptions,
    stop_value: float,
    starts: Sequence[np.ndarray],
    width: int = LOCKSTEP_WIDTH,
):
    """Run the ``opts.restarts`` restarts of one search over the candidates of
    ``scorer`` in lockstep, and keep those up to the first that hits ``stop_value``.

    Restart ``idx`` is :func:`_solve_restart` from ``starts[idx]``; past the
    list it starts from the first columns of the Haar unitary
    ``random_unitary(n, opts.seed + idx)``.  Up to ``width`` restarts are
    live at once, started in index order; each round answers every live
    restart's pending point with one :meth:`_Scorer.evaluate` call, which
    retracts the whole stack and returns the scores and the gradients of
    both of them at once; each restart applies its own merit.
    A finished restart that is at the bound (see :func:`_solve_restart`)
    drops every restart above it, running or not yet started, so the
    considered set is the one a serial run would stop at.  Each candidate
    scores the same in any stack, so the results do not depend on ``width``
    either.  Returns the considered results, in restart order.
    """
    _, d_a, d_b, d_e = scorer.dims
    results: dict[int, dict] = {}
    gens: dict[int, Generator] = {}
    asks: dict[int, np.ndarray] = {}  # each live restart's pending point
    started, cutoff = 0, opts.restarts
    while True:
        while started < cutoff and len(gens) < width:
            x0 = (starts[started] if started < len(starts)
                  else random_unitary(scorer.n, opts.seed + started)[:, :d_a])
            gens[started] = _solve_restart(x0, eps, opts, d_b == d_e, stop_value)
            asks[started] = next(gens[started])
            started += 1
        if not gens:
            break
        live = list(asks)
        xs, scores, grads = scorer.evaluate(np.stack([asks[i] for i in live]))
        for i, x, row, grad in zip(live, xs, scores.tolist(), grads):
            try:
                asks[i] = gens[i].send((x, row, grad))
            except StopIteration as done:
                del gens[i], asks[i]
                results[i] = done.value
                if done.value["at_bound"]:
                    cutoff = min(cutoff, i + 1)
        for i in [i for i in gens if i >= cutoff]:
            del gens[i], asks[i]
    return [results[i] for i in range(cutoff)]


def optimize_xi(
    state: DensityMatrix, eps: float = UNBOUNDED, opts: OptimizerOptions | None = None
) -> DecouplingOutcome:
    """Search the isometry family for the least kept correlations at privacy ``eps``.

    Runs ``opts.restarts`` independent descents over ``d_b*d_e x d_a``
    isometry matrices (from the warm start or the identity embedding, at
    unbounded privacy with ``d_b, d_e >= d_a`` also from the computational
    and the Fourier measurement, then from seeded Haar ones), each
    minimizing the larger mutual information subject to the smaller one
    staying below ``eps`` by rounds of Riemannian L-BFGS on an augmented
    Lagrangian, with a multiplier update after each round (see
    :func:`_solve_restart`).  A restart is feasible when every constraint
    holds within ``FEASIBLE_TOL``.  Returns the best feasible candidate: the
    lowest restart index whose ``i_rb`` lies within ``TIE_TOL`` of the
    least, so round-off among near-tied restarts does not decide it.  If no
    restart is feasible, it returns the least-leaking one (least ``i_re``)
    with ``feasible=False``.

    The restarts advance in lockstep, every round retracting all their trial
    points and giving the scores and their gradients in one batched call
    (see :func:`_run_restarts`); a line search stops as soon as no trial
    step can lower the merit by more than ``MIN_DECREASE`` to first order
    (see :func:`_lbfgs`).  Identical inputs, options, and seed give an
    identical outcome, however many restarts share a batch.
    """
    eps = _check_eps(eps)
    opts = opts if opts is not None else OptimizerOptions()
    _, _, d_r, d_a = _bipartite(state)
    d_b = opts.d_b if opts.d_b is not None else d_a
    d_e = opts.d_e if opts.d_e is not None else d_a
    if d_b * d_e < d_a:
        raise ValidationError(
            f"output side {d_b}x{d_e} cannot accommodate input dimension {d_a}"
        )
    scorer = _Scorer(state.matrix, d_r, d_a, d_b, d_e)
    starts = [_warm_start(opts, d_a, d_b, d_e)]
    # A measurement isometry has rows only on the |kk> rows.  Its R (x) B and
    # R (x) E marginals are block-diagonal, so both gradients, and with them
    # every L-BFGS direction, have rows only there too, and QR keeps that row
    # support: in exact arithmetic a restart started on the measurement
    # family stays on it, where I(R:E) = I(R:B); only at unbounded privacy
    # can that be feasible.  Rounding can still grow rows off |kk> while the
    # restart runs (to 1.5e-6 on random_density(9, 9, 3005) at 3 x 4000).
    if math.isinf(eps) and min(d_b, d_e) >= d_a:
        starts += [
            _measurement_start(np.eye(d_a, dtype=complex), d_a, d_b, d_e),
            _measurement_start(isometries.fourier_basis(d_a), d_a, d_b, d_e),
        ]
    results = _run_restarts(scorer, eps, opts, prop1_lower(state, eps), starts)
    feasible = [r for r in results if r["feasible"]]
    if feasible:
        least = min(r["i_rb"] for r in feasible)
        best = next(r for r in feasible if r["i_rb"] <= least + TIE_TOL)
    else:
        best = min(results, key=lambda r: r["i_re"])

    return DecouplingOutcome(
        theta=best["x"],
        i_rb=float(best["i_rb"]),
        i_re=float(best["i_re"]),
        epsilon=eps,
        feasible=bool(best["feasible"]),
        restarts_used=len(results),
        converged=bool(best["converged"]),
        d_a=d_a,
        d_b=d_b,
        d_e=d_e,
    )


def povm_upper(state: DensityMatrix, opts: OptimizerOptions | None = None) -> float:
    """Least kept correlations over basis-measurement isometries.

    Searches the ``d_a x d_a`` unitaries whose rows ``<k|`` are the vectors
    of a ``d_a``-outcome measurement, embeds each in the rows
    ``|k>_B (x) |k>_E`` of a ``d_a*d_a``-dimensional output, and runs the
    unbounded-privacy search of :func:`optimize_xi` over that sub-family,
    from the computational and the Fourier measurement, stopping at
    :func:`xi_infinity`.  Both outputs of a measurement isometry carry
    identical correlations with the reference, so the larger share that the
    search minimizes is their common value.  The result is an upper bound on
    the optimum at unbounded privacy.
    """
    opts = opts if opts is not None else OptimizerOptions()
    _, _, d_r, d_a = _bipartite(state)
    scorer = _Scorer(state.matrix, d_r, d_a, d_a, d_a, rows=isometries.record_rows(d_a, d_a))
    starts = [np.eye(d_a, dtype=complex), isometries.fourier_basis(d_a)]
    results = _run_restarts(scorer, UNBOUNDED, opts, xi_infinity(state), starts)
    return float(min(res["i_rb"] for res in results))


def bounds_report(
    state: DensityMatrix,
    eps: float = UNBOUNDED,
    opts: OptimizerOptions | None = None,
) -> BoundsReport:
    """All closed-form bounds plus the measurement-search bound for one state.

    The lower bound is evaluated at the requested privacy level; the
    consistency of the unbounded-privacy ordering (formula below half the
    mutual information, lower bound below the measurement bound) is checked
    and a violation raises :class:`ValidationError`.
    """
    eps = _check_eps(eps)
    qmi, ic = _qmi_and_ic(state)
    report = BoundsReport(
        qmi=qmi,
        ic_a_to_r=ic,
        prop1_lower=_prop1(ic, eps),
        half_qmi_upper=0.5 * qmi,
        povm_upper=povm_upper(state, opts),
        xi_infinity=_prop1(ic, UNBOUNDED),
    )
    if report.xi_infinity > report.half_qmi_upper + 1e-9:
        raise ValidationError(
            f"bound ordering violated: formula value {report.xi_infinity:.12g} "
            f"exceeds half the mutual information {report.half_qmi_upper:.12g}"
        )
    if report.xi_infinity > report.povm_upper + FEASIBLE_TOL:
        raise ValidationError(
            f"bound ordering violated: lower bound {report.xi_infinity:.12g} exceeds "
            f"measurement bound {report.povm_upper:.12g}"
        )
    return report


# ---------------------------------------------------------------------------
# Privacy-level sweep


@dataclass(frozen=True)
class SweepRow:
    """One point of :func:`rates_sweep`: ``i_rb``, ``i_re``, ``feasible``,
    ``restarts_used`` and ``converged`` of :func:`optimize_xi` at ``eps``;
    ``xi_envelope`` the running minimum of ``i_rb`` (an upper bound on the
    optimum, which never increases with ``eps``); the bounds
    ``prop1_lower`` at ``eps`` and ``half_qmi_upper`` are reported, not imposed."""

    eps: float
    xi_envelope: float
    i_rb: float
    i_re: float
    prop1_lower: float
    half_qmi_upper: float
    feasible: bool
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def rates_sweep(
    state: DensityMatrix,
    eps_grid: Sequence[float],
    opts: OptimizerOptions | None = None,
) -> SweepResult:
    """Optimize over an ascending grid of privacy levels, one :class:`SweepRow` each.

    Every point is solved at its own ``eps`` by :func:`optimize_xi`, ``inf``
    by the unconstrained search, warm-started from its predecessor's
    certificate.  Infeasibility at one point is recorded in its row and
    does not abort the sweep.
    """
    opts = opts if opts is not None else OptimizerOptions()
    grid = [_check_eps(e) for e in eps_grid]
    if not grid:
        raise ValidationError("privacy grid is empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValidationError("privacy grid must be ascending")
    qmi, ic = _qmi_and_ic(state)
    rows = []
    warm = opts.warm_theta
    envelope = math.inf
    for eps in grid:
        outcome = optimize_xi(state, eps, replace(opts, warm_theta=warm))
        warm = outcome.theta
        envelope = min(envelope, outcome.i_rb)
        rows.append(
            SweepRow(
                eps=eps,
                xi_envelope=envelope,
                i_rb=outcome.i_rb,
                i_re=outcome.i_re,
                prop1_lower=_prop1(ic, eps),
                half_qmi_upper=0.5 * qmi,
                feasible=outcome.feasible,
                restarts_used=outcome.restarts_used,
                converged=outcome.converged,
            )
        )
    return SweepResult(rows=tuple(rows))
