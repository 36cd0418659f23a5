"""Bounds and numerical search for splitting correlations privately.

Given a bipartite state on a reference factor R and an acted factor A, an
isometry into B (kept) and E (discarded) redistributes the R-A correlations:
I(R:B) + I(R:E) always reproduces I(R:A) on pure inputs, and the question is
how small the kept share I(R:B) can be made while the discarded share I(R:E)
stays below a privacy level eps and below I(R:B) itself.  This module
provides the closed-form bounds on that minimum, a multistart optimizer
that searches the isometry family directly (each restart runs L-BFGS on the
exact gradient, one run per quadratic-penalty stage of rising weight, and
all restarts advance in lockstep through one batched scorer), a
measurement-isometry variant, and a sweep of the trade-off curve over a grid
of privacy levels.

The unbounded privacy level is ``float("inf")`` (spelled ``inf`` on the
command line); it is the distinguished IEEE infinity, detectable with
``math.isinf``, never a large finite float.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Generator, Sequence

import numpy as np

from . import entropics, isometries, qmat
from .entropics import EIGENVALUE_CLAMP, spectrum_entropy
from .isometries import Isometry
from .qmat import DimSig, ValidationError
from .states import DensityMatrix, as_density

UNBOUNDED = float("inf")
FEASIBLE_TOL = 1e-6
ACCEPT_SLACK = 1e-4
# A restart whose kept share is this close to the lower bound cannot usefully
# improve, so it skips its remaining penalty stages.
LOWER_BOUND_SLACK = 2.5e-7
# Leak above eps still accepted by that early stop: well inside FEASIBLE_TOL.
EARLY_STOP_LEAK = 1e-7
# _run_restarts stops at the first feasible restart this close to the lower
# bound; looser than LOWER_BOUND_SLACK so a restart that stopped early counts.
RESTART_STOP_SLACK = 5e-7
# The push-under stages aim at half the feasibility tolerance, so the final
# rescoring clears FEASIBLE_TOL with margin.
PUSH_TARGET = 0.5 * FEASIBLE_TOL
# Smallest decrease accepted as progress; below it a move is rounding noise.
MIN_DECREASE = 1e-13
# Gradient norm below which L-BFGS treats its point as stationary.
GRAD_TOL = 1e-9
# (s, y) pairs L-BFGS keeps for its inverse-Hessian estimate.
LBFGS_PAIRS = 8
# Kept shares this close to the best tie; optimize_xi takes the first restart.
TIE_TOL = 1e-9

__all__ = [
    "ACCEPT_SLACK",
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

    Returns the state on (reference, B, E) with the output labels taken from
    the isometry's signature.
    """
    r, _, d_r, d_a = _bipartite(state)
    if v.in_dim != d_a:
        raise ValidationError(
            f"isometry expects input dimension {v.in_dim}, state has {d_a}"
        )
    isometries.validate_isometry(v)
    if r in v.out_sig.labels:
        raise ValidationError(
            f"reference label {r!r} collides with output labels {v.out_sig.labels}"
        )
    out = _conjugate(state.matrix, d_r, d_a, v.matrix)
    sig = DimSig((d_r,) + v.out_sig.dims, (r,) + v.out_sig.labels)
    return as_density(out.reshape(sig.side, sig.side), sig)


def _conjugate(rho: np.ndarray, d_r: int, d_a: int, w: np.ndarray) -> np.ndarray:
    """(1 (x) w) rho (1 (x) w)^dag without forming the Kronecker factor.

    ``w`` is one ``n x d_a`` isometry matrix or a stack of them; the result
    has shape ``(..., d_r, n, d_r, n)``.
    """
    stack = w.shape[:-2]
    n = w.shape[-2]
    x = w[..., None, :, :] @ rho.reshape(d_r, d_a, d_r * d_a)   # (r, o, (r', b))
    y = x.reshape(stack + (d_r * n * d_r, d_a)) @ w.conj().swapaxes(-1, -2)
    return y.reshape(stack + (d_r, n, d_r, n))                   # (r, o, r', p)


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
    eps = float(eps)
    if math.isnan(eps) or eps < 0.0:
        raise ValidationError(f"privacy level must be >= 0 or inf, got {eps}")
    return eps


def prop1_lower(state: DensityMatrix, eps: float = UNBOUNDED) -> float:
    """Lower bound ``max(2 ic - eps, ic, 0)`` on the optimal kept correlations.

    ``ic`` is the coherent information from the acted factor to the
    reference.  With unbounded privacy the first term drops out and the bound
    is ``max(ic, 0)``.
    """
    eps = _check_eps(eps)
    r, a, _, _ = _bipartite(state)
    ic = entropics.coherent_information(state, a, r)
    return max(2.0 * ic - eps, ic, 0.0)


def half_qmi_upper(state: DensityMatrix) -> float:
    """Upper bound: half the mutual information between the two factors."""
    r, a, _, _ = _bipartite(state)
    return 0.5 * entropics.mutual_information(state, r, a)


def xi_infinity(state: DensityMatrix) -> float:
    """Ineliminable correlations at unbounded privacy in the many-copy limit:
    ``max(ic, 0)`` with ``ic`` the coherent information from the acted factor
    to the reference.  Zero exactly whenever ``ic <= 0``, in particular on
    every separable state."""
    r, a, _, _ = _bipartite(state)
    return max(entropics.coherent_information(state, a, r), 0.0)


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
    acted factor's dimension).  ``iterations`` is the per-restart descent
    budget: a restart with ``k`` penalty stages (1 at unbounded privacy with
    equal outputs, else 5) gives each stage ``iterations // (8 k)`` L-BFGS
    iterations, at least one.  ``povm_elements`` sets the number of
    measurement outcomes for :func:`povm_upper` (default: the acted factor's
    dimension).  Counts must be positive integers and ``seed`` a
    non-negative one; anything else raises :class:`ValidationError`.

    ``threads`` is deprecated and ignored: the restarts of a search run in
    lockstep in one thread, and results never depended on it.
    """

    d_b: int | None = None
    d_e: int | None = None
    restarts: int = 32
    iterations: int = 2000
    seed: int = 0
    warm_theta: np.ndarray | None = None
    povm_elements: int | None = None
    threads: int | None = None

    def __post_init__(self):
        optional = {"d_b": 1, "d_e": 1, "povm_elements": 1}
        required = {"restarts": 1, "iterations": 1, "seed": 0}
        for name, least in (optional | required).items():
            value = getattr(self, name)
            if value is None and name in optional:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValidationError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )


@dataclass(frozen=True)
class DecouplingOutcome:
    """Best candidate found by :func:`optimize_xi`.

    ``theta`` parameterizes the certificate isometry (reconstruct it with
    :func:`outcome_isometry`); ``i_rb``/``i_re`` are its canonical scores.
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
    """Rebuild the certificate isometry recorded in an optimizer outcome."""
    return isometries.from_parameters(
        outcome.theta, outcome.d_a, outcome.d_b, outcome.d_e
    )


class _Scorer:
    """Raw mutual-information scores, and their gradients, for a stack of
    parameter vectors.

    Row ``k`` of a ``(K, n*n)`` stack ``theta`` names the isometry made of
    the first ``d_a`` columns of the ``n x n`` unitary ``exp(G(theta[k]))``,
    with ``n = d_b*d_e``; with ``rows`` given, ``n = len(rows)`` and those
    columns are embedded in the listed rows of a ``d_b*d_e x d_a`` matrix
    (the measurement family of :func:`povm_upper`).  Every step works on the
    whole stack at once, and each candidate's result is the same, bit for
    bit, whatever else shares its stack.
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
        self.rho = rho
        self.dims = (d_r, d_a, d_b, d_e)
        self.rows = rows
        self.n = d_b * d_e if rows is None else len(rows)
        rho_r = np.trace(rho.reshape(d_r, d_a, d_r, d_a), axis1=1, axis2=3)
        self.s_r = spectrum_entropy(np.linalg.eigvalsh(rho_r))

    def _isometries(self, theta: np.ndarray):
        """The isometry matrices of the stack, and the eigendecompositions
        behind them for :func:`_pull_back`."""
        d_a, side = self.dims[1], self.dims[2] * self.dims[3]
        u, w, v = _expm_params(theta, self.n, d_a)
        if self.rows is None:
            return u, w, v
        iso = np.zeros((len(theta), side, d_a), dtype=complex)
        iso[:, self.rows, :] = u
        return iso, w, v

    def _marginals(self, iso: np.ndarray):
        """The RB, RE, B and E marginals of (1 (x) w) rho (1 (x) w)^dag, stacked."""
        d_r, d_a, d_b, d_e = self.dims
        k = len(iso)
        t = _conjugate(self.rho, d_r, d_a, iso).reshape(k, d_r, d_b, d_e, d_r, d_b, d_e)
        t_rb = np.trace(t, axis1=3, axis2=6)
        t_re = np.trace(t, axis1=2, axis2=5)
        t_b = np.trace(t_rb, axis1=1, axis2=3)
        t_e = np.trace(t_re, axis1=1, axis2=3)
        return (
            t_rb.reshape(k, d_r * d_b, d_r * d_b),
            t_re.reshape(k, d_r * d_e, d_r * d_e),
            t_b,
            t_e,
        )

    def scores(self, theta: np.ndarray) -> np.ndarray:
        """Raw (I(R:B), I(R:E)) of each candidate, as a ``(K, 2)`` array."""
        t_rb, t_re, t_b, t_e = self._marginals(self._isometries(theta)[0])
        s_rb = spectrum_entropy(np.linalg.eigvalsh(t_rb))
        s_re = spectrum_entropy(np.linalg.eigvalsh(t_re))
        s_b = spectrum_entropy(np.linalg.eigvalsh(t_b))
        s_e = spectrum_entropy(np.linalg.eigvalsh(t_e))
        return np.stack([self.s_r + s_b - s_rb, self.s_r + s_e - s_re], axis=-1)

    def gradient(self, theta: np.ndarray, merits: Sequence[Callable]) -> np.ndarray:
        """Gradient in ``theta[k]`` of ``merits[k](I(R:B), I(R:E))[0]``, stacked.

        Each merit maps its candidate's raw scores to ``(value, d/dI(R:B),
        d/dI(R:E))``.  Each entropy is differentiated as
        :func:`spectrum_entropy` computes it, on the support of its marginal
        only: eigenvalues at or below ``EIGENVALUE_CLAMP`` contribute zero to
        the entropy and zero to its derivative.  At full rank this is the
        exact derivative; on a rank-deficient marginal it is the derivative
        of the clamped entropy, which stays finite where the unclamped one
        diverges.
        """
        d_r, d_a, d_b, d_e = self.dims
        k = len(theta)
        iso, w, v = self._isometries(theta)
        t_rb, t_re, t_b, t_e = self._marginals(iso)
        s_rb, k_rb = _entropy_derivative(t_rb)
        s_re, k_re = _entropy_derivative(t_re)
        s_b, k_b = _entropy_derivative(t_b)
        s_e, k_e = _entropy_derivative(t_e)
        m_b = (self.s_r + s_b - s_rb).tolist()
        m_e = (self.s_r + s_e - s_re).tolist()
        c = np.array([merit(b, e)[1:] for merit, b, e in zip(merits, m_b, m_e)])
        c_b, c_e = c.T.reshape(2, k, 1, 1, 1, 1)
        # dI(R:B) = tr(dt_b k_b) - tr(dt_rb k_rb); lifted to R(x)B(x)E the
        # two terms act as 1_R (x) k_b (x) 1_E and k_rb (x) 1_E.
        eye_r = np.eye(d_r)[:, None, :, None]
        a_rb = c_b * (eye_r * k_b[:, None, :, None, :] - k_rb.reshape(k, d_r, d_b, d_r, d_b))
        a_re = c_e * (eye_r * k_e[:, None, :, None, :] - k_re.reshape(k, d_r, d_e, d_r, d_e))
        lifted = (
            a_rb[:, :, :, None, :, :, None] * np.eye(d_e)[:, None, None, :]
            + a_re[:, :, None, :, :, None, :] * np.eye(d_b)[:, None, None, :, None]
        )
        # d tr(A t) = 2 Re tr(A (1 (x) dw) rho (1 (x) w)^dag) for Hermitian A,
        # so the gradient in w is 2 conj(tr_R(A (1 (x) w) rho)).
        side = d_b * d_e
        q = lifted.reshape(k, d_r * side * d_r, side) @ iso
        q = q.reshape(k, d_r * side, d_r * d_a) @ self.rho
        g_w = 2.0 * np.trace(q.reshape(k, d_r, side, d_r, d_a), axis1=1, axis2=3).conj()
        return _pull_back(g_w if self.rows is None else g_w[:, self.rows, :], w, v)


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


def _expm_params(theta: np.ndarray, n: int, cols: int):
    """First ``cols`` columns of each unitary ``exp(G(theta[k]))`` in a stack,
    with the eigendecompositions ``iG = v diag(w) v^dag``."""
    g = isometries._generator_from_parameters(theta, n)
    w, v = np.linalg.eigh(1j * g)
    u = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)[:, :, :cols]
    return u, w, v


def _pull_back(g_w: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradients in theta from gradients ``g_w`` in the leading columns of U, stacked.

    ``U = exp(G) = v diag(exp(-i w)) v^dag``; its differential follows from
    the Daleckii-Krein formula, ``dU = v (F o (v^dag dH v)) v^dag`` with
    ``dH = i dG`` and the divided differences ``F`` of ``exp(-i x)`` at the
    eigenvalues ``w`` (written with ``sinc`` so that close eigenvalues need
    no special case).  The change ``Re sum(g_w * dU[:, :k])`` becomes
    ``Re tr(gamma^dag dG)`` with a skew-Hermitian ``gamma``, and each
    parameter's partial derivative is the matching entry of ``gamma``,
    doubled for the strict upper triangle, where each parameter moves two
    entries of ``G``.
    """
    cols = g_w.shape[-1]
    n = w.shape[-1]
    dw = w[:, :, None] - w[:, None, :]
    f = -1j * np.exp(-0.5j * (w[:, :, None] + w[:, None, :])) * np.sinc(dw / (2.0 * np.pi))
    vh = v.conj().swapaxes(-1, -2)
    q = vh[:, :, :cols] @ g_w.swapaxes(-1, -2) @ v
    q = v @ (q * f) @ vh
    grad = isometries._parameters_from_generator(-0.5j * (q + q.conj().swapaxes(-1, -2)))
    grad[:, n:] *= 2.0
    return grad


def _lbfgs(merit, theta, iters):
    """Limited-memory BFGS on ``merit`` from ``theta``, at most ``iters`` iterations.

    A generator of evaluation requests: it yields ``(theta, None)`` for the
    raw scores (I(R:B), I(R:E)) at ``theta``, to which it applies ``merit``
    itself, and ``(theta, merit)`` for the merit's gradient there; the
    driver sends each answer back.  Directions come from the two-loop
    recursion over the last ``LBFGS_PAIRS`` (s, y) pairs (Nocedal & Wright,
    *Numerical Optimization*, 2006, alg. 7.4); with no pairs, or no descent,
    the pairs are dropped and the step is ``-g`` scaled to length 0.3.  The
    step is halved until the Armijo condition (c = 1e-4) holds and the merit
    drops by more than ``MIN_DECREASE``.  Returns ``(theta, value,
    stationary)``; ``stationary`` is set when the gradient norm falls below
    ``GRAD_TOL`` or no trial step lowers the merit.
    """
    value = merit(*(yield theta, None))[0]
    g = yield theta, merit
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    for _ in range(iters):
        gn = float(np.linalg.norm(g))
        if gn < GRAD_TOL:
            return theta, value, True
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d = d * ((s @ y) / (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - rho * (y @ d)) * s
        slope = float(g @ d)
        if not pairs or slope >= 0.0:
            pairs.clear()
            d = -g * (0.3 / gn)
            slope = -0.3 * gn
        a = 1.0
        for _ in range(30):
            cand = theta + a * d
            v = merit(*(yield cand, None))[0]
            if v <= value + 1e-4 * a * slope and v < value - MIN_DECREASE:
                break
            a *= 0.5
        else:
            return theta, value, True
        g_new = yield cand, merit
        s, y = cand - theta, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs = pairs[-(LBFGS_PAIRS - 1) :] + [(s, y, 1.0 / sy)]
        theta, value, g = cand, v, g_new
    return theta, value, False


def _measurement_start(basis: np.ndarray, d_a: int, d_b: int, d_e: int) -> np.ndarray | None:
    """Parameters of an isometry that records a basis measurement in both outputs."""
    if d_b < d_a or d_e < d_a:
        return None
    n = d_b * d_e
    v = np.zeros((n, d_a), dtype=complex)
    for m in range(d_a):
        v[m * d_e + m, :] = basis[:, m].conj()
    u = isometries.complete_to_unitary(v)
    return isometries.parameters_from_unitary(u)


def _warm_start(opts: OptimizerOptions, n: int) -> np.ndarray:
    """Start of restart 0: a copy of ``opts.warm_theta`` if set, else zero."""
    if opts.warm_theta is None:
        return np.zeros(n * n)
    theta = np.array(opts.warm_theta, dtype=float)
    if theta.shape != (n * n,):
        raise ValidationError(
            f"warm start has shape {theta.shape}, expected ({n * n},)"
        )
    if not np.all(np.isfinite(theta)):
        raise ValidationError("warm start has non-finite entries")
    return theta


def _penalized(m_b: float, m_e: float, eps: float, weight: float, symmetric: bool):
    """Penalized objective and its partial derivatives in ``m_b`` and ``m_e``.

    Symmetric outputs minimize the larger share and penalize the smaller one
    above ``eps``; otherwise ``m_b`` is minimized with penalties on ``m_e``
    exceeding ``m_b`` or ``eps``.  Returns ``(value, d/dm_b, d/dm_e)``.
    """
    if symmetric:
        over = 0.0 if math.isinf(eps) else max(0.0, min(m_b, m_e) - eps)
        pen = weight * over**2
        slope = 2.0 * weight * over
        if m_b >= m_e:
            return m_b + pen, 1.0, slope
        return m_e + pen, slope, 1.0
    cross = max(0.0, m_e - m_b)
    over = 0.0 if math.isinf(eps) else max(0.0, m_e - eps)
    pen = weight * cross**2
    if not math.isinf(eps):
        pen += weight * over**2
    return (
        m_b + pen,
        1.0 - 2.0 * weight * cross,
        2.0 * weight * (cross + over),
    )


def _solve_restart(
    theta0: np.ndarray,
    eps: float,
    opts: OptimizerOptions,
    symmetric: bool,
    stop_value: float,
):
    """One restart from ``theta0``: an L-BFGS run per penalty stage.

    Five stages raise the penalty weight from 10 to 1e5 (one stage when
    unconstrained), each with ``opts.iterations // (8 * stages)`` iterations;
    up to three push stages of half that plus one follow while the leak
    overshoots ``eps``.  ``converged``: the last stage ended stationary, or
    the restart reached ``stop_value``, which also ends it early.  A
    generator of the requests of :func:`_lbfgs`; returns the restart's
    result.
    """

    def merit(weight):
        return lambda m_b, m_e: _penalized(m_b, m_e, eps, weight, symmetric)

    unconstrained = math.isinf(eps) and symmetric
    weights = [0.0] if unconstrained else [10.0 * 10.0 ** s for s in range(5)]
    per_stage = max(1, opts.iterations // (8 * len(weights)))

    theta = theta0
    for weight in weights:
        theta, _, converged = yield from _lbfgs(merit(weight), theta, per_stage)
        m_b, m_e = yield theta, None
        lo = min(m_b, m_e) if symmetric else m_e
        # A restart that already sits at the lower bound and satisfies the
        # constraint cannot improve further; skip the remaining stages.
        hi = max(m_b, m_e) if symmetric else m_b
        if hi <= stop_value + LOWER_BOUND_SLACK and (
            math.isinf(eps) or lo <= eps + EARLY_STOP_LEAK
        ):
            converged = True
            break
    else:
        if not unconstrained:
            weight = weights[-1]
            for _ in range(3):
                m_b, m_e = yield theta, None
                lo = min(m_b, m_e) if symmetric else m_e
                if math.isinf(eps) or lo <= eps + PUSH_TARGET:
                    break
                weight *= 10.0
                theta, _, converged = yield from _lbfgs(
                    merit(weight), theta, per_stage // 2 + 1
                )

    m_b, m_e = yield theta, None
    if symmetric and m_e > m_b:
        m_b, m_e = m_e, m_b
    feasible = m_e <= min(eps, m_b) + FEASIBLE_TOL
    near = m_e <= eps + ACCEPT_SLACK and m_e <= m_b + ACCEPT_SLACK
    return {
        "theta": theta,
        "i_rb": m_b,
        "i_re": m_e,
        "feasible": feasible,
        "near": near,
        "converged": converged,
    }


def _run_restarts(
    scorer: _Scorer,
    count: int,
    restart: Callable[[int], Generator],
    stop_value: float,
    width: int | None = None,
):
    """Run restarts in lockstep and keep those up to the first that hits ``stop_value``.

    ``restart(idx)`` makes restart ``idx`` as a generator of the requests of
    :func:`_lbfgs`.  Up to ``width`` restarts (default: all) are live at
    once, started in index order; each round answers every live restart's
    pending request, with one :meth:`_Scorer.scores` call for all score
    requests and one :meth:`_Scorer.gradient` call for all gradient
    requests.  A finished restart that is feasible and within
    ``RESTART_STOP_SLACK`` of ``stop_value`` drops every restart above it,
    running or not yet started, so the considered set is the one a serial
    run would stop at.  Each candidate scores the same in any stack, so the
    results do not depend on ``width`` either.  Returns the considered
    results, in restart order.
    """

    def meets(res):
        return res["feasible"] and res["i_rb"] <= stop_value + RESTART_STOP_SLACK

    width = count if width is None else width
    results: dict[int, dict] = {}
    gens: dict[int, Generator] = {}
    asks: dict[int, tuple] = {}  # each live restart's pending (theta, merit or None)
    started, cutoff = 0, count
    while True:
        while started < cutoff and len(gens) < width:
            gens[started] = restart(started)
            asks[started] = next(gens[started])
            started += 1
        if not gens:
            break
        replies = {}
        scored = [i for i, (_, merit) in asks.items() if merit is None]
        if scored:
            values = scorer.scores(np.stack([asks[i][0] for i in scored]))
            replies.update(zip(scored, map(tuple, values.tolist())))
        graded = [i for i, (_, merit) in asks.items() if merit is not None]
        if graded:
            grads = scorer.gradient(
                np.stack([asks[i][0] for i in graded]), [asks[i][1] for i in graded]
            )
            replies.update(zip(graded, grads))
        for i, reply in replies.items():
            try:
                asks[i] = gens[i].send(reply)
            except StopIteration as done:
                del gens[i], asks[i]
                results[i] = done.value
                if meets(done.value):
                    cutoff = min(cutoff, i + 1)
        for i in [i for i in gens if i >= cutoff]:
            del gens[i], asks[i]
    return [results[i] for i in range(cutoff)]


def _search(
    scorer: _Scorer,
    eps: float,
    opts: OptimizerOptions,
    stop_value: float,
    starts: Sequence[np.ndarray | None],
):
    """Run the restarts of one search over the candidates of ``scorer``.

    Restart ``idx`` starts from ``starts[idx]``; past the list, or where an
    entry is None, it starts from a seeded random point.  Returns what
    :func:`_run_restarts` returns.
    """
    n = scorer.n
    symmetric = scorer.dims[2] == scorer.dims[3]

    def restart(idx: int):
        theta0 = starts[idx] if idx < len(starts) else None
        if theta0 is None:
            theta0 = np.random.default_rng(opts.seed + idx).standard_normal(n * n) * 0.7
        return _solve_restart(theta0, eps, opts, symmetric, stop_value)

    return _run_restarts(scorer, opts.restarts, restart, stop_value)


def optimize_xi(
    state: DensityMatrix, eps: float = UNBOUNDED, opts: OptimizerOptions | None = None
) -> DecouplingOutcome:
    """Search the isometry family for the least kept correlations at privacy ``eps``.

    Runs ``opts.restarts`` independent descents (structured starts first,
    then seeded random ones), each a staged quadratic-penalty minimization of
    the larger mutual information subject to the smaller one staying below
    ``eps``, by L-BFGS on the exact gradient in every stage.  Returns the
    best feasible candidate: the lowest restart index whose ``i_rb`` lies
    within ``TIE_TOL`` of the least, so round-off among near-tied restarts
    does not decide it.  If no restart satisfies the privacy constraint
    within ``1e-4``, the returned outcome reports the least-leaking
    candidate with ``feasible=False``.

    The restarts advance in lockstep, every round scoring all of them in
    one batched call (see :func:`_run_restarts`).  Identical inputs,
    options, and seed give an identical outcome, however many restarts
    share a batch.
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
    starts = [
        _warm_start(opts, d_b * d_e),
        _measurement_start(np.eye(d_a, dtype=complex), d_a, d_b, d_e),
        _measurement_start(isometries.fourier_basis(d_a), d_a, d_b, d_e),
    ]
    results = _search(scorer, eps, opts, prop1_lower(state, eps), starts)
    pool = [r for r in results if r["feasible"]] or [r for r in results if r["near"]]
    if pool:
        least = min(r["i_rb"] for r in pool)
        best = next(r for r in pool if r["i_rb"] <= least + TIE_TOL)
    else:
        best = min(results, key=lambda r: r["i_re"])

    return DecouplingOutcome(
        theta=best["theta"],
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
    """Least kept correlations over rank-one measurement isometries.

    Parameterizes the measurement by a unitary on an ``m``-outcome space
    (``opts.povm_elements``, default the acted dimension), embeds it in the
    rows ``|k>_B (x) |k>_E`` of an ``m*m``-dimensional output, and runs the
    unbounded-privacy search of :func:`optimize_xi` over that sub-family,
    from the identity and the Fourier measurement, stopping at
    :func:`xi_infinity`.  Both outputs of a measurement isometry carry
    identical correlations with the reference, so the larger share that the
    search minimizes is their common value.  The result is an upper bound on
    the optimum at unbounded privacy.
    """
    opts = opts if opts is not None else OptimizerOptions()
    _, _, d_r, d_a = _bipartite(state)
    m = opts.povm_elements if opts.povm_elements is not None else d_a
    if m < d_a:
        raise ValidationError(
            f"need at least {d_a} measurement outcomes, got {m}"
        )
    scorer = _Scorer(state.matrix, d_r, d_a, m, m, rows=np.arange(m) * m + np.arange(m))
    starts = [np.zeros(m * m), isometries.parameters_from_unitary(isometries.fourier_basis(m))]
    results = _search(scorer, UNBOUNDED, opts, xi_infinity(state), starts)
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
    r, a, _, _ = _bipartite(state)
    qmi = entropics.mutual_information(state, r, a)
    ic = entropics.coherent_information(state, a, r)
    report = BoundsReport(
        qmi=qmi,
        ic_a_to_r=ic,
        prop1_lower=prop1_lower(state, eps),
        half_qmi_upper=0.5 * qmi,
        povm_upper=povm_upper(state, opts),
        xi_infinity=max(ic, 0.0),
    )
    if report.xi_infinity > report.half_qmi_upper + 1e-9:
        raise ValidationError(
            f"bound ordering violated: formula value {report.xi_infinity:.12g} "
            f"exceeds half the mutual information {report.half_qmi_upper:.12g}"
        )
    if max(ic, 0.0) > report.povm_upper + FEASIBLE_TOL:
        raise ValidationError(
            f"bound ordering violated: lower bound {max(ic, 0.0):.12g} exceeds "
            f"measurement bound {report.povm_upper:.12g}"
        )
    return report


# ---------------------------------------------------------------------------
# Privacy-level sweep


@dataclass(frozen=True)
class SweepRow:
    eps: float
    xi_raw: float
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

    CSV_COLUMNS = (
        "eps",
        "xi_raw",
        "xi_envelope",
        "i_rb",
        "i_re",
        "prop1_lower",
        "half_qmi_upper",
        "feasible",
        "restarts_used",
        "converged",
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(
                [
                    _fmt(row.eps),
                    _fmt(row.xi_raw),
                    _fmt(row.xi_envelope),
                    _fmt(row.i_rb),
                    _fmt(row.i_re),
                    _fmt(row.prop1_lower),
                    _fmt(row.half_qmi_upper),
                    str(bool(row.feasible)).lower(),
                    str(int(row.restarts_used)),
                    str(bool(row.converged)).lower(),
                ]
            )
        return buf.getvalue()


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else format(float(x), ".12g")


def rates_sweep(
    state: DensityMatrix,
    eps_grid: Sequence[float],
    opts: OptimizerOptions | None = None,
) -> SweepResult:
    """Optimize over an ascending grid of privacy levels.

    Privacy levels above half the mutual information are solved at that
    ceiling, since larger levels cannot change the optimum.  Each grid point
    warm-starts from its predecessor's certificate, and the reported envelope
    is the running minimum of the raw values, which is a valid monotone
    non-increasing upper bound because the optimum never increases with eps.
    Optimizer infeasibility at one grid point is recorded in its row and does
    not abort the sweep.
    """
    opts = opts if opts is not None else OptimizerOptions()
    grid = [_check_eps(e) for e in eps_grid]
    if not grid:
        raise ValidationError("privacy grid is empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValidationError("privacy grid must be ascending")
    half = half_qmi_upper(state)
    rows = []
    warm = opts.warm_theta
    envelope = math.inf
    for eps in grid:
        eps_solve = eps if eps < half else half
        point_opts = replace(opts, warm_theta=warm)
        outcome = optimize_xi(state, eps_solve, point_opts)
        warm = outcome.theta
        envelope = min(envelope, outcome.i_rb)
        rows.append(
            SweepRow(
                eps=eps,
                xi_raw=outcome.i_rb,
                xi_envelope=envelope,
                i_rb=outcome.i_rb,
                i_re=outcome.i_re,
                prop1_lower=prop1_lower(state, eps),
                half_qmi_upper=half,
                feasible=outcome.feasible,
                restarts_used=outcome.restarts_used,
                converged=outcome.converged,
            )
        )
    return SweepResult(rows=tuple(rows))
