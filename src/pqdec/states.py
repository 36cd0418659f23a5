"""Constructors and containers for the states the package works with.

A :class:`DensityMatrix` couples a validated matrix with its factor
signature; a :class:`PureState` does the same for a unit vector.  All random
constructors take a non-negative integer seed and draw from a fresh PCG64
generator, so identical seeds give identical states; related samplers derive
substream seeds by adding fixed offsets.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass
from math import prod
from typing import Sequence

import numpy as np

from . import qmat
from .qmat import DimSig, ValidationError

RANK_TOL = 1e-12

__all__ = [
    "DensityMatrix",
    "PureState",
    "append_maximally_mixed",
    "as_density",
    "classically_correlated",
    "isotropic",
    "load_state",
    "max_entangled",
    "merge_labels",
    "purify",
    "random_density",
    "random_pure",
    "random_separable",
    "random_unitary",
    "save_state",
    "state_from_json",
    "state_to_json",
    "to_density",
]


@dataclass(frozen=True, slots=True, eq=False)
class DensityMatrix:
    """A density matrix together with the signature of its tensor factors.

    The matrix is checked where it is made, by :func:`qmat.validate_density`
    at ``qmat.DENSITY_TOL``: finite, square with the signature's side,
    Hermitian and of trace 1 within 1e-9, with no eigenvalue below -1e-9.
    Anything else raises :class:`ValidationError`.  The check does not clean:
    the matrix is kept as given, as ``complex128``.  With ``clean=tol`` (what
    :func:`as_density` passes) the check runs within ``tol`` instead, and the
    cleaned copy that :func:`qmat.validate_density` returns is kept; it
    passes the check at ``qmat.DENSITY_TOL``, so it is not checked again.
    """

    matrix: np.ndarray
    sig: DimSig
    clean: InitVar[float | None] = None

    def __post_init__(self, clean):
        m = qmat.complex_array(self.matrix, "density matrix entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.sig.side:
            raise ValidationError(
                f"matrix shape {m.shape} does not match signature side {self.sig.side}"
            )
        cleaned = qmat.validate_density(m, qmat.DENSITY_TOL if clean is None else clean)
        object.__setattr__(self, "matrix", m if clean is None else cleaned)

    def marginal(self, keep: str | Sequence[str]) -> "DensityMatrix":
        """Reduced state on the named factors (induced order)."""
        keep = (keep,) if isinstance(keep, str) else tuple(keep)
        sub = self.sig.subset(keep)
        return DensityMatrix(qmat.partial_trace(self.matrix, self.sig, keep), sub)


@dataclass(frozen=True, slots=True, eq=False)
class PureState:
    """A unit vector together with the signature of its tensor factors."""

    vector: np.ndarray
    sig: DimSig

    def __post_init__(self):
        v = qmat.complex_array(self.vector, "state vector entries").reshape(-1)
        if v.shape[0] != self.sig.side:
            raise ValidationError(
                f"vector length {v.shape[0]} does not match signature side {self.sig.side}"
            )
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"state vector norm {norm:.12g} is not 1 within 1e-9")
        object.__setattr__(self, "vector", v)


def as_density(matrix: np.ndarray, sig: DimSig, tol: float = qmat.DENSITY_TOL) -> DensityMatrix:
    """Validate, clean, and wrap a loaded or computed matrix as a :class:`DensityMatrix`.

    The constructor's check, :func:`qmat.validate_density` within ``tol``, is
    the only one: the state keeps the cleaned matrix it returns, Hermitian,
    with eigenvalues clamped at 0 and trace 1.
    """
    # Checked first: ``clean=None`` would keep the matrix uncleaned.
    return DensityMatrix(matrix, sig, clean=qmat.real(tol, 0.0, "validation tolerance"))


def to_density(psi: PureState) -> DensityMatrix:
    """Outer-product density matrix of a pure state."""
    v = psi.vector
    m = np.outer(v, v.conj())
    # Dividing by the trace cancels the rounding of |v_i|^2 terms (for the
    # maximally entangled pair it makes the entries exactly 1/d).
    return DensityMatrix(m / np.trace(m).real, psi.sig)


def merge_labels(
    state: DensityMatrix, labels: Sequence[str], new_label: str | None = None
) -> DensityMatrix:
    """Fuse a contiguous run of factors into a single factor.

    The underlying matrix is unchanged; only the signature coarsens.  The run
    must be contiguous in the signature, since fusing non-adjacent factors
    would require a basis permutation.
    """
    labels = tuple(labels)
    axes = [state.sig.axis(x) for x in labels]
    if axes != list(range(axes[0], axes[0] + len(axes))):
        raise ValidationError(
            f"labels {labels} are not a contiguous run in {state.sig.labels}"
        )
    fused_dim = prod(state.sig.dims[a] for a in axes)
    new_label = "".join(labels) if new_label is None else new_label
    dims = (
        state.sig.dims[: axes[0]] + (fused_dim,) + state.sig.dims[axes[-1] + 1 :]
    )
    names = (
        state.sig.labels[: axes[0]] + (new_label,) + state.sig.labels[axes[-1] + 1 :]
    )
    return DensityMatrix(state.matrix, DimSig(dims, names))


def max_entangled(d: int, labels: tuple[str, str] = ("R", "A")) -> PureState:
    """Maximally entangled pure state ``sum_i |ii> / sqrt(d)`` on two d-level factors."""
    d = qmat.count(d, 2, "dimension")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(v, DimSig((d, d), labels))


def classically_correlated(
    p: Sequence[float],
    conditionals: Sequence[np.ndarray],
    labels: tuple[str, str] = ("R", "A"),
) -> DensityMatrix:
    """Mixture ``sum_i p_i rho_i (x) |i><i|`` with a classical register second.

    ``p`` must be a probability vector and each conditional a density matrix
    of one common dimension.
    """
    p = qmat.probability_vector(p, len(conditionals), "conditional states")
    conds = [qmat.validate_density(c) for c in conditionals]
    d_r = conds[0].shape[0]
    if any(c.shape[0] != d_r for c in conds):
        raise ValidationError("conditional states must share one dimension")
    d_a = p.size
    out = np.zeros((d_r * d_a, d_r * d_a), dtype=complex)
    for i, (w, c) in enumerate(zip(p, conds)):
        flag = np.zeros((d_a, d_a))
        flag[i, i] = 1.0
        out += w * qmat.kron(c, flag)
    return as_density(out, DimSig((d_r, d_a), labels))


def append_maximally_mixed(state: DensityMatrix, m: int, label: str) -> DensityMatrix:
    """Adjoin an uncorrelated maximally mixed m-level factor as the new last factor."""
    m = qmat.count(m, 1, "dimension")
    if label in state.sig.labels:
        raise ValidationError(f"label {label!r} already present in {state.sig.labels}")
    out = qmat.kron(state.matrix, np.eye(m) / m)
    sig = DimSig(state.sig.dims + (m,), state.sig.labels + (label,))
    return DensityMatrix(out, sig)


def isotropic(d: int, f: float, labels: tuple[str, str] = ("R", "A")) -> DensityMatrix:
    """Mixture of the maximally entangled projector (weight ``f``) with the
    uniform state on its orthocomplement."""
    f = qmat.real(f, 0.0, "fidelity weight", most=1.0)
    d = qmat.count(d, 2, "dimension")
    phi = to_density(max_entangled(d, labels)).matrix
    rest = (np.eye(d * d) - phi) / (d * d - 1)
    return as_density(f * phi + (1.0 - f) * rest, DimSig((d, d), labels))


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _rng(seed) -> np.random.Generator:
    """A fresh PCG64 generator seeded with ``seed``, a non-negative integer."""
    return np.random.default_rng(qmat.count(seed, 0, "seed"))


def random_density(
    d: int,
    rank: int,
    seed: int,
    labels: Sequence[str] = ("Q",),
    dims: Sequence[int] | None = None,
) -> DensityMatrix:
    """Random density matrix ``G G^dag / tr`` with a d x rank complex Gaussian G.

    By default the state carries a single factor of dimension ``d``; pass
    ``labels`` and ``dims`` to view it as a composite system.
    """
    d = qmat.count(d, 1, "dimension")
    rank = qmat.count(rank, 1, "rank")
    if rank > d:
        raise ValidationError(f"rank must lie in [1, {d}], got {rank}")
    dims = (d,) if dims is None else tuple(dims)
    sig = DimSig(dims, tuple(labels))
    if sig.side != d:
        raise ValidationError(f"dims {dims} do not multiply to {d}")
    g = _ginibre(_rng(seed), d, rank)
    m = g @ g.conj().T
    return as_density(m / np.trace(m).real, sig)


def random_pure(
    dims: Sequence[int], seed: int, labels: Sequence[str] | None = None
) -> PureState:
    """Haar-distributed pure state on the composite system with the given dims."""
    dims = tuple(dims)
    labels = tuple(f"Q{i}" for i in range(len(dims))) if labels is None else tuple(labels)
    sig = DimSig(dims, labels)
    v = _ginibre(_rng(seed), sig.side, 1).reshape(-1)
    return PureState(v / np.linalg.norm(v), sig)


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    d = qmat.count(d, 1, "dimension")
    return qmat.q_factor(_ginibre(_rng(seed), d, d))


def random_separable(
    d_r: int,
    d_a: int,
    terms: int,
    seed: int,
    labels: tuple[str, str] = ("R", "A"),
) -> DensityMatrix:
    """Random convex mixture of product states ``sum_k p_k rho_k (x) tau_k``."""
    sig = DimSig((d_r, d_a), labels)
    terms = qmat.count(terms, 1, "number of product terms")
    p = _rng(seed).dirichlet(np.ones(terms))
    out = np.zeros((sig.side, sig.side), dtype=complex)
    for k in range(terms):
        # Substream seeds by fixed offsets from the master seed.
        left = random_density(d_r, d_r, seed + 1 + 2 * k).matrix
        right = random_density(d_a, d_a, seed + 2 + 2 * k).matrix
        out += p[k] * qmat.kron(left, right)
    return as_density(out, sig)


def purify(state: DensityMatrix, new_label: str = "S") -> PureState:
    """Spectral purification, with the purifying factor first.

    Writes ``rho = sum_i lam_i |v_i><v_i|`` and returns
    ``sum_i sqrt(lam_i) |i> (x) |v_i>`` on the purifying factor (dimension =
    rank of ``rho``) followed by the original factors.  Tracing the purifier
    back out recovers ``rho`` to 1e-10.
    """
    if new_label in state.sig.labels:
        raise ValidationError(f"label {new_label!r} already present in {state.sig.labels}")
    w, u = np.linalg.eigh(state.matrix)
    keep = w > RANK_TOL
    w, u = w[keep], u[:, keep]
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    rank = int(w.size)
    v = (np.sqrt(w)[:, None] * u.T).reshape(-1)
    sig = DimSig((rank,) + state.sig.dims, (new_label,) + state.sig.labels)
    return PureState(v / np.linalg.norm(v), sig)


# ---------------------------------------------------------------------------
# Serialization: {"labels": [...], "dims": [...], "matrix": [[re, im], ...]}
# with the matrix flattened in row-major order and floats at full precision.


def state_to_json(state: DensityMatrix) -> str:
    payload = {
        "labels": list(state.sig.labels),
        "dims": list(state.sig.dims),
        "matrix": qmat.matrix_to_entries(state.matrix),
    }
    return json.dumps(payload)


def state_from_json(text: str | bytes, tol: float = qmat.DENSITY_TOL) -> DensityMatrix:
    try:
        payload = json.loads(text)
        labels, dims, entries = payload["labels"], payload["dims"], payload["matrix"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed state document: {exc}") from exc
    for key, value in (("labels", labels), ("dims", dims)):
        if not isinstance(value, list):
            raise ValidationError(f"malformed state document: {key!r} must be a list, got {value!r}")
    sig = DimSig(dims, labels)
    m = qmat.matrix_from_entries(entries, sig.side, sig.side)
    return as_density(m, sig, tol)


def save_state(state: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))
        fh.write("\n")


def load_state(path, tol: float = qmat.DENSITY_TOL) -> DensityMatrix:
    with open(path, "rb") as fh:
        return state_from_json(fh.read(), tol)
