"""Dense complex linear algebra for multi-factor quantum systems.

Matrices are plain ``numpy.ndarray`` objects in row-major order with
``complex128`` entries.  Composite systems are described by a :class:`DimSig`,
whose first label names the most significant tensor factor: a matrix with
signature ``DimSig((2, 3), ("R", "A"))`` acts on ``kron(C^2, C^3)`` and the
flat index of basis vector ``|r, a>`` is ``r * 3 + a``.

Three rules decide what enters the package, wherever it enters, and each
rejects anything else with a :class:`ValidationError` that names the
subject:

- :func:`count`, for a dimension, a count or a seed: a whole, finite real
  number that is not a bool, at least a stated least value.  ``2``, ``2.0``
  and ``np.int64(2)`` are the count 2; ``"2"``, ``True``, ``2.5``, ``nan``
  and ``inf`` are rejected.
- :func:`real`, for a privacy level, a fidelity weight or a tolerance: a
  real number that is not a bool or a string, not NaN, within stated
  bounds, and finite unless the caller allows ``inf``.
- :func:`complex_array`, for a state, an isometry, a measurement vector or
  weights: a non-empty rectangular array of int, float or complex numbers,
  every entry finite, returned as ``complex128``.  Bools, strings, objects
  and ragged nesting are rejected.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import inf, isfinite, isinf, prod
from typing import Iterable, Sequence

import numpy as np

UNITARITY_TOL = 1e-9
DENSITY_TOL = 1e-9

__all__ = [
    "DENSITY_TOL",
    "UNITARITY_TOL",
    "DimSig",
    "ValidationError",
    "complex_array",
    "count",
    "kron",
    "matrix_from_entries",
    "matrix_to_entries",
    "partial_trace",
    "probability_vector",
    "q_factor",
    "real",
    "trace_distance",
    "validate_density",
]


class ValidationError(ValueError):
    """An input broke a rule or failed a structural check (hermiticity, trace, ...)."""


@dataclass(frozen=True)
class DimSig:
    """Ordered dimensions and labels of the tensor factors of a composite system.

    Dimensions follow :func:`count` (at least 1); labels are distinct,
    non-empty strings.  Anything else raises :class:`ValidationError`.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(count(d, 1, "factor dimension") for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        for x in self.labels:
            if not isinstance(x, str) or not x:
                raise ValidationError(f"labels must be non-empty strings, got {x!r}")
        if len(self.dims) != len(self.labels):
            raise ValidationError(
                f"signature has {len(self.dims)} dims but {len(self.labels)} labels"
            )
        if not self.dims:
            raise ValidationError("signature needs at least one factor")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"duplicate labels in {self.labels}")

    @property
    def side(self) -> int:
        """Total dimension (product of the factor dimensions)."""
        return prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no factor labeled {label!r} in {self.labels}") from None

    def subset(self, keep: Iterable[str]) -> "DimSig":
        """Signature of the factors in ``keep``, in the order they appear here."""
        keep = set(keep)
        missing = keep - set(self.labels)
        if missing:
            raise KeyError(f"unknown labels {sorted(missing)}; have {self.labels}")
        pairs = [(d, x) for d, x in zip(self.dims, self.labels) if x in keep]
        return DimSig(tuple(d for d, _ in pairs), tuple(x for _, x in pairs))


def count(value, least: int, what: str) -> int:
    """``value`` as an int, if it is a whole, finite real number, not a bool,
    and at least ``least``; anything else raises :class:`ValidationError`
    naming ``what`` and the value.  An empty ``what`` leaves the subject out,
    for a caller that names it itself."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and isfinite(value) and value == int(value)
    )
    if isinstance(value, bool) or not whole or int(value) < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}".lstrip())
    return int(value)


def real(value, least: float, what: str, most: float = inf, unbounded: bool = False) -> float:
    """``value`` as a float, if it is a real number, not a bool or a string,
    in ``[least, most]``, and finite unless ``unbounded``; anything else, NaN
    among it, raises :class:`ValidationError` naming ``what`` and the value."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and least <= value <= most and (unbounded or isfinite(value))):
        span = f">= {least:g}" if isinf(most) else f"in [{least:g}, {most:g}]"
        rule = f"real number {span} or inf" if unbounded else f"finite real number {span}"
        raise ValidationError(f"{what} must be a {rule}, got {value!r}".lstrip())
    return float(value) + 0.0  # -0.0 as 0.0


def complex_array(value, what: str) -> np.ndarray:
    """``value`` as a ``complex128`` array, if it is a non-empty rectangular
    array of int, float or complex numbers, every entry finite; a bool, a
    string, an object or ragged nesting raises :class:`ValidationError`
    naming ``what``, a plural subject such as ``"weights"``."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = np.array(None)
    if a.dtype.kind not in "iufc" or a.size == 0:
        kind = {1: "vector", 2: "matrix"}.get(a.ndim, "rectangular array")
        kind = kind if a.size else "non-empty array"
        raise ValidationError(f"{what} are not a {kind} of numbers: {value!r}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} have non-finite values")
    return a.astype(complex, copy=False)


def _as_matrix(m, what: str = "matrix entries") -> np.ndarray:
    a = complex_array(m, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the left argument as the most significant factor."""
    return np.kron(complex_array(a, "kron factors"), complex_array(b, "kron factors"))


def partial_trace(m: np.ndarray, sig: DimSig, keep: Iterable[str]) -> np.ndarray:
    """Trace out every factor of ``m`` not named in ``keep``.

    Parameters
    ----------
    m : ndarray
        Square matrix whose side equals ``sig.side``.
    sig : DimSig
        Factor structure of ``m``.
    keep : iterable of str
        Labels of the factors to retain.  The result is ordered as these
        factors appear in ``sig`` (the induced order), irrespective of the
        order of ``keep``.

    Returns
    -------
    ndarray
        The reduced matrix on the kept factors.
    """
    a = _as_matrix(m)
    if a.shape[0] != sig.side:
        raise ValidationError(
            f"matrix side {a.shape[0]} does not match signature side {sig.side}"
        )
    keep_set = set(keep)
    missing = keep_set - set(sig.labels)
    if missing:
        raise KeyError(f"unknown labels {sorted(missing)}; have {sig.labels}")
    if keep_set == set(sig.labels):
        return a.copy()

    n = len(sig.dims)
    t = a.reshape(sig.dims + sig.dims)
    # Build einsum subscripts: kept axes get independent row/column indices,
    # traced axes share one index on both sides.
    row = list(range(n))
    col = [i + n if sig.labels[i] in keep_set else i for i in range(n)]
    out = [i for i in range(n) if sig.labels[i] in keep_set]
    out += [i + n for i in range(n) if sig.labels[i] in keep_set]
    reduced = np.einsum(t, row + col, out)
    side = prod(d for d, x in zip(sig.dims, sig.labels) if x in keep_set)
    return np.ascontiguousarray(reduced.reshape(side, side))


def q_factor(m: np.ndarray) -> np.ndarray:
    """Q factor of the QR decomposition of ``m``, or of each matrix in a stack,
    with its columns rephased so that the diagonal of R is real and positive.

    That phase choice makes the factor unique for a full-rank ``m``: it maps
    a complex Gaussian matrix to a Haar unitary and retracts a point near the
    set of matrices with orthonormal columns back onto it.
    """
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance ``0.5 * ||a - b||_1`` between two states of equal shape."""
    ma = _as_matrix(a)
    mb = _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValidationError(f"shape mismatch {ma.shape} vs {mb.shape}")
    diff = ma - mb
    diff = 0.5 * (diff + diff.conj().T)
    w = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(w)))


def validate_density(m: np.ndarray, tol: float = DENSITY_TOL) -> np.ndarray:
    """Check that ``m`` is a density matrix and return a cleaned copy.

    Rejects, with a diagnostic naming the violated property, any matrix that
    has a non-finite entry, is not Hermitian within ``tol``, whose trace
    differs from 1 by more than ``tol``, or with an eigenvalue below
    ``-tol``.  Eigenvalues in ``[-tol, 0)`` are clamped to zero and the
    spectrum renormalized.  A matrix that is already clean at machine
    precision is returned unchanged, so that reading a serialized state back
    preserves it bit for bit.  ``tol`` itself must be finite and
    non-negative: a NaN or infinite tolerance would pass any matrix.
    """
    clean_tol = 1e-12
    tol = real(tol, 0.0, "validation tolerance")
    a = _as_matrix(m, "density matrix entries")
    defect = np.max(np.abs(a - a.conj().T))
    if defect > tol:
        raise ValidationError(
            f"density matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.1e}"
        )
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise ValidationError(
            f"density matrix trace {tr.real:.12g} differs from 1 by more than {tol:.1e}"
        )
    a = 0.5 * (a + a.conj().T)
    w, u = np.linalg.eigh(a)
    if w[0] < -tol:
        raise ValidationError(
            f"density matrix has negative eigenvalue {w[0]:.3e} below -{tol:.1e}"
        )
    if w[0] >= -clean_tol and abs(tr - 1.0) <= clean_tol:
        return a
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    cleaned = (u * w) @ u.conj().T
    return 0.5 * (cleaned + cleaned.conj().T)


def probability_vector(p, count: int, what: str) -> np.ndarray:
    """``p`` as a float vector of ``count`` probabilities, one for each of
    ``what``: an array by :func:`complex_array`, real, none below ``-1e-12``
    and summing to 1 within ``1e-9``; anything else raises
    :class:`ValidationError`."""
    ps = complex_array(p, "weights")
    if ps.ndim != 1:
        raise ValidationError(f"weights must be a vector, got shape {ps.shape}")
    if ps.size != count:
        raise ValidationError(f"{ps.size} weights for {count} {what}")
    if np.any(ps.imag != 0.0) or np.any(ps.real < -1e-12) or abs(ps.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must be a probability vector summing to 1")
    return ps.real


# ---------------------------------------------------------------------------
# JSON entries of a matrix: ``[[re, im], ...]`` in row-major order, floats at
# full precision, so that a round trip is exact.


def matrix_to_entries(m: np.ndarray) -> list[list[float]]:
    """The ``[[re, im], ...]`` entries of ``m`` in row-major order."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return np.column_stack((flat.real, flat.imag)).tolist()


def matrix_from_entries(entries, rows: int, cols: int) -> np.ndarray:
    """The ``rows x cols`` complex matrix of ``[[re, im], ...]`` entries.

    Inverse of :func:`matrix_to_entries`, bit for bit.  Raises
    :class:`ValidationError` unless ``entries`` is a list of ``rows * cols``
    pairs of real numbers.
    """
    try:
        a = np.array(entries)
    except ValueError:  # ragged nesting
        a = np.array(None)
    if a.dtype.kind not in "iuf" or a.ndim != 2 or a.shape[1] != 2:
        raise ValidationError("matrix entries must be [re, im] pairs of real numbers")
    if a.shape[0] != rows * cols:
        raise ValidationError(f"matrix has {a.shape[0]} entries, expected {rows * cols}")
    return np.ascontiguousarray(a, dtype=float).view(complex).reshape(rows, cols)
