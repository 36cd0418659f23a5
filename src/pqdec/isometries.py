"""Isometries that split one system into a kept factor and a discarded factor.

An :class:`Isometry` maps an input space of dimension ``in_dim`` into the
tensor product of a kept factor B and a discarded factor E; its matrix has
``d_B * d_E`` rows and ``in_dim`` columns, with B the most significant output
factor.  The constructors here cover the closed-form splittings used
throughout the package (twirls, basis shredders, measurement isometries,
mixed-unitary dilations) plus a smooth parameterization suitable for
numerical search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import qmat
from .qmat import DimSig, ValidationError

__all__ = [
    "Isometry",
    "RankOnePovm",
    "bell_shredder",
    "complete_to_unitary",
    "from_parameters",
    "fourier_basis",
    "isometry_from_json",
    "isometry_to_json",
    "load_isometry",
    "mub_shredder",
    "parameters_from_unitary",
    "pauli_twirl_isometry",
    "povm_isometry",
    "random_unitary_channel_dilation",
    "save_isometry",
    "twirl_isometry",
    "validate_isometry",
]

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Isometry:
    """Matrix of an isometry together with the signature of its output factors."""

    matrix: np.ndarray
    out_sig: DimSig
    in_dim: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if len(self.out_sig.dims) != 2:
            raise ValidationError(
                f"output signature needs exactly two factors, got {self.out_sig.labels}"
            )
        if m.shape != (self.out_sig.side, self.in_dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match output side "
                f"{self.out_sig.side} x input dim {self.in_dim}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def d_b(self) -> int:
        return self.out_sig.dims[0]

    @property
    def d_e(self) -> int:
        return self.out_sig.dims[1]


@dataclass(frozen=True)
class RankOnePovm:
    """Rank-one measurement given by sub-normalized kets with sum |v><v| = 1."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.vectors)
        if not vecs:
            raise ValidationError("measurement needs at least one element")
        d = vecs[0].shape[0]
        if any(v.shape[0] != d for v in vecs):
            raise ValidationError("measurement vectors must share one dimension")
        if not all(np.all(np.isfinite(v)) for v in vecs):
            raise ValidationError("measurement vectors have non-finite entries")
        total = sum(np.outer(v, v.conj()) for v in vecs)
        defect = float(np.max(np.abs(total - np.eye(d))))
        if defect > qmat.UNITARITY_TOL:
            raise ValidationError(
                f"measurement elements do not resolve the identity: defect {defect:.3e}"
            )
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]


def _check_orthonormal(m: np.ndarray, message: str, tol: float = qmat.UNITARITY_TOL) -> None:
    """Raise unless ``max |m^dag m - 1| <= tol``; a NaN defect fails too.

    ``message`` is formatted with ``defect`` and ``tol``.
    """
    defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))
    if not defect <= tol:
        raise ValidationError(message.format(defect=defect, tol=tol))


def validate_isometry(v: Isometry, tol: float = qmat.UNITARITY_TOL) -> None:
    """Raise unless ``v.matrix`` is finite with orthonormal columns within ``tol``."""
    if not np.all(np.isfinite(v.matrix)):
        raise ValidationError("isometry matrix has non-finite entries")
    _check_orthonormal(
        v.matrix,
        "columns are not orthonormal: max |V^dag V - 1| = {defect:.3e} exceeds {tol:.1e}",
        tol,
    )


def _out_sig(d_b: int, d_e: int, labels: tuple[str, str]) -> DimSig:
    return DimSig((d_b, d_e), labels)


def twirl_isometry(d: int, labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Splitting that replaces the input with half of a fresh entangled pair.

    Sends ``|psi>`` to ``|Phi+>_{B,E1} (x) |psi>_{E2}``: the kept factor B is
    maximally entangled with the first half of the discarded factor, and the
    input itself is moved wholesale into the second half.  ``d_B = d`` and
    ``d_E = d**2``.
    """
    if d < 2:
        raise ValidationError(f"need dimension >= 2, got {d}")
    m = np.zeros((d * d * d, d), dtype=complex)
    s = 1.0 / np.sqrt(d)
    for b in range(d):
        for a in range(d):
            # row index over (B, E1, E2) with E = E1 (x) E2
            m[(b * d + b) * d + a, a] = s
    return Isometry(m, _out_sig(d, d * d, labels), d)


def fourier_basis(d: int) -> np.ndarray:
    """Columns are the Fourier basis kets ``e^k[j] = omega^(jk) / sqrt(d)``."""
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def mub_shredder(d: int, labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Copy-style splitting along the Fourier basis, unbiased to the computational one.

    Sends ``|e^k>`` to ``|e^k>_B (x) |e^k>_E``.  Correlations carried by a
    classical register in the computational basis are destroyed on both
    output factors, since every Fourier ket has uniform overlap with every
    computational ket.
    """
    if d < 2:
        raise ValidationError(f"need dimension >= 2, got {d}")
    e = fourier_basis(d)
    # (b, e_out, a) <- sum_k e[b, k] conj(e[a, k]) e[e_out, k]
    m = np.einsum("bk,ak,ek->bea", e, e.conj(), e).reshape(d * d, d)
    return Isometry(m, _out_sig(d, d, labels), d)


def pauli_twirl_isometry(labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Controlled application of the four Pauli operators, control register last.

    Acts on a qubit joined with a four-level register (input dimension 8) as
    ``sum_i sigma_i (x) |i><i|``; the qubit is kept (B) and the register
    discarded (E).  On a qubit maximally entangled elsewhere this scrambles
    the kept side to a maximally mixed marginal while the register stays
    uniform and uncorrelated.
    """
    m = np.zeros((8, 8), dtype=complex)
    for i, sigma in enumerate(PAULI):
        for b in range(2):
            for a in range(2):
                m[b * 4 + i, a * 4 + i] = sigma[b, a]
    return Isometry(m, _out_sig(2, 4, labels), 8)


def bell_basis() -> np.ndarray:
    """Columns are the four Bell kets of two qubits, in the standard order."""
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [s, s, 0, 0],
            [0, 0, s, -s],
            [0, 0, s, s],
            [s, -s, 0, 0],
        ],
        dtype=complex,
    )


def bell_shredder(labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Measurement-style splitting of two qubits along the Bell basis.

    Sends the i-th Bell ket to ``|i>_B (x) |i>_E`` with ``d_B = d_E = 4``.
    """
    e = bell_basis()
    m = np.zeros((16, 4), dtype=complex)
    for i in range(4):
        m[i * 4 + i, :] = e[:, i].conj()
    return Isometry(m, _out_sig(4, 4, labels), 4)


def povm_isometry(p: RankOnePovm, labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Isometry recording a rank-one measurement outcome in both output factors.

    Sends ``|psi>`` to ``sum_m <v_m|psi> |m>_B (x) |m>_E``.  Both output
    factors hold the same classical record, so they carry identical
    correlations with any reference system.
    """
    n = len(p.vectors)
    d = p.dim
    m = np.zeros((n * n, d), dtype=complex)
    for i, v in enumerate(p.vectors):
        m[i * n + i, :] = v.conj()
    iso = Isometry(m, _out_sig(n, n, labels), d)
    validate_isometry(iso)
    return iso


def from_parameters(
    theta: np.ndarray,
    d_a: int,
    d_b: int,
    d_e: int,
    labels: tuple[str, str] = ("B", "E"),
) -> Isometry:
    """Isometry from a real parameter vector of length ``(d_b * d_e)**2``.

    The parameters fill a skew-Hermitian generator (first the imaginary
    diagonal, then real/imaginary pairs for the strict upper triangle in
    row-major order); the isometry is the first ``d_a`` columns of its
    exponential.  ``theta = 0`` gives the first ``d_a`` columns of the
    identity.
    """
    n = d_b * d_e
    if d_a > n:
        raise ValidationError(f"input dimension {d_a} exceeds output side {n}")
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.shape[0] != n * n:
        raise ValidationError(
            f"parameter vector has length {t.shape[0]}, expected {n * n}"
        )
    if not np.all(np.isfinite(t)):
        raise ValidationError("parameter vector has non-finite entries")
    g = _generator_from_parameters(t, n)
    u = qmat.expm_skew(g)
    return Isometry(u[:, :d_a], _out_sig(d_b, d_e, labels), d_a)


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the strict upper triangle of an
    ``n x n`` matrix, in row-major order; cached, since every search step
    packs or unpacks parameters."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _generator_from_parameters(t: np.ndarray, n: int) -> np.ndarray:
    """Skew-Hermitian ``n x n`` generator of a parameter vector, or one per
    vector along the last axis of a stack."""
    g = np.zeros(t.shape[:-1] + (n, n), dtype=complex)
    diag = np.arange(n)
    g[..., diag, diag] = 1j * t[..., :n]
    rows, cols = _upper(n)
    x = t[..., n : n + rows.size]
    y = t[..., n + rows.size :]
    g[..., rows, cols] = x + 1j * y
    g[..., cols, rows] = -x + 1j * y
    return g


def _parameters_from_generator(g: np.ndarray) -> np.ndarray:
    """Parameter vector of a skew-Hermitian generator, or of each in a stack.

    Inverse of :func:`_generator_from_parameters`: the imaginary diagonal,
    then the real and the imaginary parts of the strict upper triangle in
    row-major order.
    """
    rows, cols = _upper(g.shape[-1])
    upper = g[..., rows, cols]
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    return np.concatenate([diag.imag, upper.real, upper.imag], axis=-1)


def parameters_from_unitary(u: np.ndarray) -> np.ndarray:
    """Parameter vector whose generator exponentiates back to ``u``.

    Inverse of the packing used by :func:`from_parameters`.  The generator is
    the principal logarithm ``q diag(i phi) q^dag`` of the eigendecomposition
    ``u = q diag(e^(i phi)) q^dag``, with eigenphases ``phi`` in [-pi, pi].
    An eigenvalue -1 may get either sign of pi, even within one degenerate
    eigenspace; every choice exponentiates back to ``u``.
    """
    m = np.asarray(u, dtype=complex)
    _check_orthonormal(m, "matrix is not unitary: defect {defect:.3e}")
    w, v = np.linalg.eig(m)
    # eig may return a skewed basis of a degenerate eigenspace.  QR makes it
    # orthonormal and keeps each column in its eigenspace, since the
    # eigenspaces of a unitary are mutually orthogonal.
    q, _ = np.linalg.qr(v)
    g = (q * (1j * np.angle(w))) @ q.conj().T
    return _parameters_from_generator(0.5 * (g - g.conj().T))


def complete_to_unitary(v: np.ndarray) -> np.ndarray:
    """Extend a matrix with orthonormal columns to a full unitary.

    The first columns of the result are exactly ``v``; the remaining ones
    span the orthogonal complement.
    """
    m = np.asarray(v, dtype=complex)
    n, k = m.shape
    _check_orthonormal(m, "columns are not orthonormal: defect {defect:.3e}")
    if n == k:
        return m.copy()
    q, _ = np.linalg.qr(m, mode="complete")
    rest = q[:, k:]
    # Project out any residual overlap with the given columns.
    rest = rest - m @ (m.conj().T @ rest)
    rest, _ = np.linalg.qr(rest)
    return np.concatenate([m, rest], axis=1)


def random_unitary_channel_dilation(
    unitaries: Sequence[np.ndarray],
    p: Sequence[float],
    labels: tuple[str, str] = ("B", "E"),
) -> Isometry:
    """Dilation ``sum_i sqrt(p_i) U_i (x) |i>_E`` of a mixed-unitary channel.

    The discarded factor records which unitary acted; measuring it in the
    computational basis leaves the reference marginal proportional to the
    input marginal for every outcome.
    """
    ps = np.asarray(p, dtype=float)
    if ps.ndim != 1 or ps.size != len(unitaries):
        raise ValidationError(
            f"{ps.size} weights for {len(unitaries)} unitaries"
        )
    if np.any(ps < -1e-12) or abs(ps.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must be a probability vector summing to 1")
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    d = us[0].shape[0]
    for u in us:
        if u.shape != (d, d):
            raise ValidationError("unitaries must share one square shape")
        _check_orthonormal(u, "operator is not unitary: defect {defect:.3e}")
    k = len(us)
    m = np.zeros((d * k, d), dtype=complex)
    for i, (w, u) in enumerate(zip(ps, us)):
        m[i::k, :] = np.sqrt(w) * u
    iso = Isometry(m, _out_sig(d, k, labels), d)
    validate_isometry(iso)
    return iso


# ---------------------------------------------------------------------------
# Serialization: {"d_in": ..., "d_B": ..., "d_E": ..., "matrix": [[re, im], ...]}
# with the matrix flattened in row-major order.


def isometry_to_json(v: Isometry) -> str:
    payload = {
        "d_in": v.in_dim,
        "d_B": v.d_b,
        "d_E": v.d_e,
        "matrix": qmat.matrix_to_entries(v.matrix),
    }
    return json.dumps(payload)


def isometry_from_json(text: str) -> Isometry:
    try:
        payload = json.loads(text)
        d_in = int(payload["d_in"])
        d_b = int(payload["d_B"])
        d_e = int(payload["d_E"])
        entries = payload["matrix"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed isometry document: {exc}") from exc
    m = qmat.matrix_from_entries(entries, d_b * d_e, d_in)
    iso = Isometry(m, _out_sig(d_b, d_e, ("B", "E")), d_in)
    validate_isometry(iso)
    return iso


def save_isometry(v: Isometry, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(isometry_to_json(v))
        fh.write("\n")


def load_isometry(path) -> Isometry:
    with open(path, "r", encoding="utf-8") as fh:
        return isometry_from_json(fh.read())
