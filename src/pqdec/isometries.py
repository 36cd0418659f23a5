"""Isometries that split one system into a kept factor and a discarded factor.

An :class:`Isometry` maps an input space of dimension ``in_dim`` into the
tensor product of a kept factor B and a discarded factor E; its matrix has
``d_B * d_E`` rows and ``in_dim`` columns, with B the most significant output
factor.  The constructors here cover the closed-form splittings used
throughout the package (twirls, basis shredders, measurement isometries,
mixed-unitary dilations); numerical search works on the matrix itself (see
:mod:`pqdec.decoupling`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmat
from .qmat import DimSig, ValidationError

__all__ = [
    "Isometry",
    "RankOnePovm",
    "bell_shredder",
    "fourier_basis",
    "isometry_from_json",
    "isometry_to_json",
    "load_isometry",
    "mub_shredder",
    "pauli_twirl_isometry",
    "povm_isometry",
    "random_unitary_channel_dilation",
    "record_rows",
    "save_isometry",
    "twirl_isometry",
]

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True, slots=True, eq=False)
class Isometry:
    """Matrix of an isometry together with the signature of its output factors.

    The matrix is checked where it is made: finite, of shape ``(d_B * d_E,
    in_dim)``, with orthonormal columns, ``max |V^dag V - 1| <=
    qmat.UNITARITY_TOL`` (1e-9).  Anything else raises
    :class:`ValidationError`.
    """

    matrix: np.ndarray
    out_sig: DimSig
    in_dim: int

    def __post_init__(self):
        m = qmat.complex_array(self.matrix, "isometry matrix entries")
        object.__setattr__(self, "in_dim", qmat.count(self.in_dim, 1, "input dimension"))
        if len(self.out_sig.dims) != 2:
            raise ValidationError(
                f"output signature needs exactly two factors, got {self.out_sig.labels}"
            )
        if m.shape != (self.out_sig.side, self.in_dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match output side "
                f"{self.out_sig.side} x input dim {self.in_dim}"
            )
        _check_orthonormal(
            m, "columns are not orthonormal: max |V^dag V - 1| = {defect:.3e} exceeds {tol:.1e}"
        )
        object.__setattr__(self, "matrix", m)

    @property
    def d_b(self) -> int:
        return self.out_sig.dims[0]

    @property
    def d_e(self) -> int:
        return self.out_sig.dims[1]


@dataclass(frozen=True, slots=True, eq=False)
class RankOnePovm:
    """Rank-one measurement given by sub-normalized kets with sum |v><v| = 1."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = tuple(qmat.complex_array(v, "measurement vectors").reshape(-1) for v in self.vectors)
        if not vecs:
            raise ValidationError("measurement needs at least one element")
        d = vecs[0].shape[0]
        if any(v.shape[0] != d for v in vecs):
            raise ValidationError("measurement vectors must share one dimension")
        # sum |v><v| is M^dag M for the matrix M whose rows are the <v|.
        _check_orthonormal(
            np.array(vecs).conj(),
            "measurement elements do not resolve the identity: defect {defect:.3e}",
        )
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]


def _check_orthonormal(m: np.ndarray, message: str) -> None:
    """Raise unless ``max |m^dag m - 1| <= qmat.UNITARITY_TOL``; a NaN defect
    fails too.  ``message`` is formatted with ``defect`` and ``tol``."""
    defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))
    if not defect <= qmat.UNITARITY_TOL:
        raise ValidationError(message.format(defect=defect, tol=qmat.UNITARITY_TOL))


def twirl_isometry(d: int, labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Splitting that replaces the input with half of a fresh entangled pair.

    Sends ``|psi>`` to ``|Phi+>_{B,E1} (x) |psi>_{E2}``: the kept factor B is
    maximally entangled with the first half of the discarded factor, and the
    input itself is moved wholesale into the second half.  ``d_B = d`` and
    ``d_E = d**2``.
    """
    d = qmat.count(d, 2, "dimension")
    m = np.zeros((d * d * d, d), dtype=complex)
    s = 1.0 / np.sqrt(d)
    for b in range(d):
        for a in range(d):
            # row index over (B, E1, E2) with E = E1 (x) E2
            m[(b * d + b) * d + a, a] = s
    return Isometry(m, DimSig((d, d * d), labels), d)


def fourier_basis(d: int) -> np.ndarray:
    """Columns are the Fourier basis kets ``e^k[j] = omega^(jk) / sqrt(d)``."""
    d = qmat.count(d, 1, "dimension")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def mub_shredder(d: int, labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Copy-style splitting along the Fourier basis, unbiased to the computational one.

    Sends ``|e^k>`` to ``|e^k>_B (x) |e^k>_E``.  Correlations carried by a
    classical register in the computational basis are destroyed on both
    output factors, since every Fourier ket has uniform overlap with every
    computational ket.
    """
    d = qmat.count(d, 2, "dimension")
    e = fourier_basis(d)
    # (b, e_out, a) <- sum_k e[b, k] conj(e[a, k]) e[e_out, k]
    m = np.einsum("bk,ak,ek->bea", e, e.conj(), e).reshape(d * d, d)
    return Isometry(m, DimSig((d, d), labels), d)


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
    return Isometry(m, DimSig((2, 4), labels), 8)


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

    Sends the i-th Bell ket to ``|i>_B (x) |i>_E`` with ``d_B = d_E = 4``:
    the measurement isometry of the Bell basis.
    """
    return povm_isometry(RankOnePovm(tuple(bell_basis().T)), labels)


def record_rows(n: int, d_e: int) -> np.ndarray:
    """Indices of the rows ``|k>_B (x) |k>_E``, ``k < n``, of a B (x) E
    output whose E factor has dimension ``d_e``: the rows on which a
    measurement isometry records its outcome in both outputs.  ``n`` and
    ``d_e`` follow :func:`qmat.count`, with ``1 <= n <= d_e``."""
    n = qmat.count(n, 1, "number of outcomes")
    return np.arange(n) * (qmat.count(d_e, n, "d_E") + 1)


def povm_isometry(p: RankOnePovm, labels: tuple[str, str] = ("B", "E")) -> Isometry:
    """Isometry recording a rank-one measurement outcome in both output factors.

    Sends ``|psi>`` to ``sum_m <v_m|psi> |m>_B (x) |m>_E``.  Both output
    factors hold the same classical record, so they carry identical
    correlations with any reference system.
    """
    n = len(p.vectors)
    m = np.zeros((n * n, p.dim), dtype=complex)
    m[record_rows(n, n)] = np.conj(p.vectors)
    return Isometry(m, DimSig((n, n), labels), p.dim)


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
    ps = qmat.probability_vector(p, len(unitaries), "unitaries")
    us = [qmat.complex_array(u, "unitaries") for u in unitaries]
    d = us[0].shape[0]
    for u in us:
        if u.shape != (d, d):
            raise ValidationError("unitaries must share one square shape")
        _check_orthonormal(u, "operator is not unitary: defect {defect:.3e}")
    k = len(us)
    m = np.zeros((d * k, d), dtype=complex)
    for i, (w, u) in enumerate(zip(ps, us)):
        m[i::k, :] = np.sqrt(w) * u
    return Isometry(m, DimSig((d, k), labels), d)


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


def isometry_from_json(text: str | bytes) -> Isometry:
    try:
        payload = json.loads(text)
        d_in, d_b, d_e = (qmat.count(payload[k], 1, k) for k in ("d_in", "d_B", "d_E"))
        entries = payload["matrix"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed isometry document: {exc}") from exc
    m = qmat.matrix_from_entries(entries, d_b * d_e, d_in)
    return Isometry(m, DimSig((d_b, d_e), ("B", "E")), d_in)


def save_isometry(v: Isometry, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(isometry_to_json(v))
        fh.write("\n")


def load_isometry(path) -> Isometry:
    with open(path, "rb") as fh:
        return isometry_from_json(fh.read())
