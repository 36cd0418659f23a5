"""Entropic functionals, all in bits.

Every quantity is evaluated from eigenvalue spectra, never from matrix
logarithms: eigenvalues at or below 1e-12 contribute zero, which keeps
rank-deficient states exact instead of producing NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import DensityMatrix

EIGENVALUE_CLAMP = 1e-12

__all__ = [
    "EIGENVALUE_CLAMP",
    "EntropyReport",
    "coherent_information",
    "conditional_mutual_information",
    "entropy",
    "entropy_report",
    "mutual_information",
    "spectrum_entropy",
    "subsystem_entropy",
]


@dataclass(frozen=True)
class EntropyReport:
    """Joint entropy of a state and the entropy of each single factor."""

    joint: float
    factors: dict[str, float]


def spectrum_entropy(eigenvalues: np.ndarray) -> float | np.ndarray:
    """Shannon entropy, in bits, of a spectrum; weights <= 1e-12 are dropped.

    A stack of spectra gives one entropy per spectrum along the last axis,
    as an array; a single spectrum gives a float.
    """
    w = np.asarray(eigenvalues, dtype=float)
    # A dropped weight becomes 1, whose term w log2 w is exactly 0; log2 never
    # sees a zero or negative weight.
    w = np.where(w > EIGENVALUE_CLAMP, w, 1.0)
    # The +0.0 turns the -0.0 of a pure spectrum into a plain 0.0.
    h = -np.sum(w * np.log2(w), axis=-1) + 0.0
    return float(h) if h.ndim == 0 else h


def entropy(state: DensityMatrix) -> float:
    """Von Neumann entropy of the full state, in bits."""
    return spectrum_entropy(np.linalg.eigvalsh(state.matrix))


def _group(labels: str | Sequence[str]) -> tuple[str, ...]:
    return (labels,) if isinstance(labels, str) else tuple(labels)


def subsystem_entropy(state: DensityMatrix, labels: str | Sequence[str]) -> float:
    """Entropy of the reduced state on the named factors."""
    return entropy(state.marginal(_group(labels)))


def entropy_report(state: DensityMatrix) -> EntropyReport:
    factors = {x: subsystem_entropy(state, x) for x in state.sig.labels}
    return EntropyReport(joint=entropy(state), factors=factors)


def mutual_information(
    state: DensityMatrix,
    x: str | Sequence[str],
    y: str | Sequence[str],
) -> float:
    """Mutual information ``S(x) + S(y) - S(xy)`` between two disjoint factor groups.

    Nonnegative up to eigensolver noise; zero exactly when the two groups are
    uncorrelated.
    """
    gx, gy = _group(x), _group(y)
    if set(gx) & set(gy):
        raise ValueError(f"factor groups overlap: {gx} vs {gy}")
    return (
        subsystem_entropy(state, gx)
        + subsystem_entropy(state, gy)
        - subsystem_entropy(state, gx + gy)
    )


def coherent_information(
    state: DensityMatrix,
    source: str | Sequence[str],
    target: str | Sequence[str],
) -> float:
    """Coherent information from ``source`` to ``target``: ``S(target) - S(source+target)``.

    Can be negative; for a maximally entangled pair it reaches the full
    target entropy.
    """
    gs, gt = _group(source), _group(target)
    if set(gs) & set(gt):
        raise ValueError(f"factor groups overlap: {gs} vs {gt}")
    return subsystem_entropy(state, gt) - subsystem_entropy(state, gs + gt)


def conditional_mutual_information(
    state: DensityMatrix,
    x: str | Sequence[str],
    y: str | Sequence[str],
    given: str | Sequence[str],
) -> float:
    """Conditional mutual information ``S(xz) + S(yz) - S(z) - S(xyz)`` with z = given."""
    gx, gy, gz = _group(x), _group(y), _group(given)
    for a, b in ((gx, gy), (gx, gz), (gy, gz)):
        if set(a) & set(b):
            raise ValueError(f"factor groups overlap: {a} vs {b}")
    return (
        subsystem_entropy(state, gx + gz)
        + subsystem_entropy(state, gy + gz)
        - subsystem_entropy(state, gz)
        - subsystem_entropy(state, gx + gy + gz)
    )
