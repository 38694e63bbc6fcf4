"""Dense linear-algebra kernels: economy SVD, rank selection, least squares, eig.

The factorizations delegate to LAPACK through numpy; this module owns the
contracts (value ordering, orthonormality, phase conventions) and the rank
selection rules used by the decomposition pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "Tolerance",
    "FixedCount",
    "OptimalHardThreshold",
    "TruncationPolicy",
    "SvdResult",
    "svd_econ",
    "hard_threshold_coefficient",
    "truncation_rank",
    "lstsq",
    "eig",
]


@dataclass(frozen=True)
class Tolerance:
    """Keep singular values with sigma_i >= epsilon * sigma_1."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")


@dataclass(frozen=True)
class FixedCount:
    """Keep the n largest singular values."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class OptimalHardThreshold:
    """Median-based optimal hard threshold for an unknown noise level."""


TruncationPolicy = Union[Tolerance, FixedCount, OptimalHardThreshold]


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Economy SVD: M = left_vectors @ diag(singular_values) @ right_vectors^H."""

    left_vectors: np.ndarray  # (m, r), orthonormal columns
    singular_values: np.ndarray  # (r,), non-negative, non-increasing
    right_vectors: np.ndarray  # (n, r), orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.conj().T


def svd_econ(m: np.ndarray) -> SvdResult:
    """Economy singular value decomposition of a finite 2-D matrix."""
    a = np.asarray(m)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("input must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u, s, vh.conj().T)


def hard_threshold_coefficient(beta: float) -> float:
    """Unknown-noise coefficient omega(beta) of the median-based hard threshold.

    Cubic fit in the aspect ratio beta = min(rows, cols) / max(rows, cols).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


def _hard_threshold(s: np.ndarray, matrix_shape: tuple[int, int]) -> float:
    """omega(beta) * median(sigma), the cut of ``OptimalHardThreshold``."""
    rows, cols = matrix_shape
    beta = min(rows, cols) / max(rows, cols)
    return hard_threshold_coefficient(beta) * float(np.median(s))


def truncation_rank(
    singular_values: np.ndarray,
    policy: TruncationPolicy,
    matrix_shape: tuple[int, int],
) -> int:
    """Number of singular values retained under a truncation policy.

    ``Tolerance(eps)`` keeps sigma_i >= eps * sigma_1 (boundary equality
    keeps).  ``FixedCount(n)`` keeps min(n, available).
    ``OptimalHardThreshold`` keeps sigma_i strictly above
    omega(beta) * median(sigma).  The result is always >= 1.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need a non-empty 1-D singular value sequence")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be non-increasing")
    if s[-1] < 0:
        raise ValueError("singular values must be non-negative")
    rows, cols = matrix_shape
    if min(rows, cols) != s.size:
        raise ValueError(
            f"shape {matrix_shape} inconsistent with {s.size} singular values"
        )
    if isinstance(policy, Tolerance):
        rank = int(np.count_nonzero(s >= policy.epsilon * s[0]))
    elif isinstance(policy, FixedCount):
        rank = min(policy.n, s.size)
    elif isinstance(policy, OptimalHardThreshold):
        rank = int(np.count_nonzero(s > _hard_threshold(s, matrix_shape)))
    else:
        raise TypeError(f"unknown truncation policy: {policy!r}")
    return max(rank, 1)


def lstsq(a: np.ndarray, b: np.ndarray, rcond: Optional[float] = None) -> np.ndarray:
    """Minimum-norm least-squares solution X of A @ X ~= B.

    Singular values of A at or below ``rcond`` times the largest are taken
    as zero; the default is eps * max(A.shape), as for ``np.linalg.lstsq``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2:
        raise ValueError("A must be 2-D")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"row counts disagree: A has {a.shape[0]}, B has {b.shape[0]}")
    x, *_ = np.linalg.lstsq(a, b, rcond=rcond)
    return x


def _normalize_eigenvectors(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize columns and rotate so the largest-magnitude entry is real positive."""
    v = np.array(vectors)
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0] = 1.0
    v = v / norms
    pivot_rows = np.argmax(np.abs(v), axis=0)
    pivots = v[pivot_rows, np.arange(v.shape[1])]
    if np.iscomplexobj(v):
        mags = np.abs(pivots)
        mags[mags == 0] = 1.0
        v = v * (pivots.conj() / mags)
    else:
        signs = np.sign(pivots)
        signs[signs == 0] = 1.0
        v = v * signs
    return v


def eig(a: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Eigenvalues and unit-norm eigenvectors of a square matrix.

    Eigenvector phases are fixed so each column's largest-magnitude entry is
    real positive, making outputs reproducible across LAPACK backends.
    ``vectors=False`` computes the eigenvalues alone and returns
    ``(values, None)``.  Convergence failures surface as
    ``numpy.linalg.LinAlgError``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if not vectors:
        return np.linalg.eigvals(a), None
    values, vecs = np.linalg.eig(a)
    return values, _normalize_eigenvectors(vecs)
