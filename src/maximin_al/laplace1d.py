"""Closed forms for the exponential kernel on sorted 1-D points (p = 1).

For sorted positions ``x_1 < ... < x_n`` with labels ``y_i`` and gap factors
``d_i = exp(-(x_{i+1} - x_i)/h)``, the kernel matrix ``K`` has a tridiagonal
inverse, the squared interpolant norm has the closed form

    ||f||^2 = -(n - 2) + 2 * sum_i 1 / (1 + y_i y_{i+1} d_i),

and the representer coefficients are available without any linear solve.
These identities make the function-norm selection score on an interval
``(x_j, x_{j+1})`` an explicit two-exponential expression whose maximum sits
exactly at the interval midpoint:

* opposite labels: ``||f||^2 - 1 + 2 / (1 - d_j)`` — decreasing in the gap;
* equal labels: ``||f||^2 - 1 - 2/(1 + d_j) + 4/(1 + sqrt(d_j))`` —
  increasing in the gap, and never above any opposite-label interval max.

No model, scorer or run calls this module: it is an independent oracle for
the generic Cholesky-based scorer, used by the ``identities`` acceptance
checks and the tests.  The run loop's 1-D ``p = 1`` paths rest on the same
Markov structure but are written from the interval endpoint values:
:func:`maximin_al.kernel.markov_1d`, behind both ``predict`` methods, and the
scoring state :class:`maximin_al.scoring.IntervalState`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SortedLabeled1D:
    """Strictly increasing 1-D positions with +-1 labels under bandwidth ``h``.

    Attributes
    ----------
    positions, labels : ndarray
    bandwidth : float
    gap_factors : ndarray of shape (n - 1,)
        ``d_i = exp(-(x_{i+1} - x_i)/h)``, each strictly inside (0, 1).
    """

    def __init__(self, positions, labels, bandwidth: float):
        positions = np.asarray(positions, dtype=float).ravel()
        labels = np.asarray(labels)
        if positions.size == 0:
            raise ValueError("need at least one labeled position")
        if labels.shape != positions.shape:
            raise ValueError("positions and labels must have equal length")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        if np.any(np.diff(positions) <= 0):
            raise ValueError("positions must be strictly increasing")
        if not np.isfinite(bandwidth) or bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.positions = positions.copy()
        self.labels = labels.astype(int).copy()
        self.bandwidth = float(bandwidth)
        self.gap_factors = np.exp(-np.diff(positions) / bandwidth)
        self.positions.setflags(write=False)
        self.labels.setflags(write=False)
        self.gap_factors.setflags(write=False)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class TridiagonalEntries:
    """Main and first off-diagonal of a symmetric tridiagonal matrix."""

    diag: np.ndarray
    offdiag: np.ndarray

    def to_dense(self) -> np.ndarray:
        n = len(self.diag)
        M = np.diag(self.diag)
        if n > 1:
            idx = np.arange(n - 1)
            M[idx, idx + 1] = self.offdiag
            M[idx + 1, idx] = self.offdiag
        return M


@dataclass(frozen=True)
class IntervalScoreResult:
    """Interval maximizer of the function-norm score.

    ``maximizer`` is the interval midpoint, ``score`` its score, and
    ``interval`` the 0-based index ``j`` of the interval
    ``(positions[j], positions[j+1])``.
    """

    maximizer: float
    score: float
    interval: int


def tridiagonal_inverse(s: SortedLabeled1D) -> TridiagonalEntries:
    """Entries of ``K^{-1}`` for the exponential kernel on sorted 1-D points.

    ``(K^{-1})_{i,i+1} = -d_i / (1 - d_i^2)`` and the diagonal holds
    ``1/(1 - d_{i-1}^2) + 1/(1 - d_i^2) - 1`` with the boundary terms dropped
    at the two ends; a single point gives the 1x1 matrix [1].
    """
    n = len(s)
    d = s.gap_factors
    if n == 1:
        return TridiagonalEntries(np.ones(1), np.empty(0))
    inv = 1.0 / (1.0 - d ** 2)
    diag = np.empty(n)
    diag[0] = inv[0]
    diag[-1] = inv[-1]
    if n > 2:
        diag[1:-1] = inv[:-1] + inv[1:] - 1.0
    return TridiagonalEntries(diag, -d * inv)


def norm_closed_form(s: SortedLabeled1D) -> float:
    """Squared interpolant norm ``-(n-2) + 2 sum_i 1/(1 + y_i y_{i+1} d_i)``."""
    n = len(s)
    yy = (s.labels[:-1] * s.labels[1:]).astype(float)
    return float(-(n - 2) + 2.0 * np.sum(1.0 / (1.0 + yy * s.gap_factors)))


def interpolant_coefficients(s: SortedLabeled1D) -> np.ndarray:
    """Representer coefficients ``alpha = K^{-1} y`` in closed form.

    Interior coefficients are
    ``y_i * [1/(1 + y_i y_{i-1} d_{i-1}) + 1/(1 + y_i y_{i+1} d_i) - 1]``;
    the endpoints keep only their single neighbor term.
    """
    n = len(s)
    y = s.labels.astype(float)
    if n == 1:
        return y.copy()
    d = s.gap_factors
    left = 1.0 / (1.0 + y[1:] * y[:-1] * d)   # term shared with the left neighbor
    coeff = np.empty(n)
    coeff[0] = y[0] * left[0]
    coeff[-1] = y[-1] * left[-1]
    if n > 2:
        coeff[1:-1] = y[1:-1] * (left[:-1] + left[1:] - 1.0)
    return coeff


def interval_max_score(s: SortedLabeled1D, j: int) -> IntervalScoreResult:
    """Maximizer of the function-norm score over interval ``j``: its midpoint.

    The maximum value is ``||f||^2 - 1 - 2/(1 + y_j y_{j+1} d_j)
    + 2/(1 + sqrt(d_j)) + 2/(1 + y_j y_{j+1} sqrt(d_j))``.
    """
    n = len(s)
    if not 0 <= j < n - 1:
        raise ValueError(f"interval index {j} out of range for {n} points")
    d = s.gap_factors[j]
    yy = float(s.labels[j] * s.labels[j + 1])
    root = np.sqrt(d)
    score = (norm_closed_form(s) - 1.0 - 2.0 / (1.0 + yy * d)
             + 2.0 / (1.0 + root) + 2.0 / (1.0 + yy * root))
    midpoint = 0.5 * (s.positions[j] + s.positions[j + 1])
    return IntervalScoreResult(float(midpoint), float(score), j)


def best_interval(s: SortedLabeled1D) -> IntervalScoreResult:
    """Interval whose midpoint attains the global function-norm maximum.

    Requires at least two labeled points.  Exact score ties go to the lowest
    interval index; randomized tie-breaking belongs to pool selection, not to
    this closed form.
    """
    if len(s) < 2:
        raise ValueError("need at least two labeled points to form an interval")
    results = [interval_max_score(s, j) for j in range(len(s) - 1)]
    return max(results, key=lambda r: (r.score, -r.interval))
