"""MaxiMin selection scores for kernel interpolants.

Both scores rate an unlabeled candidate ``u`` by how much the minimum-norm
interpolant must change once ``u`` receives its least-favorable-looking label
``t(u) = argmin_t ||f_t^u||``:

* **function norm** — the squared norm of the augmented interpolant itself,
  ``score_F(u) = ||f||^2 + (1 - |f(u)|)^2 / S_u`` with Schur complement
  ``S_u = 1 - a_u^T K^{-1} a_u``;
* **data-based norm** — the mean squared change of the interpolant over the
  pool, ``score_D(u) = mean_x (f^u(x) - f(x))^2``, which by the rank-one
  update equals ``((t - f(u)) / S_u)^2 * mean_x (k(u,x) - a_u^T K^{-1} a_x)^2``.

The selection rule picks the candidate with the largest score; exact ties
(within ``1e-12`` absolute) are broken uniformly at random with the caller's
seed.  With no labeled data both rules are still defined: ``f == 0``, every
function-norm score is 1, and the data-based score of ``u`` reduces to
``mean_x k(u, x)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DuplicatePointError, EmptyPoolError
from .kernel import SCHUR_FLOOR, KernelInterpolator, kernel_matrix

TIE_TOLERANCE = 1e-12


class ScoreKind(Enum):
    FUNCTION_NORM = "function"
    DATA_NORM = "data"


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate's pool index (None when scored standalone), estimated label, and score."""

    index: int | None
    label: int
    score: float


class UnlabeledPool:
    """Pool of unlabeled points; doubles as the empirical measure for the data score.

    Parameters
    ----------
    points : array-like of shape (n, d)
    hidden_labels : array-like of shape (n,), optional
        Oracle labels (+1/-1) revealed one at a time during simulations.
    """

    def __init__(self, points, hidden_labels=None):
        points = np.atleast_1d(np.asarray(points, dtype=float))
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        self._points = points.copy()
        self._points.setflags(write=False)
        if hidden_labels is not None:
            hidden_labels = np.asarray(hidden_labels)
            if hidden_labels.shape != (len(points),):
                raise ValueError("hidden_labels length does not match points")
            if not np.all(np.isin(hidden_labels, (-1, 1))):
                raise ValueError("hidden labels must be +1 or -1")
            hidden_labels = hidden_labels.astype(int).copy()
            hidden_labels.setflags(write=False)
        self._hidden = hidden_labels

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def hidden_labels(self) -> np.ndarray | None:
        return self._hidden

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return len(self._points)

    def subset(self, indices) -> "UnlabeledPool":
        indices = np.asarray(indices)
        return UnlabeledPool(
            self._points[indices],
            None if self._hidden is None else self._hidden[indices],
        )


def estimate_label(model: KernelInterpolator, u) -> int:
    """Label whose augmented interpolant has the smaller norm: sign of f(u), +1 at 0."""
    return 1 if model.evaluate(u) >= 0 else -1


def _pool_statistics(model: KernelInterpolator, points: np.ndarray):
    """Per-candidate f(u) and Schur complement S_u, plus cross matrices A, C.

    A = K(X_L, points) and C = K^{-1} A; both are None for the empty model.
    Raises DuplicatePointError when any S_u falls below the duplicate floor.
    """
    n = len(points)
    if len(model) == 0:
        return np.zeros(n), np.ones(n), None, None
    A = kernel_matrix(model.base.points, points, model.config)
    C = model.solve(A)
    f = A.T @ model.coefficients
    schur = 1.0 + model.jitter - np.einsum("ij,ij->j", A, C)
    if np.any(schur < SCHUR_FLOOR):
        raise DuplicatePointError(
            "a candidate is numerically indistinguishable from a labeled point"
        )
    return f, schur, A, C


def _score(model: KernelInterpolator, points, kind: ScoreKind,
           density: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scores and estimated labels of the rows of ``points`` (or of one 1-D point).

    The data score averages over ``density``; by default over ``points``
    themselves, which reuses their solves.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    f, schur, A, C = _pool_statistics(model, points)
    labels = np.where(f >= 0, 1, -1)
    if kind is ScoreKind.FUNCTION_NORM:
        return model.norm_sq + (1.0 - np.abs(f)) ** 2 / schur, labels
    if kind is not ScoreKind.DATA_NORM:
        raise ValueError(f"unknown score kind {kind!r}")
    # Residual kernel R = K(points, density) - A^T K^{-1} K(X_L, density).
    R = kernel_matrix(points, points if density is None else density, model.config)
    if A is not None and density is None:
        R = R - A.T @ C
    elif A is not None:
        R = R - A.T @ model.solve(kernel_matrix(model.base.points, density, model.config))
    gain = ((1.0 - np.abs(f)) / schur) ** 2
    return gain * np.mean(R ** 2, axis=1), labels


def score_pool(model: KernelInterpolator, pool: UnlabeledPool,
               kind: ScoreKind) -> tuple[np.ndarray, np.ndarray]:
    """Score every pool candidate at once; the data score averages over the pool.

    Returns
    -------
    scores, labels : ndarray of shape (len(pool),)
        MaxiMin scores and the matching estimated labels ``t(u)``.
    """
    if len(model) and pool.dim != model.base.dim:
        raise ValueError(f"pool dimension {pool.dim} does not match model {model.base.dim}")
    return _score(model, pool.points, kind)


def score_function_norm(model: KernelInterpolator, u) -> ScoredCandidate:
    """Squared norm of the interpolant after adding ``u`` with its estimated label.

    Equals ``||f||^2 + (1 - |f(u)|)^2 / (1 - a_u^T K^{-1} a_u)``; for an empty
    model this is 1 for every candidate.
    """
    scores, labels = _score(model, u, ScoreKind.FUNCTION_NORM)
    return ScoredCandidate(None, int(labels[0]), float(scores[0]))


def score_data_norm(model: KernelInterpolator, u, pool: UnlabeledPool) -> ScoredCandidate:
    """Mean squared change of the interpolant over the pool after adding ``u``.

    The average runs over all pool points, including ``u`` itself when present.
    """
    if len(pool) == 0:
        raise EmptyPoolError("data-based score needs a nonempty pool")
    scores, labels = _score(model, u, ScoreKind.DATA_NORM, pool.points)
    return ScoredCandidate(None, int(labels[0]), float(scores[0]))


def pick(scores: np.ndarray, labels: np.ndarray, rng_seed) -> ScoredCandidate:
    """The candidate with the largest score, ties broken at random.

    Candidates whose scores are within ``1e-12`` (absolute) of the maximum are
    treated as tied and one is drawn uniformly at random from ``rng_seed``
    (an int seed or a ``numpy.random.Generator``); no draw is made when the
    maximum is unique.  Deterministic given the seed and inputs.
    """
    best = np.max(scores)
    tied = np.flatnonzero(scores >= best - TIE_TOLERANCE)
    rng = np.random.default_rng(rng_seed)
    index = int(tied[rng.integers(len(tied))]) if len(tied) > 1 else int(tied[0])
    return ScoredCandidate(index, int(labels[index]), float(scores[index]))


def select_next(model: KernelInterpolator, pool: UnlabeledPool, kind: ScoreKind,
                rng_seed) -> ScoredCandidate:
    """Pick the pool candidate with the largest score (see :func:`pick` for ties)."""
    if len(pool) == 0:
        raise EmptyPoolError("cannot select from an empty pool")
    return pick(*score_pool(model, pool, kind), rng_seed)
