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

:func:`score_pool`, :func:`select_next`, :func:`score_function_norm` and
:func:`score_data_norm` work from a fitted model and recompute ``f``, ``S_u``
and the residual kernel on every call; they are the reference.  The run loop
scores from an incremental state: :class:`IntervalState` (closed forms on each
labeled interval) for 1-D points with ``p = 1``, else :class:`ScoringState`
(one residual column per label).  All turn ``(f, S_u, mean_x R(u, x)^2)`` into
scores and labels through one helper.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.blas import dger

from .exceptions import DuplicatePointError, EmptyPoolError
from .kernel import (SCHUR_FLOOR, KernelConfig, KernelInterpolator, cross_kernel,
                     kernel_matrix)

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


def sign_labels(f):
    """The +-1 label of each value of ``f``: its sign, +1 when ``|f| <= 1e-12``.

    A value that is 0 in exact arithmetic, such as ``f`` halfway between two
    opposite labels, rounds to either side of 0 depending on the evaluation
    path; the tolerance sends all of them to +1.
    """
    return np.where(f >= -TIE_TOLERANCE, 1, -1)


def estimate_label(model: KernelInterpolator, u) -> int:
    """Label whose augmented interpolant has the smaller norm (see :func:`sign_labels`)."""
    return int(sign_labels(model.evaluate(u)))


def _pool_statistics(model: KernelInterpolator, points: np.ndarray):
    """Per-candidate f(u) and Schur complement S_u, plus cross matrices A, C.

    A = K(X_L, points) and C = K^{-1} A; both are None for the empty model.
    """
    n = len(points)
    if len(model) == 0:
        return np.zeros(n), np.ones(n), None, None
    A = kernel_matrix(model.base.points, points, model.config)
    C = model.solve(A)
    f = A.T @ model.coefficients
    schur = 1.0 + model.jitter - np.einsum("ij,ij->j", A, C)
    return f, schur, A, C


def _scores_from(kind: ScoreKind, f: np.ndarray, schur: np.ndarray, norm_sq: float,
                 mean_r2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scores and estimated labels from f(u), S_u and, for the data score,
    ``mean_x R(u, x)^2``; the one place the score formulas are written.

    Raises DuplicatePointError when any S_u falls below the duplicate floor.
    """
    if np.any(schur < SCHUR_FLOOR):
        raise DuplicatePointError(
            "a candidate is numerically indistinguishable from a labeled point"
        )
    labels = sign_labels(f)
    if kind is ScoreKind.FUNCTION_NORM:
        return norm_sq + (1.0 - np.abs(f)) ** 2 / schur, labels
    return ((1.0 - np.abs(f)) / schur) ** 2 * mean_r2, labels


def _score(model: KernelInterpolator, points, kind: ScoreKind,
           density: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scores and estimated labels of the rows of ``points`` (or of one 1-D point).

    The data score averages over ``density``; by default over ``points``
    themselves, which reuses their solves.
    """
    if kind not in (ScoreKind.FUNCTION_NORM, ScoreKind.DATA_NORM):
        raise ValueError(f"unknown score kind {kind!r}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    f, schur, A, C = _pool_statistics(model, points)
    if kind is ScoreKind.FUNCTION_NORM:
        return _scores_from(kind, f, schur, model.norm_sq)
    # Residual kernel R = K(points, density) - A^T K^{-1} K(X_L, density).
    R = kernel_matrix(points, points if density is None else density, model.config)
    if A is not None and density is None:
        R = R - A.T @ C
    elif A is not None:
        R = R - A.T @ model.solve(kernel_matrix(model.base.points, density, model.config))
    return _scores_from(kind, f, schur, model.norm_sq, np.mean(R ** 2, axis=1))


class ScoringState:
    """Incremental pool scores of the kernel interpolant over a fixed point set.

    The state is built once over all ``n`` points of a task and follows the
    labels added to it; :meth:`scores` then rates the unlabeled points exactly
    as :func:`score_pool` rates them on a freshly fitted model (which stays the
    reference).  With ``K(X_L, X_L) = L L^T`` and ``W = L^{-1} K(X_L, X)`` it
    holds ``f = W^T L^{-1} y``, ``S = 1 - ||W[:, x]||^2``, ``||f||^2`` and the
    rows of ``W``; for the data score also the residual kernel
    ``R = K(X, X) - W^T W`` (one Fortran-order n-by-n array) and the row sums
    of ``R^2``.

    Adding a label at ``u`` takes one residual column
    ``c = k(X, u) - W^T W[:, u]`` (``c[u] = S_u``): ``n`` kernel evaluations
    and an O(nL) product.  The new row of ``W`` is ``c / sqrt(S_u)``, ``f``
    gains ``(t - f(u)) / S_u * c`` and ``S`` loses ``c^2 / S_u``, in O(n).  For
    the data score, ``R`` takes the rank-one downdate ``R - c c^T / S_u`` in
    place (the Schur-complement step of pivoted Cholesky; Harbrecht, Peters &
    Schneider 2012), its row and column ``u`` are set to zero and the row sums
    of ``R^2`` are recomputed, in O(n^2) with no kernel evaluation.

    The kernel system is unjittered, as in a model grown by
    :func:`~maximin_al.kernel.augmented_fit` from the empty one.
    ``capacity`` bounds the number of labels (default ``n``).  A state whose
    rows and residual (``8 * capacity * n`` bytes, plus ``8 * n^2`` for the
    data score) exceed the physical memory raises MemoryError before it
    allocates anything.
    """

    def __init__(self, points, config: KernelConfig, kind: ScoreKind,
                 capacity: int | None = None):
        if kind not in (ScoreKind.FUNCTION_NORM, ScoreKind.DATA_NORM):
            raise ValueError(f"unknown score kind {kind!r}")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        capacity = n if capacity is None else capacity
        needed = 8 * n * (capacity + (n if kind is ScoreKind.DATA_NORM else 0))
        physical = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                    if hasattr(os, "sysconf") else needed)
        if needed > physical:
            raise MemoryError(f"a scoring state over n = {n} points needs {needed} "
                              f"bytes, more than the {physical} bytes of physical memory")
        self.points, self.config, self.kind = points, config, kind
        self.f = np.zeros(n)
        self.schur = np.ones(n)
        self.norm_sq = 0.0
        self._rows = np.empty((capacity, n))
        self._count = 0
        self._residual = self._r2 = None
        if kind is ScoreKind.DATA_NORM:
            # K(X, X) is symmetric, so its C-order buffer read transposed is
            # the Fortran-order array the in-place BLAS downdate needs.
            self._residual = cross_kernel(points, points, config).T
            self._r2 = np.einsum("ij,ij->j", self._residual, self._residual)

    def add(self, i: int, label: int) -> None:
        """Condition on the label ``label`` at point ``i``.

        Raises DuplicatePointError when ``S_i`` is below the duplicate floor
        (point ``i``, or a point equal to it, is already labeled).
        """
        if label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        if self._count == len(self._rows):
            raise ValueError(f"the state holds at most {len(self._rows)} labels")
        W = self._rows[:self._count]
        c = cross_kernel(self.points, self.points[i:i + 1], self.config)[:, 0]
        c -= W.T @ W[:, i]
        s = c[i]
        if s < SCHUR_FLOOR:
            raise DuplicatePointError(
                "candidate is numerically indistinguishable from a labeled point")
        gamma = (label - self.f[i]) / s
        self.norm_sq += (label - self.f[i]) * gamma
        self.f += gamma * c
        self.schur -= c * c / s
        np.divide(c, np.sqrt(s), out=self._rows[self._count])
        self._count += 1
        R = self._residual
        if R is not None:
            dger(-1.0 / s, c, c, a=R, overwrite_a=True)
            R[i, :] = 0.0
            R[:, i] = 0.0
            np.einsum("ij,ij->j", R, R, out=self._r2)

    def scores(self, pool_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scores and estimated labels of the points ``pool_idx``, in that order.

        ``pool_idx`` must hold every unlabeled point: the data score averages
        over it, and labeled rows of ``R`` are zero, so the row sums of ``R^2``
        run over exactly the unlabeled points.
        """
        if len(pool_idx) != len(self.points) - self._count:
            raise ValueError("pool_idx must hold every unlabeled point")
        mean_r2 = None if self._r2 is None else self._r2[pool_idx] / len(pool_idx)
        return _scores_from(self.kind, self.f[pool_idx], self.schur[pool_idx],
                       self.norm_sq, mean_r2)


class IntervalState(ScoringState):
    """:class:`ScoringState` of 1-D points under the ``p = 1`` kernel, from closed forms.

    ``exp(-|x - x'|/h)`` is the Markov Ornstein-Uhlenbeck covariance
    (Hartikainen & Sarkka, 2010), so between adjacent labeled points ``a < b``
    the state depends on those two labels alone and ``R`` vanishes across a
    labeled point.  With ``A = 1 - e^{-2(x-a)/h}`` (1 with no left label),
    ``B = 1 - e^{-2(b-x)/h}`` (1 with no right label) and
    ``D = 1 - e^{-2(b-a)/h}`` (1 unless both exist),

        f = [y_a e^{-(x-a)/h} B + y_b e^{-(b-x)/h} A] / D,   S = A B / D,
        R(u, x) = e^{-|x-u|/h} A(min(u, x)) B(max(u, x)) / D.

    A label recomputes only the ``n_b`` points between its labeled neighbours,
    in O(n_b); the row sums of ``R^2`` are two prefix scans in log space, which
    cannot overflow.  No n-by-n array and no rows of ``W`` are kept.
    """

    def __init__(self, points, config: KernelConfig, kind: ScoreKind):
        if kind not in (ScoreKind.FUNCTION_NORM, ScoreKind.DATA_NORM):
            raise ValueError(f"unknown score kind {kind!r}")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        self.points, self.config, self.kind = points, config, kind
        self.f, self.schur, self.norm_sq, self._count = np.zeros(n), np.ones(n), 0.0, 0
        self._order = np.argsort(points[:, 0], kind="stable")
        self._rank = np.empty(n, dtype=np.intp)
        self._rank[self._order] = np.arange(1, n + 1)
        # Ranks 0 and n + 1 are labeled 0 at -inf and +inf: there A, B and D are 1.
        self._x = np.concatenate([[-np.inf], points[self._order, 0], [np.inf]])
        self._y = np.zeros(n + 2)
        self._labeled = [0, n + 1]  # labeled ranks, increasing
        self._r2 = np.empty(n) if kind is ScoreKind.DATA_NORM else None
        self._fill(0, n + 1)

    def add(self, i: int, label: int) -> None:
        """Condition on the label ``label`` at point ``i`` (see :meth:`ScoringState.add`)."""
        if label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        if self.schur[i] < SCHUR_FLOOR:
            raise DuplicatePointError(
                "candidate is numerically indistinguishable from a labeled point")
        r = self._rank[i]
        k = bisect.bisect(self._labeled, r)
        self._labeled.insert(k, r)
        self._count += 1
        self.norm_sq += (label - self.f[i]) ** 2 / self.schur[i]
        self._y[r], self.f[i], self.schur[i] = label, label, 0.0
        self._fill(self._labeled[k - 1], r)
        self._fill(r, self._labeled[k + 1])

    def _fill(self, lo: int, hi: int) -> None:
        """f, S and the row sums of R^2 at the ranks strictly between labeled ``lo`` and ``hi``."""
        if hi - lo < 2:
            return
        x, h, idx = self._x[lo + 1:hi], self.config.bandwidth, self._order[lo:hi - 1]
        da, db = (x - self._x[lo]) / h, (self._x[hi] - x) / h
        A, B = -np.expm1(-2.0 * da), -np.expm1(-2.0 * db)
        D = -np.expm1(-2.0 * (self._x[hi] - self._x[lo]) / h)
        self.f[idx] = (self._y[lo] * np.exp(-da) * B + self._y[hi] * np.exp(-db) * A) / D
        self.schur[idx] = A * B / D
        if self._r2 is None:
            return
        # sum_x R(u, x)^2 = B(u)^2 sum_{x <= u} e^{-2(u-x)/h} A(x)^2
        #                 + A(u)^2 sum_{x > u} e^{-2(x-u)/h} B(x)^2, all over D^2.
        t = 2.0 * (x - x[0]) / h
        with np.errstate(divide="ignore"):  # log 0 at a repeat of a labeled point
            log_a2, log_b2 = 2.0 * np.log(A), 2.0 * np.log(B)
        below = np.exp(np.logaddexp.accumulate(t + log_a2) - t)
        above = np.logaddexp.accumulate((log_b2 - t)[::-1])[::-1]
        above = np.exp(np.append(above[1:], -np.inf) + t)
        self._r2[idx] = (B * B * below + A * A * above) / (D * D)


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
