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

Runs and the acceptance checks score from an incremental state built over
every point (:func:`maximin_al.harness.scoring_state` picks it):
:class:`IntervalState` (closed forms on each labeled interval) for 1-D points
with ``p = 1``, else :class:`ScoringState` (one residual column per label).
Like the spline's, a state needs nothing but its labels: it takes them by
point index (``add``), scores every point it has no label for, in ascending
index (``scores()``), and returns the :func:`pick` among them (``select(rng)``).
:func:`score_pool` and :func:`select_next` score an array of candidates from a
fitted model, recomputing ``f``, ``S_u`` and the residual kernel on every
call; they are the reference the states are tested against.  All turn
``(f, S_u, mean_x R(u, x)^2)`` into scores and labels through one helper.

The 1-D states (:class:`SortedIntervals`) also select per labeled interval:
each keeps every point's score less its common term (its *key*) and each
interval's largest key, scans the L + 1 maxima, and reads keys only between
the first and the last interval that may reach the best.  It keeps only the
points whose key, turned into a score, lies within the tie tolerance plus a
few-ulp rounding slack of the best, and draws among them in ascending index
as :func:`pick` does: from their exact scores, which for the function score
are the keys turned into scores.  The rounding from key to score is exact or
within a few ulps, so those points hold the whole pool's tie set, and the
pick, its index, score and random draw equal :func:`pick` on every unlabeled
point's scores.  A step then scores O(n_b + L) points instead of n when the
best scores sit in one interval, as they do between ties; only a boolean mask
over the n points, which puts the kept points in index order, stays O(n).

The 1-D states are pure NumPy; SciPy's BLAS is imported only by the data-score
:class:`ScoringState`, at its first label.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DuplicatePointError, EmptyPoolError
from .kernel import (SCHUR_FLOOR, KernelConfig, KernelInterpolator, cross_kernel,
                     kernel_matrix, markov_1d, require_finite, require_positive_definite)

TIE_TOLERANCE = 1e-12

# Relative slack, about 90 ulps, for the rounding between an interval's cached
# key maximum and the scores of its points (see SortedIntervals.select).
_ROUNDING_SLACK = 1e-14

_DUPLICATE = "a candidate is numerically indistinguishable from a labeled point"


class ScoreKind(Enum):
    FUNCTION_NORM = "function"
    DATA_NORM = "data"


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate's pool index, estimated label, and score."""

    index: int
    label: int
    score: float


def sign_labels(f):
    """The +-1 label of each value of ``f``: its sign, +1 when ``|f| <= 1e-12``.

    A value that is 0 in exact arithmetic, such as ``f`` halfway between two
    opposite labels, rounds to either side of 0 depending on the evaluation
    path; the tolerance sends all of them to +1.
    """
    return np.where(f >= -TIE_TOLERANCE, 1, -1)


def _score_values(kind: ScoreKind, f: np.ndarray, schur: np.ndarray, norm_sq: float,
                  mean_r2: np.ndarray | None) -> np.ndarray:
    """Scores from f(u), S_u and, for the data score, ``mean_x R(u, x)^2``; the
    one place the score formulas are written."""
    if kind is ScoreKind.FUNCTION_NORM:
        return norm_sq + (1.0 - np.abs(f)) ** 2 / schur
    return ((1.0 - np.abs(f)) / schur) ** 2 * mean_r2


def _scores_from(kind: ScoreKind, f: np.ndarray, schur: np.ndarray, norm_sq: float,
                 mean_r2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scores (:func:`_score_values`) and estimated labels.

    Raises DuplicatePointError when any S_u falls below the duplicate floor.
    """
    if (schur < SCHUR_FLOOR).any():
        raise DuplicatePointError(_DUPLICATE)
    return _score_values(kind, f, schur, norm_sq, mean_r2), sign_labels(f)


class ScoringState:
    """Incremental pool scores of the kernel interpolant over a fixed point set.

    The state is built once over all ``n`` points of a task and follows the
    labels added to it; :meth:`scores` then rates the unlabeled points exactly
    as :func:`score_pool` rates them on a freshly fitted model (which stays the
    reference).  With ``K(X_L, X_L) = L L^T`` and ``W = L^{-1} K(X_L, X)`` it
    holds ``f = W^T L^{-1} y``, ``S = 1 - ||W[:, x]||^2``, ``||f||^2`` and the
    rows of ``W``; for the data score also ``K = K(X, X)``, read-only (one
    Fortran-order n-by-n array), and the row sums ``r2`` of ``R^2`` for the
    residual kernel ``R = K - W^T W``, whose rows and columns at labeled
    points are zero.

    Adding a label at ``u`` takes one residual column
    ``c = k(X, u) - W^T W[:, u]`` (``c[u] = S_u``): an O(nL) product and,
    for the function score, ``n`` kernel evaluations; the data score reads
    ``k(X, u)`` from ``K``.  ``add`` returns that kernel column, so a caller
    that keeps a model over the same points evaluates no kernel entry again.
    The new row of ``W`` is ``c / sqrt(S_u)``, ``f``
    gains ``(t - f(u)) / S_u * c`` and ``S`` loses ``c^2 / S_u``, in O(n).  For
    the data score ``R`` becomes ``R - c c^T / S_u`` (the Schur-complement
    step of pivoted Cholesky; Harbrecht, Peters & Schneider 2012), so with
    ``v = R c = K c - W^T (W c)`` and ``g = c / S_u``, ``W`` the rows before
    this label,

        r2 += g * (g ||c||^2 - 2 v),   r2[u] = 0,

    one symmetric mat-vec (BLAS ``dsymv``, one triangle of ``K``) and O(nL)
    work; ``R`` itself is never formed.  The update subtracts nearly equal
    terms, so the row sums of points next to labels, which are small, lose
    relative digits; the points that win the selection keep large ones.  Against a dense recompute
    from ``K - W^T W`` they agree within 2.5e-11 relative at every step of
    the 39 labels of the 13-ball layout (h = 0.1), 7.4e-12 over the 40 labels
    of the 5-ball 5-D layout (h = 0.5), and 3.2e-10 over 300 labels on the
    13-ball layout, where the old in-place downdate of ``R`` kept 1.2e-13.
    ``dsymv`` sums in an order that follows the BLAS thread count, so these
    row sums, and the data scores, repeat bit for bit only at the same count:
    on four 13-ball runs (seeds 0-3) at 1 and 2 OpenBLAS threads, 2-6 scores
    per run differed, by at most 1.4e-14 relative.

    ``capacity`` bounds the number of labels (default ``n``).  A state whose
    rows and kernel (``8 * capacity * n`` bytes, plus ``8 * n^2`` for the
    data score) exceed the physical memory raises MemoryError before it
    allocates anything; one whose kernel is not positive definite in the
    points' dimension (:func:`~maximin_al.kernel.require_positive_definite`),
    or with a point that is not finite, raises ValueError.
    """

    def __init__(self, points, config: KernelConfig, kind: ScoreKind,
                 capacity: int | None = None):
        if kind not in (ScoreKind.FUNCTION_NORM, ScoreKind.DATA_NORM):
            raise ValueError(f"unknown score kind {kind!r}")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        require_finite(points)
        require_positive_definite(points.shape[1], config)
        n = len(points)
        capacity = n if capacity is None else capacity
        require_memory(8 * n * (capacity + (n if kind is ScoreKind.DATA_NORM else 0)),
                       f"a scoring state over n = {n} points")
        self.points, self.config, self.kind = points, config, kind
        self.f = np.zeros(n)
        self.schur = np.ones(n)
        self.norm_sq = 0.0
        self._unlabeled = np.ones(n, dtype=bool)
        self._rows = np.empty((capacity, n))
        self._count = 0
        self._kernel = self._r2 = None
        if kind is ScoreKind.DATA_NORM:
            # K(X, X) is symmetric, so its C-order buffer read transposed is
            # the Fortran-order array BLAS reads without a copy.
            self._kernel = cross_kernel(points, points, config).T
            self._r2 = np.einsum("ij,ij->j", self._kernel, self._kernel)

    def add(self, i: int, label: int) -> np.ndarray:
        """Condition on the label ``label`` at point ``i``; return ``k(X, x_i)``,
        which the caller must not write.

        Raises DuplicatePointError when ``S_i`` is below the duplicate floor
        (point ``i``, or a point equal to it, is already labeled).
        """
        if label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        if self._count == len(self._rows):
            raise ValueError(f"the state holds at most {len(self._rows)} labels")
        W = self._rows[:self._count]
        if self._kernel is None:
            k = cross_kernel(self.points, self.points[i:i + 1], self.config)[:, 0]
        else:  # K's row i, with the bits of its column i (see kernel)
            k = self._kernel[:, i]
        c = k - W.T @ W[:, i]
        s = c[i]
        if s < SCHUR_FLOOR:
            raise DuplicatePointError(_DUPLICATE)
        if self._kernel is not None:
            from scipy.linalg.blas import dsymv  # loaded by data-score states only
            # v = R c with R = K - W^T W, reading one triangle of K.
            v = dsymv(1.0, self._kernel, c, beta=1.0, y=-(W.T @ (W @ c)), overwrite_y=True)
            g = c / s
            self._r2 += g * (g * (c @ c) - 2.0 * v)
            self._r2[i] = 0.0
        gamma = (label - self.f[i]) / s
        self.norm_sq += (label - self.f[i]) * gamma
        self.f += gamma * c
        self.schur -= c * c / s
        np.divide(c, np.sqrt(s), out=self._rows[self._count])
        self._count += 1
        self._unlabeled[i] = False
        return k

    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Scores and estimated labels of the unlabeled points, in ascending index.

        The data score averages over them: labeled columns of ``R`` are zero,
        so the row sums of ``R^2`` run over exactly the unlabeled points.
        """
        pool = self._unlabeled
        mean_r2 = None if self._r2 is None else self._r2[pool] / (len(pool) - self._count)
        return _scores_from(self.kind, self.f[pool], self.schur[pool], self.norm_sq, mean_r2)

    def select(self, rng) -> ScoredCandidate:
        """``pick(*self.scores(), rng)`` with the point's index; EmptyPoolError if none is left."""
        pool_idx = np.flatnonzero(self._unlabeled)
        if len(pool_idx) == 0:
            raise EmptyPoolError("cannot select from an empty pool")
        chosen = pick(*self.scores(), rng)
        return ScoredCandidate(int(pool_idx[chosen.index]), chosen.label, chosen.score)


def require_memory(needed: int, what: str) -> None:
    """Raise MemoryError, naming ``what``, where ``needed`` bytes exceed the
    physical memory."""
    physical = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                if hasattr(os, "sysconf") else needed)
    if needed > physical:
        raise MemoryError(f"{what} needs {needed} bytes, more than the {physical} "
                          "bytes of physical memory")


def sort_order(x: np.ndarray) -> np.ndarray:
    """The stable argsort of 1-D ``x``, by NumPy's default (SIMD) sort when it can be.

    The default sort is not stable, but on keys that strictly increase once
    sorted no two orders differ; equal keys (a csv may repeat a first
    coordinate) or NaN fall back to the stable sort.
    """
    order = np.argsort(x)
    xs = x[order]
    if not (xs[1:] > xs[:-1]).all():
        order = np.argsort(x, kind="stable")
    return order


class SortedIntervals:
    """Scoring state of 1-D points sorted once and split by the labeled ones.

    Sentinel ranks 0 and n + 1 are labeled 0 at -inf and +inf.  A label at rank
    ``r`` between labeled ``lo`` and ``hi`` recomputes only the points between,
    by ``_fill(lo, r)`` and ``_fill(r, hi)``.  Per-point terms are kept by
    rank, so a fill writes slices.  Each fill also stores each point's *key*,
    its function score less the subclass's common term ``_offset`` (``norm_sq``,
    or the spline's roughness) or its data score times the number ``m`` of
    unlabeled points, and the interval's largest key at its left rank; a
    labeled rank's key is -inf, and the number of its points that are
    numerically indistinguishable from an end, where scores and selection
    raise DuplicatePointError.  A subclass fills the first interval
    ``(0, n + 1)`` once its own arrays exist (the spline's lies outside the
    hull and needs none).  ``order`` is ``x``'s stable argsort
    (:func:`sort_order`) when the caller already has it.  A point that is not
    finite raises ValueError naming it.
    """

    def __init__(self, x: np.ndarray, kind: ScoreKind, order: np.ndarray | None = None):
        if kind not in (ScoreKind.FUNCTION_NORM, ScoreKind.DATA_NORM):
            raise ValueError(f"unknown score kind {kind!r}")
        require_finite(x)
        n, self.kind = len(x), kind
        self._order = sort_order(x) if order is None else order
        self._rank = np.empty(n, dtype=np.intp)
        self._rank[self._order] = np.arange(1, n + 1)
        self._x = np.concatenate([[-np.inf], x[self._order], [np.inf]])
        self._y = np.zeros(n + 2)
        self._key = np.full(n + 2, -np.inf)  # -inf at the labeled ranks
        self._top = np.full(n + 2, -np.inf)  # largest key of each interval, by left rank
        self._labeled = [0, n + 1]  # labeled ranks, increasing
        self._low, self._n_low = [0] * (n + 2), 0  # duplicate-like points, by left rank

    def _split(self, i: int, label: int) -> None:
        r = int(self._rank[i])
        k = bisect.bisect(self._labeled, r)
        self._labeled.insert(k, r)
        self._y[r], self._key[r] = label, -np.inf
        self._fill(self._labeled[k - 1], r)
        self._fill(r, self._labeled[k + 1])

    def _count_low(self, lo: int, low: int) -> None:
        """Replace the duplicate-like count of the interval at left rank ``lo`` and the total."""
        self._n_low += low - self._low[lo]
        self._low[lo] = low

    def _check(self) -> None:
        """Raise where a score is undefined: here, next to a labeled point."""
        if self._n_low:
            raise DuplicatePointError(_DUPLICATE)

    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Scores and labels of the unlabeled points, in ascending index, as
        :meth:`ScoringState.scores`; raises where a score is undefined."""
        self._check()
        unlabeled = np.ones(len(self._order), dtype=bool)
        unlabeled[self._order[np.array(self._labeled[1:-1], dtype=np.intp) - 1]] = False
        return self._score(self._rank[unlabeled], self._offset, int(unlabeled.sum()))

    def select(self, rng) -> ScoredCandidate:
        """``pick(*self.scores(), rng)`` with the point's index, scoring O(n_b + L) points.

        A key turned into a score (``offset + key`` or ``key / m``) is the
        point's score exactly for the function score (it is the score's own
        expression) and within a few ulps of it for the data score, so the
        points that pass the cut hold the whole pool's tie set (see the module
        docstring).  The function score draws among them from ``offset + key``
        and scores the chosen point alone; the data score rescores them all.
        O(L + n_c) for L labels and the n_c points from the first to the last
        interval that may reach the best, plus an O(n) mask that puts the kept
        points in index order.
        Raises where :meth:`scores` would, and EmptyPoolError if no point is
        left.
        """
        self._check()
        m = len(self._order) + 2 - len(self._labeled)
        if m == 0:
            raise EmptyPoolError("cannot select from an empty pool")
        offset = self._offset

        def as_score(key):
            return offset + key if self.kind is ScoreKind.FUNCTION_NORM else key / m

        near = as_score(self._top[self._labeled[:-1]])
        best = float(near.max())
        cut = best - TIE_TOLERANCE - _ROUNDING_SLACK * (abs(best) + TIE_TOLERANCE)
        # Points of intervals below the cut, and labeled points, fail it too.
        kept = (near >= cut).nonzero()[0]
        lo, hi = self._labeled[kept[0]] + 1, self._labeled[kept[-1] + 1]
        ranks = lo + (as_score(self._key[lo:hi]) >= cut).nonzero()[0]
        # The candidates in ascending index, by a mask over the points.
        mark = np.zeros(len(self._order), dtype=bool)
        mark[self._order[ranks - 1]] = True
        idx = mark.nonzero()[0]
        ranks = self._rank[idx]
        # offset + key is the function score's own expression, so only the
        # chosen point needs its label; the data score is rescored exactly.
        exact = self.kind is ScoreKind.FUNCTION_NORM
        j = _draw(as_score(self._key[ranks]) if exact else self._score(ranks, offset, m)[0], rng)
        score, label = self._score(ranks[j:j + 1], offset, m)
        return ScoredCandidate(int(idx[j]), int(label[0]), float(score[0]))


class IntervalState(SortedIntervals):
    """The :class:`ScoringState` of 1-D points under the ``p = 1`` kernel, from closed forms.

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
    cannot overflow.  No n-by-n array and no rows of ``W`` are kept.  Per
    labeled interval it also counts the points with ``S`` below the duplicate
    floor and, given the points' ``oracle`` labels, those whose sign ``f >= 0``
    is wrong; ``n_wrong`` is the total over all points.
    """

    def __init__(self, points, config: KernelConfig, kind: ScoreKind,
                 order: np.ndarray | None = None, oracle: np.ndarray | None = None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        self.config, self.norm_sq = config, 0.0
        # f, S and the row sums of R^2 by rank; the sentinel ranks stay unused.
        self._f, self._s = np.zeros(n + 2), np.ones(n + 2)
        self._r2 = np.empty(n + 2) if kind is ScoreKind.DATA_NORM else None
        self._wrong, self.n_wrong = [0] * (n + 2), 0
        super().__init__(points[:, 0], kind, order)
        # The oracle's signs by rank - 1.
        self._truth = None if oracle is None else np.asarray(oracle)[self._order] > 0
        self._fill(0, n + 1)

    @property
    def f(self) -> np.ndarray:
        """The interpolant at every point, by index."""
        return self._f[self._rank]

    @property
    def schur(self) -> np.ndarray:
        """S at every point, by index (0 at the labeled ones)."""
        return self._s[self._rank]

    def add(self, i: int, label: int) -> None:
        """Condition on the label ``label`` at point ``i`` (see :meth:`ScoringState.add`)."""
        if label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        r = self._rank[i]
        if self._s[r] < SCHUR_FLOOR:
            raise DuplicatePointError(_DUPLICATE)
        self.norm_sq += (label - self._f[r]) ** 2 / self._s[r]
        self._f[r], self._s[r] = label, 0.0
        if self._truth is not None:
            self.n_wrong += int((label > 0) != self._truth[r - 1])
        self._split(i, label)

    _offset = property(lambda self: self.norm_sq)

    def predict(self, points) -> np.ndarray:
        """The interpolant at the rows of ``points``, as ``KernelInterpolator.predict``."""
        x = np.atleast_2d(np.asarray(points, dtype=float))[:, 0]
        return markov_1d(self._x[self._labeled], self._y[self._labeled], x,
                         self.config.bandwidth)

    def _score(self, r: np.ndarray, norm_sq: float, m: int):
        """Scores and labels of the points at ranks ``r``, with ``m`` points unlabeled."""
        mean_r2 = None if self._r2 is None else self._r2[r] / m
        return _scores_from(self.kind, self._f[r], self._s[r], norm_sq, mean_r2)

    def _count_at(self, lo: int, low: int, wrong: int) -> None:
        """Replace the counts of the interval at left rank ``lo`` and their totals."""
        self._count_low(lo, low)
        self.n_wrong += wrong - self._wrong[lo]
        self._wrong[lo] = wrong

    def _fill(self, lo: int, hi: int) -> None:
        """f, S, the row sums of R^2, the keys and the counts strictly between labeled ``lo`` and ``hi``."""
        if hi - lo < 2:
            self._top[lo] = -np.inf
            self._count_at(lo, 0, 0)
            return
        x, h = self._x[lo + 1:hi], self.config.bandwidth
        da, db = (x - self._x[lo]) / h, (self._x[hi] - x) / h
        A, B = -np.expm1(-2.0 * da), -np.expm1(-2.0 * db)
        D = -np.expm1(-2.0 * (self._x[hi] - self._x[lo]) / h)
        f = self._f[lo + 1:hi] = (self._y[lo] * np.exp(-da) * B
                                  + self._y[hi] * np.exp(-db) * A) / D
        schur = self._s[lo + 1:hi] = A * B / D
        wrong = 0 if self._truth is None else int(np.count_nonzero(
            (f >= 0) != self._truth[lo:hi - 1]))
        self._count_at(lo, int(np.count_nonzero(schur < SCHUR_FLOOR)), wrong)
        r2 = None
        # A repeat of a labeled point has A or B = 0, so S = 0 (select raises there).
        with np.errstate(divide="ignore", invalid="ignore"):
            if self._r2 is not None:
                # sum_x R(u, x)^2 = B(u)^2 sum_{x <= u} e^{-2(u-x)/h} A(x)^2
                #                 + A(u)^2 sum_{x > u} e^{-2(x-u)/h} B(x)^2, all over D^2.
                t = 2.0 * (x - x[0]) / h
                log_a2, log_b2 = 2.0 * np.log(A), 2.0 * np.log(B)
                below = np.exp(np.logaddexp.accumulate(t + log_a2) - t)
                above = np.logaddexp.accumulate((log_b2 - t)[::-1])[::-1]
                above = np.exp(np.append(above[1:], -np.inf) + t)
                r2 = self._r2[lo + 1:hi] = (B * B * below + A * A * above) / (D * D)
            key = self._key[lo + 1:hi] = _score_values(self.kind, f, schur, 0.0, r2)
        self._top[lo] = key.max()


def score_pool(model: KernelInterpolator, points,
               kind: ScoreKind) -> tuple[np.ndarray, np.ndarray]:
    """Score every candidate at once; the data score averages over the candidates.

    ``points`` is an n-by-d array, or a 1-D array of n points in one dimension.

    Returns
    -------
    scores, labels : ndarray of shape (n,)
        MaxiMin scores and the matching estimated labels ``t(u)``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValueError(f"points must be a 1-D or 2-D array, got shape {points.shape}")
    dim = points.shape[1]
    if len(model) and dim != model.base.dim:
        raise ValueError(f"pool dimension {dim} does not match model {model.base.dim}")
    if kind not in (ScoreKind.FUNCTION_NORM, ScoreKind.DATA_NORM):
        raise ValueError(f"unknown score kind {kind!r}")
    f, schur, A = np.zeros(len(points)), np.ones(len(points)), None
    if len(model):
        A = kernel_matrix(model.base.points, points, model.config)
        C = model.solve(A)
        f = A.T @ model.coefficients
        schur = 1.0 - np.einsum("ij,ij->j", A, C)
    if kind is ScoreKind.FUNCTION_NORM:
        return _scores_from(kind, f, schur, model.norm_sq)
    # Residual kernel R = K(pool, pool) - A^T K^{-1} A.
    R = kernel_matrix(points, points, model.config)
    if A is not None:
        R = R - A.T @ C
    return _scores_from(kind, f, schur, model.norm_sq, np.mean(R ** 2, axis=1))


def pick(scores: np.ndarray, labels: np.ndarray, rng_seed) -> ScoredCandidate:
    """The candidate with the largest score, ties broken at random.

    Candidates whose scores are within ``1e-12`` (absolute) of the maximum are
    treated as tied and one is drawn uniformly at random from ``rng_seed``
    (an int seed or a ``numpy.random.Generator``); no draw is made when the
    maximum is unique.  Deterministic given the seed and inputs.
    """
    index = _draw(scores, rng_seed)
    return ScoredCandidate(index, int(labels[index]), float(scores[index]))


def _draw(scores: np.ndarray, rng_seed) -> int:
    """The position :func:`pick` chooses in ``scores``: the one tie-breaking argmax."""
    best = np.max(scores)
    tied = (scores >= best - TIE_TOLERANCE).nonzero()[0]
    rng = np.random.default_rng(rng_seed)
    return int(tied[rng.integers(len(tied))]) if len(tied) > 1 else int(tied[0])


def select_next(model: KernelInterpolator, points, kind: ScoreKind,
                rng_seed) -> ScoredCandidate:
    """Pick the candidate among ``points`` (as in :func:`score_pool`) with the
    largest score (see :func:`pick` for ties)."""
    if len(points) == 0:
        raise EmptyPoolError("cannot select from an empty pool")
    return pick(*score_pool(model, points, kind), rng_seed)
