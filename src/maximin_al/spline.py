"""Minimal-knot linear-spline interpolation and its selection scores.

The model interpolates 1-D labeled points with the piecewise-linear function
whose roughness ``R(f) = max(integral |f''|, |f'(-inf) + f'(+inf)|)`` is
minimal — the variational limit of training a two-layer ReLU network with
weight decay.  We realize the minimizer by adding two artificial boundary
knots (at ``x_min - pad`` and ``x_max + pad`` with ``pad = max(1, span)``,
and at least two ulps of the larger end) that replicate the extreme labels,
which pins the boundary slopes to zero; ``R(f)`` then equals the total
variation of ``f'``, reported *unsquared* (it is already a norm).

Scores for a candidate ``u`` strictly between labeled neighbors
``(x_j, y_j), (x_{j+1}, y_{j+1})`` use the exact roughness change

    delta(t) = 2(1 - t y_j)/(u - x_j) + 2(1 - t y_{j+1})/(x_{j+1} - u)
               - 2(1 - y_j y_{j+1})/(x_{j+1} - x_j),

with the label ``t(u)`` minimizing it (ties at the exact midpoint go to +1):

* the function-norm score ``R(f) + min_t delta(t)`` peaks at the midpoint of
  an oppositely-labeled pair, preferring *narrower* such pairs, and is
  constant between equal labels;
* the data-based score averages ``(f^u - f)^2`` over the candidates — exactly,
  since the difference is a hat function supported on one interval — and
  prefers *wider* oppositely-labeled pairs, vanishing between equal labels.
  Every candidate reads its hat sums off running sums kept per labeled
  interval, so scoring a pool costs one sort and one pass over the points
  instead of one pass per candidate.  Every distance is measured in units
  of its labeled interval's width ``w = x_{j+1} - x_j`` before it is squared,
  so each square is at most 1 and nothing overflows; the sums are divided by
  ``((u - x_j)/w)^2`` and ``((x_{j+1} - u)/w)^2``, which underflow to 0
  within about 1e-154 w of a labeled point: such a candidate raises
  DuplicatePointError.

Runs score from a :class:`SplineState`, which keeps these terms per point and
recomputes them only on the interval a label splits, and the knots and
roughness ``R(f)`` of its labels, so a scored run fits no spline: its learner
reads the state's :attr:`~SplineState.spline`; the acceptance checks score
on it too.  :func:`spline_score_pool` and :func:`spline_select_next` score a
pool from a fitted spline and are its reference.  One function, ``_knots``,
decides which labeled sets define a spline: a labeled span so wide that a
boundary knot overflows raises ValueError; a repeated position, oppositely
labeled positions closer than 2^-1021 and a roughness that overflows raise
DuplicatePointError.  Both :func:`fit_spline` and :meth:`SplineState.add`
call it on the labeled set, so both raise at the same label with the same
error.  A function score that overflows raises the roughness's
DuplicatePointError in both the state and the reference.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .exceptions import DuplicatePointError, EmptyPoolError, OutOfRangeError
from .scoring import _DUPLICATE, ScoredCandidate, ScoreKind, SortedIntervals, pick


# Oppositely labeled positions closer than 2^-1021 (about 4.5e-308): the slope
# 2 / gap between them would pass 2^1022, and the roughness could overflow.
_MIN_OPPOSITE_GAP = 2.0 ** -1021
_STEEP = "oppositely labeled positions are numerically indistinguishable"
_OVERFLOW = "the roughness overflows: oppositely labeled positions are too close"


def _knots(positions: np.ndarray, values: np.ndarray):
    """Knots, knot values, slopes and roughness of the spline through sorted
    ``positions``: the one rule for which labeled sets define a spline, so
    :func:`fit_spline` and :meth:`SplineState.add` raise at the same label.

    The boundary knots lie ``max(1, span)`` beyond the labeled span, and at
    least two ulps of its larger end, which a pad of 1 is not from about
    |x| = 2^53; ValueError when one overflows.  Then DuplicatePointError for a
    repeated position, for adjacent oppositely labeled positions closer than
    2^-1021, and when the roughness overflows: close oppositely labeled pairs
    can each pass the pair rule yet sum past it."""
    lo, hi = float(positions[0]), float(positions[-1])
    pad = max(1.0, hi - lo, 2 * math.ulp(max(abs(lo), abs(hi))))
    if not (math.isfinite(lo - pad) and math.isfinite(hi + pad)):
        raise ValueError(f"the labeled span [{lo!r}, {hi!r}] is too wide: "
                         "its boundary knots overflow")
    # Differences by slices: np.diff's arithmetic without its call overhead.
    gaps = positions[1:] - positions[:-1]
    close = gaps < _MIN_OPPOSITE_GAP
    if close.any():
        if not gaps.all():
            raise DuplicatePointError("labeled positions must be distinct")
        if (values[1:][close] != values[:-1][close]).any():
            raise DuplicatePointError(_STEEP)
    knots = np.concatenate([[lo - pad], positions, [hi + pad]])
    knot_values = np.concatenate([[values[0]], values, [values[-1]]])
    slopes = (knot_values[1:] - knot_values[:-1]) / (knots[1:] - knots[:-1])
    ext = np.concatenate([[0.0], slopes, [0.0]])
    with np.errstate(over="ignore"):
        weight_norm = float(np.sum(np.abs(ext[1:] - ext[:-1])))
    if not np.isfinite(weight_norm):
        raise DuplicatePointError(_OVERFLOW)
    return knots, knot_values, slopes, weight_norm


class SplineInterpolator:
    """Minimal-roughness linear spline through labeled 1-D points.

    Raises DuplicatePointError for a repeated position, for two adjacent
    oppositely labeled positions less than about 4.5e-308 apart, and when the
    roughness overflows; ValueError when a boundary knot overflows.

    Attributes
    ----------
    positions, values : ndarray
        The sorted labeled data (without the artificial boundary knots).
    knots, knot_values : ndarray
        Full knot sequence including the two boundary knots.
    weight_norm : float
        Total variation of ``f'`` (boundary slopes are zero), unsquared.
    """

    def __init__(self, positions, values):
        positions = np.asarray(positions, dtype=float).ravel()
        values = np.asarray(values)
        if positions.size == 0:
            raise ValueError("need at least one labeled point")
        if values.shape != positions.shape:
            raise ValueError("positions and values must have equal length")
        if not np.all((values == 1) | (values == -1)):
            raise ValueError("values must be +1 or -1")
        order = np.argsort(positions)
        self._set_knots(*_knots(positions[order], values[order].astype(float)))

    @classmethod
    def _from_knots(cls, knots, knot_values, slopes, weight_norm: float) -> "SplineInterpolator":
        """The spline of ``_knots``'s result, with no sort and no check."""
        spline = cls.__new__(cls)
        spline._set_knots(knots, knot_values, slopes, weight_norm)
        return spline

    def _set_knots(self, knots, knot_values, slopes, weight_norm: float) -> None:
        self.knots, self.knot_values, self.slopes = knots, knot_values, slopes
        self.positions, self.values = knots[1:-1], knot_values[1:-1]
        self.weight_norm = weight_norm

    def __len__(self) -> int:
        return len(self.positions)

    def predict(self, x) -> np.ndarray:
        """Spline values at ``x`` (constant beyond the boundary knots)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.interp(x, self.knots, self.knot_values)


def fit_spline(positions, values) -> SplineInterpolator:
    """Fit the minimal-roughness linear spline through ``(positions, values)``."""
    return SplineInterpolator(positions, values)


def _roughness_deltas(u, xl, xr, yl, yr):
    """Roughness change for labels +1 and -1 at candidates ``u`` in ``(xl, xr)``."""
    shared = 2.0 * (1.0 - yl * yr) / (xr - xl)
    dplus = 2.0 * (1.0 - yl) / (u - xl) + 2.0 * (1.0 - yr) / (xr - u) - shared
    dminus = 2.0 * (1.0 + yl) / (u - xl) + 2.0 * (1.0 + yr) / (xr - u) - shared
    return dplus, dminus


def spline_score_pool(m: SplineInterpolator, us, kind: ScoreKind):
    """Vectorized scores and estimated labels for 1-D candidates ``us``; the
    data score averages over the candidates.

    Candidates must lie strictly inside the labeled hull: one on a labeled
    position raises DuplicatePointError, one outside OutOfRangeError.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    # positions[j - 1] < u <= positions[j]: u is a labeled position exactly
    # when it equals positions[j], and outside the hull when j is 0 or L.
    j, last = np.searchsorted(m.positions, us), len(m.positions) - 1
    if np.any(m.positions[np.minimum(j, last)] == us):
        raise DuplicatePointError("candidate coincides with a labeled position")
    if np.any((j == 0) | (j > last)):
        raise OutOfRangeError("candidate lies outside the labeled hull")
    j -= 1
    # Within about 1e-308 of a labeled point the delta of the label opposite
    # to it overflows to inf; the other stays finite, and so does the score.
    with np.errstate(over="ignore"):
        dplus, dminus = _roughness_deltas(us, m.positions[j], m.positions[j + 1],
                                          m.values[j], m.values[j + 1])
    labels = np.where(dplus <= dminus, 1, -1)
    if kind is ScoreKind.FUNCTION_NORM:
        # The roughness after the label, which overflows as fit_spline's would.
        with np.errstate(over="ignore"):
            scores = m.weight_norm + np.minimum(dplus, dminus)
        if not np.isfinite(scores).all():
            raise DuplicatePointError(_OVERFLOW)
        return scores, labels
    if kind is not ScoreKind.DATA_NORM:
        raise ValueError(f"unknown score kind {kind!r}")
    peak = labels - m.predict(us)
    scores = peak ** 2 * _hat_mean_sq(m, us, j)
    return scores, labels


def _hat_mean_sq(m: SplineInterpolator, u: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Mean of ``hat(x)^2`` over the candidates ``u``, for the unit hat peaking at each.

    The hat rises linearly from 0 at ``positions[j]`` to 1 at ``u`` and falls
    back to 0 at ``positions[j+1]``; it is the shape of ``f^u - f`` up to the
    ``t - f(u)`` peak factor.  Distances are in units of the labeled
    interval's width, so every square is at most 1 and nothing overflows.
    """
    xl, xr = m.positions[j], m.positions[j + 1]
    # The rise counts points with x_j < x < u, the fall points with
    # u <= x < x_{j+1}.  Within each labeled interval of width w, rise[k]
    # sums ((x - x_j)/w)^2 over its first k sorted points and fall[k] sums
    # ((x_{j+1} - x)/w)^2 over the rest, so a candidate reads both off at its
    # rank with no cross-interval subtraction.
    pts = np.sort(u)
    lo, hi = m.positions[:-1], m.positions[1:]
    starts = np.searchsorted(pts, lo, side="right")
    ends = np.searchsorted(pts, hi, side="left")
    offsets = np.concatenate([[0], np.cumsum(ends - starts + 1)])
    rise, fall = np.zeros(offsets[-1]), np.zeros(offsets[-1])
    for k in np.unique(j):
        seg, o, w = pts[starts[k]:ends[k]], offsets[k], hi[k] - lo[k]
        np.cumsum(((seg - lo[k]) / w) ** 2, out=rise[o + 1:o + 1 + len(seg)])
        np.cumsum((((hi[k] - seg) / w) ** 2)[::-1], out=fall[o:o + len(seg)][::-1])
    dl, dr = ((u - xl) / (xr - xl)) ** 2, ((xr - u) / (xr - xl)) ** 2
    at = offsets[j] + np.searchsorted(pts, u, side="left") - starts[j]
    if not (dl.all() and dr.all()):
        raise DuplicatePointError(_DUPLICATE)
    return (rise[at] / dl + fall[at] / dr) / len(pts)


class SplineState(SortedIntervals):
    """Spline scores of fixed 1-D points, recomputed only on the interval a label splits.

    It keeps the terms of :func:`spline_score_pool` (the reference) per point,
    and the knots, knot values, slopes and roughness ``weight_norm`` that
    ``_knots`` returns per label on the labeled points, as ``fit_spline``
    computes them, bit for bit; :attr:`spline` is that spline.  So
    :meth:`scores` equals the reference on the unlabeled points and raises as
    it does; :meth:`select` picks from them as ``pick`` does on :meth:`scores`.
    """

    def __init__(self, points, kind: ScoreKind, order: np.ndarray | None = None):
        x = np.asarray(points, dtype=float).ravel()
        self._repeated, self.weight_norm = False, 0.0
        self.knots = self.knot_values = self.slopes = np.empty(0)
        # The terms by rank; the sentinel ranks stay unused.
        self._dplus, self._dminus, self._f, self._hat = (np.zeros(len(x) + 2) for _ in range(4))
        super().__init__(x, kind, order)

    _offset = property(lambda self: self.weight_norm)

    def add(self, i: int, label: int) -> None:
        """Condition on the label ``label`` at point ``i``; raises where
        :func:`fit_spline` on the labeled points would, before any change."""
        if label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        r = self._rank[i]
        # The labeled ranks with r, in order: equal points have adjacent ranks,
        # so a repeat of r is its labeled neighbour, a zero gap for _knots.
        k = bisect.bisect(self._labeled, r)
        ranks = np.array(self._labeled[1:k] + [r] + self._labeled[k:-1])
        x = self._x
        self.knots, self.knot_values, self.slopes, self.weight_norm = _knots(
            x[ranks], np.where(ranks == r, label, self._y[ranks]))
        self._repeated |= x[r] in (x[r - 1], x[r + 1])
        self._split(i, label)

    @property
    def spline(self) -> SplineInterpolator:
        """The spline through the labels, as :func:`fit_spline` fits it."""
        if not len(self.knots):
            raise ValueError("need at least one labeled point")
        return SplineInterpolator._from_knots(self.knots, self.knot_values, self.slopes,
                                      self.weight_norm)

    def _check(self) -> None:
        if self._repeated:
            raise DuplicatePointError("candidate coincides with a labeled position")
        if self._labeled[1] > 1 or self._labeled[-2] < len(self._order):
            raise OutOfRangeError("candidate lies outside the labeled hull")
        super()._check()
        # The largest function score, R(f) plus the largest key, overflows
        # exactly when one of the reference's does.
        if (self.kind is ScoreKind.FUNCTION_NORM and self.weight_norm
                + float(self._top[self._labeled[:-1]].max()) == math.inf):
            raise DuplicatePointError(_OVERFLOW)

    def _score(self, ranks, weight_norm: float, m: int):
        """Scores and labels of the points at ``ranks``, with ``m`` unlabeled points."""
        dplus, dminus = self._dplus[ranks], self._dminus[ranks]
        labels = np.where(dplus <= dminus, 1, -1)
        if self.kind is ScoreKind.FUNCTION_NORM:
            return weight_norm + np.minimum(dplus, dminus), labels
        return (labels - self._f[ranks]) ** 2 * (self._hat[ranks] / m), labels

    def _fill(self, lo: int, hi: int) -> None:
        self._top[lo] = -np.inf
        self._count_low(lo, 0)
        if lo == 0 or hi == len(self._x) - 1 or hi - lo < 2:
            return  # outside the hull, where scores raise, or empty
        u, ranks = self._x[lo + 1:hi], slice(lo + 1, hi)
        xl, xr, yl, yr = self._x[lo], self._x[hi], self._y[lo], self._y[hi]
        # Repeats, and points within about 1e-154 w of an end: scores raise there.
        # Within about 1e-308 of an end one delta overflows (see spline_score_pool).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._dplus[ranks], self._dminus[ranks] = _roughness_deltas(u, xl, xr, yl, yr)
            if self.kind is ScoreKind.DATA_NORM:
                self._f[ranks] = np.interp(u, (xl, xr), (yl, yr))
                dl, dr = ((u - xl) / (xr - xl)) ** 2, ((xr - u) / (xr - xl)) ** 2
                self._count_low(lo, int(np.count_nonzero((dl == 0) | (dr == 0))))
                rise, fall = np.zeros(len(u) + 1), np.zeros(len(u) + 1)
                np.cumsum(dl, out=rise[1:])
                np.cumsum(dr[::-1], out=fall[:-1][::-1])
                at = np.searchsorted(u, u, side="left")
                self._hat[ranks] = rise[at] / dl + fall[at] / dr
            key = self._key[ranks] = self._score(ranks, 0.0, 1)[0]
        self._top[lo] = key.max()


def spline_select_next(m: SplineInterpolator, candidates, kind: ScoreKind,
                       rng_seed) -> ScoredCandidate:
    """Pick the candidate with the largest spline score.

    ``candidates`` is an array of 1-D points.  The data-based score averages
    over the candidates themselves.  Ties break as in
    :func:`maximin_al.scoring.pick`.
    """
    us = np.asarray(candidates, dtype=float).ravel()
    if us.size == 0:
        raise EmptyPoolError("cannot select from an empty pool")
    return pick(*spline_score_pool(m, us, kind), rng_seed)
