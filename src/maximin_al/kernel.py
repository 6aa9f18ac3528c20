"""Minimum-norm interpolation with exponential radial-basis kernels.

The kernel family is ``k(x, x') = exp(-||x - x'||_p / h)`` with bandwidth
``h > 0`` and Minkowski order ``p >= 1``, so ``k(x, x) = 1`` everywhere.
Fitting a :class:`KernelInterpolator` to labeled points ``(x_i, y_i)`` solves
``K alpha = y`` for the representer coefficients; the interpolant is
``f(x) = sum_i alpha_i k(x_i, x)`` and its squared Hilbert norm is
``y^T K^{-1} y = y^T alpha``, the smallest norm among all interpolants of the
data in the kernel's native space.

Fitted models are immutable: :func:`augmented_fit` returns a new model for the
data set extended by one point, updating the Cholesky factor and the squared
norm in O(L^2) through the rank-one (Schur-complement) identity

    ||f_new||^2 = ||f||^2 + (1 - t * f(u))^2 / (1 - a_u^T K^{-1} a_u),

where ``a_u = [k(x_i, u)]_i`` and ``t`` is the new label.  Immutability makes
models safe to share across threads; all randomness in the package lives in
explicitly seeded selection routines, never here.

In 1-D with ``p = 1`` the kernel is the Ornstein-Uhlenbeck covariance, which
is Markov (Hartikainen & Sarkka, 2010): between two adjacent labeled points
``x_j < x < x_{j+1}`` every term of ``f`` lies in span{e^{x/h}, e^{-x/h}}, so
the values ``v = f(X_L) = y`` at the two ends fix ``f`` there.  With
``a = (x - x_j)/h`` and ``b = (x_{j+1} - x)/h``,

    f(x) = [v_j e^{-a} (1 - e^{-2b}) + v_{j+1} e^{-b} (1 - e^{-2a})] / (1 - e^{-2(a+b)}),

and beyond the outermost labeled points ``f`` decays as ``v e^{-|x - x_end|/h}``.
:meth:`KernelInterpolator.predict` evaluates this at m points in O(m log L),
one binary search and two ``expm1`` per point, from the sorted knots the
model carries: no pass over the L knots and no m-by-L kernel matrix.  Every
other case takes the dense path.  The same rule gives 1-D ``p = 1`` runs the
closed-form :class:`~maximin_al.scoring.IntervalState`; all others the
generic ``ScoringState``.

Runs score from those states; a model grown by :func:`augmented_fit` gives
``f`` to random runs and to those with d > 1 or p != 1, and :func:`fit` is the
acceptance checks' oracle.  Such a run evaluates each kernel entry once: its
learner keeps the kernel between the task points and the labeled ones, a
column per label, and passes :meth:`KernelInterpolator.predict` that matrix
(``cross``) and :func:`augmented_fit` the new point's row of it (``row``).
Each distance is taken alone from its two points and has the same bits in
either order (``|x - y|`` in 1-D, SciPy's ``cdist`` else), so a row, a column
or a block cut from one evaluation has the bits of evaluating it afresh.  Triangular systems are solved by LAPACK ``trtrs``
(SciPy's ``dtrtrs``) called directly, with the arguments SciPy's triangular
solver passes, so without its scan of the L-by-L factor: labeled points are
finite, so ``cholesky`` gives a finite factor or raises, and a row that
:func:`augmented_fit` appends has entries of magnitude at most 1.  SciPy is
imported only where a kernel system is factored or solved (:func:`fit`,
:func:`augmented_fit` and the model's solves) and where distances in d > 1
are taken, so importing the package, and the 1-D states, load none of it.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import ConditioningError, DuplicatePointError

# Residual tolerance for accepting a solve, max-norm of K @ alpha - y.
SOLVE_RESIDUAL_TOL = 1e-8

# Schur complements below this are treated as a duplicate of a labeled point.
SCHUR_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelConfig:
    """Kernel hyperparameters: bandwidth ``h`` and Minkowski order ``p``.

    Parameters
    ----------
    bandwidth : float
        Length scale ``h``; a real number (not a boolean), strictly positive.
    exponent : float, default=2.0
        Distance order ``p``; any real ``p >= 1`` (not a boolean) is accepted.
    """

    bandwidth: float
    exponent: float = 2.0

    def __post_init__(self):
        for name in ("bandwidth", "exponent"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not np.isfinite(self.exponent) or self.exponent < 1:
            raise ValueError(f"exponent must satisfy p >= 1, got {self.exponent}")


class LabeledSet:
    """Immutable collection of labeled points.

    Parameters
    ----------
    points : array-like of shape (n, d)
        Pairwise-distinct finite feature vectors.  A 1-D array is treated as
        n points in one dimension.
    labels : array-like of shape (n,)
        Binary labels, each exactly +1 or -1.
    """

    def __init__(self, points, labels):
        points = np.atleast_1d(np.asarray(points, dtype=float))
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        labels = np.asarray(labels)
        if labels.shape != (points.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {points.shape[0]} points"
            )
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        require_finite(points)
        if len(np.unique(points, axis=0)) != len(points):
            raise DuplicatePointError("labeled points must be pairwise distinct")
        self._assign(points.copy(), labels.astype(int))

    def _assign(self, points: np.ndarray, labels: np.ndarray) -> None:
        self._points, self._labels = points, labels
        self._points.setflags(write=False)
        self._labels.setflags(write=False)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return len(self._points)

    def append(self, point, label) -> "LabeledSet":
        """Return a new LabeledSet with one extra labeled point.

        Only the new row is checked (its dimension, its label, that it is
        finite and that no labeled row equals it); the existing rows were
        checked when they came in.
        """
        point = np.asarray(point, dtype=float).reshape(1, -1)
        if len(self) and point.shape[1] != self.dim:
            raise ValueError(f"point has dimension {point.shape[1]}, expected {self.dim}")
        if label not in (-1, 1):
            raise ValueError("labels must be +1 or -1")
        require_finite(point, first=len(self))
        if len(self) and (self._points == point).all(axis=1).any():
            raise DuplicatePointError("labeled points must be pairwise distinct")
        out = LabeledSet.__new__(LabeledSet)
        out._assign(np.concatenate([self._points, point]) if len(self) else point.copy(),
                    np.concatenate([self._labels, [int(label)]]))
        return out


def require_finite(points: np.ndarray, first: int = 0) -> None:
    """Raise ValueError naming the first row of ``points`` (numbered from
    ``first``) with a NaN or infinite coordinate."""
    finite = np.isfinite(points)
    if np.count_nonzero(finite) < finite.size:
        row = int(np.argmin(finite.reshape(len(points), -1).all(axis=1)))
        raise ValueError(f"point {first + row} is not finite: {points[row]}")


def require_positive_definite(dim: int, config: KernelConfig) -> None:
    """Raise ValueError where ``exp(-||x||_p / h)`` is not positive definite.

    For ``d >= 3`` and ``p > 2`` it is not (Koldobsky 1991; Zastavnyi 1991),
    so a Gram matrix can be indefinite and no interpolant is guaranteed; a
    Schur complement that turns negative would otherwise read as a duplicate
    point.
    """
    if dim >= 3 and config.exponent > 2:
        raise ValueError(
            f"exp(-||x||_p/h) with p = {config.exponent} is not positive definite in "
            f"d = {dim}; use p <= 2 when d >= 3 (Koldobsky 1991; Zastavnyi 1991)")


def kernel_matrix(X, Y, config: KernelConfig) -> np.ndarray:
    """Cross-kernel matrix ``[k(x_i, y_j)]`` of shape (len(X), len(Y))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    if X.size == 0 or Y.size == 0:
        return np.zeros((X.shape[0], Y.shape[0]))
    return cross_kernel(X, Y, config)


def cross_kernel(X: np.ndarray, Y: np.ndarray, config: KernelConfig) -> np.ndarray:
    """:func:`kernel_matrix` of nonempty 2-D float arrays, unchecked.

    The exponential is taken in place on the distance matrix, so the result
    is the only array of its size that is allocated.
    """
    if X.shape[1] == 1:  # |x - y| is the distance for every p
        out = X - Y.T
        np.abs(out, out=out)
    else:
        from scipy.spatial.distance import cdist  # not loaded by 1-D runs
        out = cdist(X, Y, metric="minkowski", p=config.exponent)
    out /= -config.bandwidth
    return np.exp(out, out=out)


@functools.cache
def _dtrtrs():
    """LAPACK ``dtrtrs``, imported at the first kernel system that is solved."""
    from scipy.linalg.lapack import dtrtrs
    return dtrtrs


def _triangular_solve(chol: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """``L^{-1} b`` (``trans=1``) or ``L^{-T} b`` (``trans=0``) for the C-order
    lower-triangular factor ``L = chol``.

    LAPACK ``trtrs`` on the Fortran-order view ``chol.T``, as
    ``scipy.linalg``'s triangular solver calls it for such a factor, so the
    result is the same bit for bit; only ``b`` is checked to be finite.
    Raises LinAlgError where a diagonal entry is 0.
    """
    if np.count_nonzero(np.isfinite(b)) < b.size:
        raise ValueError("array must not contain infs or NaNs")
    x, info = _dtrtrs()(chol.T, b, lower=0, trans=trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def markov_1d(knots: np.ndarray, values: np.ndarray, x: np.ndarray,
              bandwidth: float) -> np.ndarray:
    """The 1-D ``p = 1`` interpolant at ``x`` from its ``values`` at sorted ``knots``.

    Knots at -inf and +inf with value 0 turn the two tails into intervals
    of the same formula.  ``ea = e^{-a} - 1`` and ``eb = e^{-b} - 1`` keep
    ``1 - e^{-2a} = -ea (2 + ea)`` accurate next to a knot.  Each point reads
    only the two knots of its interval: O(m log L) for m points.
    """
    if len(knots) == 2:  # no finite knot: f == 0
        return np.zeros(len(x))
    h = bandwidth
    # Beyond 750 h from every knot each kernel term underflows to 0, as the
    # dense path's do; clipping there keeps infinite queries finite.
    x = np.clip(x, knots[1] - 750.0 * h, knots[-2] + 750.0 * h)
    j = np.searchsorted(knots[:-1], x, side="right") - 1  # NaN: the last interval
    left, right = knots[j], knots[j + 1]
    # Knots closer than 1e-150 h would put subnormal numbers into the
    # formula.  The states' Schur floor keeps their knots about 5e-13 h
    # apart, but fit can hold such knots: with equal labels, rounding can let
    # the Cholesky factorization of two nearly equal rows through (0 and
    # 5e-324 after a point at 0.75, h = 0.5).  f moves by at most
    # ||alpha||_1 * gap / h across such an interval, so it takes the value of
    # its left knot there.
    gap = (right - left) / h
    narrow = gap < 1e-150
    scale = np.expm1(-2.0 * np.where(narrow, 1.0, gap))  # e^{-2(a+b)} - 1
    ea = np.expm1((left - x) / h)
    eb = np.expm1((x - right) / h)
    f = values[j] / scale * (1.0 + ea) * eb * (2.0 + eb)
    f += values[j + 1] / scale * (1.0 + eb) * ea * (2.0 + ea)
    if narrow.any():
        f[narrow] = values[j[narrow]]
    return f


class KernelInterpolator:
    """Minimum-norm kernel interpolant of a :class:`LabeledSet`.

    Instances are created by :func:`fit`, :func:`augmented_fit`, or
    :meth:`KernelInterpolator.empty`; the constructor is internal.  The empty
    model represents ``f == 0`` with ``norm_sq == 0``.  A nonempty 1-D model
    with ``p = 1`` carries :func:`markov_1d`'s ``knots``: the labeled positions
    in increasing order between -inf and +inf, and their labels between 0 and 0.
    """

    def __init__(self, base: LabeledSet, config: KernelConfig, chol: np.ndarray,
                 coefficients: np.ndarray, norm_sq: float, half_labels: np.ndarray,
                 knots: tuple[np.ndarray, np.ndarray] | None = None):
        self.base = base
        self.config = config
        self._chol = chol  # lower-triangular factor of K
        self._half_labels = half_labels  # L^{-1} y, so f(u) = (L^{-1} a_u) @ it
        self._knots = knots
        self.coefficients = coefficients
        self.norm_sq = float(norm_sq)

    @classmethod
    def empty(cls, config: KernelConfig, dim: int = 1) -> "KernelInterpolator":
        """The zero interpolant of an empty labeled set (``f == 0``)."""
        base = LabeledSet(np.empty((0, dim)), np.empty(0, dtype=int))
        return cls(base, config, np.empty((0, 0)), np.empty(0), 0.0, np.empty(0))

    def __len__(self) -> int:
        return len(self.base)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Apply ``K^{-1}`` to the columns of ``B``."""
        if len(self) == 0:
            return np.zeros_like(B)
        W = _triangular_solve(self._chol, B, trans=1)
        return _triangular_solve(self._chol, W, trans=0)

    def half_solve(self, B: np.ndarray) -> np.ndarray:
        """Apply ``L^{-1}`` where ``K = L L^T``."""
        return _triangular_solve(self._chol, B, trans=1)

    def predict(self, X, cross: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the interpolant at each row of ``X``.

        1-D models with ``p = 1`` use the closed form in the module docstring
        (:func:`markov_1d`); the rest evaluate ``kernel_matrix(X, X_L) @ coefficients``.
        A caller that has that len(X)-by-L matrix, the labeled points in label
        order, passes it as ``cross`` and no kernel entry is evaluated; the
        closed form does not read it.  A ``cross`` of another shape raises
        ValueError.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if cross is not None and cross.shape != (len(X), len(self)):
            raise ValueError(f"cross has shape {cross.shape}, expected {(len(X), len(self))}")
        if len(self) == 0:
            return np.zeros(X.shape[0])
        if self._knots is not None and X.shape[1] == 1:
            return markov_1d(*self._knots, X[:, 0], self.config.bandwidth)
        if cross is None:
            cross = kernel_matrix(X, self.base.points, self.config)
        return cross @ self.coefficients


def fit(labeled: LabeledSet, config: KernelConfig) -> KernelInterpolator:
    """Fit the minimum-norm interpolant of a nonempty labeled set.

    Solves ``K alpha = y`` by one Cholesky factorization; the solve is
    accepted when ``max|K alpha - y| <= 1e-8``.

    Raises
    ------
    ValueError
        If the labeled set is empty (use :meth:`KernelInterpolator.empty`), or
        if the kernel is not positive definite in its dimension
        (:func:`require_positive_definite`).
    ConditioningError
        If ``K`` does not factor or the solve misses the residual bound.
    """
    if len(labeled) == 0:
        raise ValueError("fit requires a nonempty labeled set")
    require_positive_definite(labeled.dim, config)
    K = kernel_matrix(labeled.points, labeled.points, config)
    y = labeled.labels.astype(float)
    try:
        chol = np.linalg.cholesky(K)
        half_labels = _triangular_solve(chol, y, trans=1)
        alpha = _triangular_solve(chol, half_labels, trans=0)
        solved = np.max(np.abs(K @ alpha - y)) <= SOLVE_RESIDUAL_TOL
    except np.linalg.LinAlgError:
        solved = False
    if not solved:
        raise ConditioningError("kernel matrix is numerically singular",
                                condition=float(np.linalg.cond(K)))
    knots = None
    if labeled.dim == 1 and config.exponent == 1:
        order = np.argsort(labeled.points[:, 0])
        knots = (np.concatenate([[-np.inf], labeled.points[order, 0], [np.inf]]),
                 np.concatenate([[0.0], y[order], [0.0]]))
    return KernelInterpolator(labeled, config, chol, alpha, float(y @ alpha), half_labels,
                              knots)


def augmented_fit(model: KernelInterpolator, u, t: int,
                  row: np.ndarray | None = None) -> KernelInterpolator:
    """Fit of the model's labeled set extended by ``(u, t)``.

    Equivalent to refitting from scratch on the augmented set, but performed
    in O(L^2) by extending the Cholesky factor.  The squared norm grows by
    exactly ``(1 - t*f(u))^2 / (1 - a_u^T K^{-1} a_u)``.  ``row`` is
    ``a_u = [k(u, x_i)]_i`` in label order when the caller has it; else it is
    evaluated here.

    Raises
    ------
    DuplicatePointError
        If ``u`` coincides with a labeled point, or its Schur complement
        falls below ``1e-12`` (numerically indistinguishable from one).
    ValueError
        If ``row`` does not hold one entry per labeled point.
    """
    base = model.base.append(u, t)  # checks the label, the dimension and exact repeats
    if row is not None and np.shape(row) != (len(model),):
        raise ValueError(f"row has shape {np.shape(row)}, expected {(len(model),)}")
    if len(model) == 0:
        return fit(base, model.config)
    if row is None:
        row = cross_kernel(base.points[-1:], model.base.points, model.config)[0]
    w = model.half_solve(row)
    schur = 1.0 - w @ w
    if schur < SCHUR_FLOOR:
        raise DuplicatePointError(
            "candidate is numerically indistinguishable from a labeled point"
        )
    f_u = w @ model._half_labels

    L = model._chol
    n = len(model)
    chol = np.empty((n + 1, n + 1))
    chol[:n, :n] = L  # with its zeros above the diagonal
    chol[:n, n] = 0.0
    chol[n, :n] = w
    chol[n, n] = np.sqrt(schur)

    gamma = (t - f_u) / schur
    coeff = np.empty(n + 1)
    coeff[:n] = model.coefficients - gamma * _triangular_solve(L, w, trans=0)
    coeff[n] = gamma
    norm_sq = model.norm_sq + (1.0 - t * f_u) ** 2 / schur
    half_labels = np.append(model._half_labels, (t - f_u) / chol[n, n])
    knots = model._knots
    if knots is not None:  # the new knot at its place among the sorted ones
        x = base.points[-1, 0]
        positions, values = knots
        j = positions.searchsorted(x)
        knots = (np.concatenate([positions[:j], [x], positions[j:]]),
                 np.concatenate([values[:j], [t], values[j:]]))
    return KernelInterpolator(base, model.config, chol, coeff, norm_sq, half_labels, knots)
