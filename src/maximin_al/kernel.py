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
the values ``v = f(X_L) = y - jitter * alpha`` at the two ends fix ``f``
there.  With ``a = (x - x_j)/h`` and ``b = (x_{j+1} - x)/h``,

    f(x) = [v_j e^{-a} (1 - e^{-2b}) + v_{j+1} e^{-b} (1 - e^{-2a})] / (1 - e^{-2(a+b)}),

and beyond the outermost labeled points ``f`` decays as ``v e^{-|x - x_end|/h}``.
:meth:`KernelInterpolator.predict` evaluates this in O(n log L) with two
``expm1`` per point instead of the n-by-L kernel matrix; every other case
takes the dense path.  The same rule gives 1-D ``p = 1`` runs the closed-form
:class:`~maximin_al.scoring.IntervalState`; all others the generic ``ScoringState``.

Runs score from those states; a model grown by :func:`augmented_fit` gives
``f`` to random runs and to those with d > 1 or p != 1, and :func:`fit` is the
acceptance checks' oracle.  SciPy is imported only where a kernel system is
factored or solved (:func:`fit`, :func:`augmented_fit` and the model's solves)
and where distances in d > 1 are taken, so importing the package, and the
1-D states, load none of it.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import ConditioningError, DuplicatePointError

_log = logging.getLogger(__name__)

# Escalating diagonal jitter used before declaring the system singular.
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

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
        Pairwise-distinct feature vectors.  A 1-D array is treated as n
        points in one dimension.
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

        Only the new row is checked (its dimension, its label, and that no
        labeled row equals it); the existing rows were checked when they came in.
        """
        point = np.asarray(point, dtype=float).reshape(1, -1)
        if len(self) and point.shape[1] != self.dim:
            raise ValueError(f"point has dimension {point.shape[1]}, expected {self.dim}")
        if label not in (-1, 1):
            raise ValueError("labels must be +1 or -1")
        if len(self) and np.any(np.all(self._points == point, axis=1)):
            raise DuplicatePointError("labeled points must be pairwise distinct")
        out = LabeledSet.__new__(LabeledSet)
        out._assign(np.vstack([self._points, point]) if len(self) else point.copy(),
                    np.append(self._labels, int(label)))
        return out


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


def markov_1d(knots: np.ndarray, values: np.ndarray, x: np.ndarray,
              bandwidth: float) -> np.ndarray:
    """The 1-D ``p = 1`` interpolant at ``x`` from its ``values`` at sorted ``knots``.

    Knots at -inf and +inf with value 0 turn the two tails into intervals
    of the same formula.  ``ea = e^{-a} - 1`` and ``eb = e^{-b} - 1`` keep
    ``1 - e^{-2a} = -ea (2 + ea)`` accurate next to a knot.
    """
    if len(knots) == 2:  # no finite knot: f == 0
        return np.zeros(len(x))
    h = bandwidth
    # Beyond 750 h from every knot each kernel term underflows to 0, as the
    # dense path's do; clipping there keeps infinite queries finite.
    x = np.clip(x, knots[1] - 750.0 * h, knots[-2] + 750.0 * h)
    # Knots closer than 1e-150 h (only a jittered fit has them) would put
    # subnormal numbers into the formula.  f moves by at most
    # ||alpha||_1 * gap / h across such an interval, so it takes the value
    # of its left knot there.
    gap = np.diff(knots) / h
    narrow = gap < 1e-150
    scale = np.expm1(-2.0 * np.where(narrow, 1.0, gap))  # e^{-2(a+b)} - 1
    j = np.searchsorted(knots[:-1], x, side="right") - 1  # NaN: the last interval
    ea = np.expm1((knots[j] - x) / h)
    eb = np.expm1((x - knots[j + 1]) / h)
    f = (values[:-1] / scale)[j] * (1.0 + ea) * eb * (2.0 + eb)
    f += (values[1:] / scale)[j] * (1.0 + eb) * ea * (2.0 + ea)
    if narrow.any():
        at = narrow[j]
        f[at] = values[j[at]]
    return f


class KernelInterpolator:
    """Minimum-norm kernel interpolant of a :class:`LabeledSet`.

    Instances are created by :func:`fit`, :func:`augmented_fit`, or
    :meth:`KernelInterpolator.empty`; the constructor is internal.  The empty
    model represents ``f == 0`` with ``norm_sq == 0``.
    """

    def __init__(self, base: LabeledSet, config: KernelConfig, chol: np.ndarray,
                 coefficients: np.ndarray, norm_sq: float, jitter: float,
                 half_labels: np.ndarray):
        self.base = base
        self.config = config
        self.jitter = jitter
        self._chol = chol  # lower-triangular factor of K + jitter * I
        self._half_labels = half_labels  # L^{-1} y, so f(u) = (L^{-1} a_u) @ it
        self.coefficients = coefficients
        self.norm_sq = float(norm_sq)

    @classmethod
    def empty(cls, config: KernelConfig, dim: int = 1) -> "KernelInterpolator":
        """The zero interpolant of an empty labeled set (``f == 0``)."""
        base = LabeledSet(np.empty((0, dim)), np.empty(0, dtype=int))
        return cls(base, config, np.empty((0, 0)), np.empty(0), 0.0, 0.0, np.empty(0))

    def __len__(self) -> int:
        return len(self.base)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Apply ``(K + jitter*I)^{-1}`` to the columns of ``B``."""
        if len(self) == 0:
            return np.zeros_like(B)
        from scipy.linalg import solve_triangular
        W = solve_triangular(self._chol, B, lower=True)
        return solve_triangular(self._chol.T, W, lower=False)

    def half_solve(self, B: np.ndarray) -> np.ndarray:
        """Apply ``L^{-1}`` where ``K + jitter*I = L L^T``."""
        from scipy.linalg import solve_triangular
        return solve_triangular(self._chol, B, lower=True)

    def predict(self, X) -> np.ndarray:
        """Evaluate the interpolant at each row of ``X``.

        1-D models with ``p = 1`` use the closed form in the module docstring
        (:func:`markov_1d`); the rest evaluate ``kernel_matrix(X, X_L) @ coefficients``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if len(self) == 0:
            return np.zeros(X.shape[0])
        if X.shape[1] == self.base.dim == 1 and self.config.exponent == 1:
            order = np.argsort(self.base.points[:, 0])
            knots = np.concatenate([[-np.inf], self.base.points[order, 0], [np.inf]])
            values = np.concatenate(
                [[0.0], (self.base.labels - self.jitter * self.coefficients)[order], [0.0]])
            return markov_1d(knots, values, X[:, 0], self.config.bandwidth)
        return kernel_matrix(X, self.base.points, self.config) @ self.coefficients


def fit(labeled: LabeledSet, config: KernelConfig) -> KernelInterpolator:
    """Fit the minimum-norm interpolant of a nonempty labeled set.

    Solves ``(K + jitter*I) alpha = y`` by Cholesky factorization with the
    escalating jitter ladder; the accepted solve satisfies
    ``max|K alpha - y| <= 1e-8``.

    Raises
    ------
    ValueError
        If the labeled set is empty (use :meth:`KernelInterpolator.empty`), or
        if the kernel is not positive definite in its dimension
        (:func:`require_positive_definite`).
    ConditioningError
        If no jitter level yields an acceptable factorization.
    """
    from scipy.linalg import solve_triangular  # loaded only to factor a kernel system

    if len(labeled) == 0:
        raise ValueError("fit requires a nonempty labeled set")
    require_positive_definite(labeled.dim, config)
    K = kernel_matrix(labeled.points, labeled.points, config)
    y = labeled.labels.astype(float)
    last_cond = None
    for jitter in JITTER_LADDER:
        if jitter:
            _log.debug("fit: escalating the diagonal jitter to %g on %d labels",
                       jitter, len(K))
        Kj = K + jitter * np.eye(len(K)) if jitter else K
        try:
            chol = np.linalg.cholesky(Kj)
        except np.linalg.LinAlgError:
            last_cond = float(np.linalg.cond(Kj))
            continue
        half_labels = solve_triangular(chol, y, lower=True)
        alpha = solve_triangular(chol.T, half_labels, lower=False)
        # Gate on the residual of the *unjittered* system: jitter may buy a
        # factorization, but the result must still interpolate the labels.
        if np.max(np.abs(K @ alpha - y)) <= SOLVE_RESIDUAL_TOL:
            return KernelInterpolator(labeled, config, chol, alpha,
                                      float(y @ alpha), jitter, half_labels)
        last_cond = float(np.linalg.cond(Kj))
    raise ConditioningError(
        "kernel system solve failed beyond the jitter budget",
        condition=last_cond if last_cond is not None else float(np.linalg.cond(K)),
    )


def augmented_fit(model: KernelInterpolator, u, t: int) -> KernelInterpolator:
    """Fit of the model's labeled set extended by ``(u, t)``.

    Equivalent to refitting from scratch on the augmented set (same jitter),
    but performed in O(L^2) by extending the Cholesky factor.  The squared
    norm grows by exactly ``(1 - t*f(u))^2 / (1 - a_u^T K^{-1} a_u)``.

    Raises
    ------
    DuplicatePointError
        If ``u`` coincides with a labeled point, or its Schur complement
        falls below ``1e-12`` (numerically indistinguishable from one).
    """
    base = model.base.append(u, t)  # checks the label, the dimension and exact repeats
    if len(model) == 0:
        return fit(base, model.config)
    from scipy.linalg import solve_triangular

    a = kernel_matrix(base.points[-1:], model.base.points, model.config)[0]
    w = model.half_solve(a)
    schur = 1.0 + model.jitter - w @ w
    if schur < SCHUR_FLOOR:
        raise DuplicatePointError(
            "candidate is numerically indistinguishable from a labeled point"
        )
    f_u = w @ model._half_labels

    L = model._chol
    n = len(model)
    chol = np.zeros((n + 1, n + 1))
    chol[:n, :n] = L
    chol[n, :n] = w
    chol[n, n] = np.sqrt(schur)

    gamma = (t - f_u) / schur
    coeff = np.empty(n + 1)
    coeff[:n] = model.coefficients - gamma * solve_triangular(L.T, w, lower=False)
    coeff[n] = gamma
    norm_sq = model.norm_sq + (1.0 - t * f_u) ** 2 / schur
    half_labels = np.append(model._half_labels, (t - f_u) / chol[n, n])
    return KernelInterpolator(base, model.config, chol, coeff, norm_sq, model.jitter,
                              half_labels)
