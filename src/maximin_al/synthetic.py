"""Synthetic binary-classification tasks: 1-D thresholds and lp-ball clusters.

Generators are pure functions of (spec, seed): identical inputs give
bit-identical outputs through ``numpy.random.default_rng``.  Each returns its
points and their hidden labels as a :class:`TaskSample` of plain arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

# Jitter half-width for threshold placement, as a fraction of the piece length.
CUT_JITTER = 0.25


@dataclass(frozen=True)
class TaskSample:
    """A task's points, of shape (n, d), and their hidden +-1 labels, of shape (n,)."""

    points: np.ndarray
    hidden_labels: np.ndarray


@dataclass(frozen=True)
class ThresholdTask1D:
    """Piecewise-constant labeling of [0, 1] with ``k`` alternating pieces.

    ``thresholds`` holds the ``k - 1`` sorted cut positions; ``first_label``
    is the label of the leftmost piece.  Piece lengths stay within
    ``[(1 - 2*0.25)/k, (1 + 2*0.25)/k]`` by construction.
    """

    k: int
    thresholds: np.ndarray
    first_label: int

    def oracle(self, x) -> np.ndarray:
        """True labels: alternate across the cuts, starting at ``first_label``."""
        x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        piece = np.searchsorted(self.thresholds, x)
        return self.first_label * np.where(piece % 2 == 0, 1, -1)


def gen_threshold_task(n: int, k: int, seed) -> tuple[ThresholdTask1D, TaskSample]:
    """Sample a threshold task and its pool of points, of shape (n, 1).

    ``n`` points are drawn uniformly on [0, 1] (resampled to be pairwise
    distinct); cut ``i`` sits at ``(i + U(-0.25, 0.25))/k`` for i = 1..k-1, so
    every piece is at least ``0.5/k`` long.  ``k = 1`` yields the constant
    labeling.  Requires ``1 <= k <= n``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"need at least k={k} points, got n={n}")
    rng = np.random.default_rng(seed)
    cuts = (np.arange(1, k) + rng.uniform(-CUT_JITTER, CUT_JITTER, size=k - 1)) / k
    first = 1 if rng.random() < 0.5 else -1
    task = ThresholdTask1D(k, cuts, first)
    points = rng.uniform(0.0, 1.0, size=n)
    while len(np.unique(points)) != n:  # pragma: no cover - measure-zero event
        points = rng.uniform(0.0, 1.0, size=n)
    return task, TaskSample(points[:, None], task.oracle(points))


@dataclass(frozen=True)
class ClusterSpec:
    """Disjoint lp balls with constant labels and per-ball sample counts.

    Parameters
    ----------
    centers : ndarray of shape (M, d)
    radii, labels, counts : arrays of shape (M,)
    p : float
        Minkowski order of the balls (and of the kernel meant to run on them).

    Counts must be integers and ``p`` a real number (not booleans or strings).
    """

    centers: np.ndarray
    radii: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    p: float = 2.0

    def __init__(self, centers, radii, labels, counts, p=2.0):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(radii, dtype=float).ravel()
        labels = np.asarray(labels)
        counts = np.asarray(counts)
        M = len(centers)
        if not (len(radii) == len(labels) == len(counts) == M):
            raise ValueError("centers, radii, labels, counts must have equal length")
        if np.any(radii <= 0):
            raise ValueError("radii must be positive")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        if counts.dtype.kind not in "iu" or np.any(counts < 1):
            raise ValueError(f"counts must be integers of at least 1, got {counts.tolist()}")
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not p >= 1:
            raise ValueError(f"p must be a real number of at least 1, got {p!r}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "labels", labels.astype(int))
        object.__setattr__(self, "counts", counts.astype(int))
        object.__setattr__(self, "p", float(p))
        if M > 1 and self.separation <= 0:
            raise ValueError("balls must be pairwise disjoint (separation > 0)")

    @property
    def n_balls(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def separation(self) -> float:
        """Worst-case gap between ball surfaces: min center distance - 2 max radius."""
        if self.n_balls == 1:
            return float("inf")
        diff = self.centers[:, None, :] - self.centers[None, :, :]
        dist = np.linalg.norm(diff.reshape(-1, self.dim), ord=self.p, axis=1)
        dist = dist.reshape(self.n_balls, self.n_balls)
        off = dist[~np.eye(self.n_balls, dtype=bool)]
        return float(off.min() - 2.0 * self.radii.max())

    def locate(self, points) -> np.ndarray:
        """Ball index of each point (-1 if outside every ball)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(len(points), -1)
        for i in range(self.n_balls):
            dist = np.linalg.norm(points - self.centers[i], ord=self.p, axis=1)
            out[dist <= self.radii[i]] = i
        return out


def _sample_ball(rng: np.random.Generator, center, radius, p, count, dim):
    """Uniform draws from one lp ball by rejection from its bounding box."""
    out = np.empty((count, dim))
    filled = 0
    while filled < count:
        cand = rng.uniform(-radius, radius, size=(max(count, 16), dim))
        keep = cand[np.linalg.norm(cand, ord=p, axis=1) <= radius]
        take = min(len(keep), count - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return center + out


def gen_clusters(spec: ClusterSpec, seed) -> TaskSample:
    """Sample ``counts[i]`` points uniformly from each ball, labels attached."""
    rng = np.random.default_rng(seed)
    blocks = [
        _sample_ball(rng, spec.centers[i], spec.radii[i], spec.p,
                     int(spec.counts[i]), spec.dim)
        for i in range(spec.n_balls)
    ]
    return TaskSample(np.vstack(blocks), np.repeat(spec.labels, spec.counts))


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of checking a cluster layout against a guarantee's hypotheses."""

    ok: bool
    checks: tuple[RegimeCheck, ...] = field(default_factory=tuple)


def validate_theorem_regime(spec: ClusterSpec, bandwidth: float,
                            which: str) -> RegimeReport:
    """Check the hypotheses of one of the cluster selection guarantees.

    ``which = "first_point"``: with no labels yet, the data-based score picks
    the largest ball first provided ``r1 <= h/2`` and the separation exceeds
    ``(h/2) * (ln M - ln(1 - (r2/r1)^d))`` (r1, r2 the two largest radii;
    degenerate when r2 == r1).

    ``which = "cluster_explore"``: with at most one labeled point per ball,
    the data-based score lands in an unlabeled ball provided ``r < h/3`` and
    the separation is at least ``12 h ln(2M)``.

    Margins are (requirement - actual) style signed slacks: positive means
    satisfied with room, and ``ok`` is the conjunction.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    M, d = spec.n_balls, spec.dim
    D = spec.separation
    radii = np.sort(spec.radii)[::-1]
    checks: list[RegimeCheck] = []
    if which == "first_point":
        r1 = radii[0]
        r2 = radii[1] if M > 1 else 0.0
        checks.append(RegimeCheck("r1 <= h/2", r1 <= bandwidth / 2,
                                  bandwidth / 2 - r1))
        if r2 >= r1 and M > 1:
            checks.append(RegimeCheck("r2 < r1", False, r2 - r1))
        else:
            bound = 0.5 * bandwidth * (np.log(M) - np.log1p(-(r2 / r1) ** d))
            checks.append(RegimeCheck("separation bound", D > bound, D - bound))
    elif which == "cluster_explore":
        r = radii[0]
        checks.append(RegimeCheck("r < h/3", r < bandwidth / 3, bandwidth / 3 - r))
        bound = 12.0 * bandwidth * np.log(2 * M)
        checks.append(RegimeCheck("separation bound", D >= bound, D - bound))
    else:
        raise ValueError(f"unknown regime {which!r}")
    return RegimeReport(all(c.satisfied for c in checks), tuple(checks))
