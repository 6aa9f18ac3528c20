"""Closed forms of the p = 1 kernel on sorted 1-D points, as test oracles.

For sorted positions ``x_1 < ... < x_n`` with labels ``y_i`` and gap factors
``d_i = exp(-(x_{i+1} - x_i)/h)``, ``K_ij = exp(-|x_i - x_j|/h)`` is the
product of the gap factors between i and j (the Ornstein-Uhlenbeck process is
Markov), so ``K^{-1}`` is tridiagonal:

    (K^{-1})_{i,i+1} = -d_i / (1 - d_i^2),
    (K^{-1})_{ii} = 1/(1 - d_{i-1}^2) + 1/(1 - d_i^2) - 1,

where an end point keeps only its one neighbour term and a single point gives
``[1]``.  With ``y_i^2 = 1`` the squared interpolant norm ``y^T K^{-1} y``
collects, per gap, ``(2 - 2 s_i d_i) / (1 - d_i^2)`` with
``s_i = y_i y_{i+1}``, which is ``2/(1 + s_i d_i)`` for either sign, and
``-1`` per interior point:

    ||f||^2 = -(n - 2) + 2 sum_i 1/(1 + y_i y_{i+1} d_i).

A candidate ``u`` inside ``(x_j, x_{j+1})`` with label ``t`` replaces gap j's
term by two, with ``e_l = exp(-(u - x_j)/h)``, ``e_r = exp(-(x_{j+1} - u)/h)``
and ``e_l e_r = d_j``:

    ||f_t^u||^2 = ||f||^2 - 1 - 2/(1 + s_j d_j)
                  + 2/(1 + t y_j e_l) + 2/(1 + t y_{j+1} e_r).

The function-norm score is the smaller of the two labels' norms.  Its maximum
over the interval sits at the midpoint, where ``e_l = e_r = sqrt(d_j)``:

* Opposite labels: the branch ``t = y_j`` increases in u and the branch
  ``t = y_{j+1}`` is its mirror image, so their minimum peaks where they
  cross, at the midpoint, with value ``||f||^2 - 1 + 2/(1 - d_j)``.  This
  decreases in the gap.
* Equal labels ``y``: ``t = y`` is the smaller branch, and with
  ``e_l = a e^s``, ``e_r = a e^{-s}``, ``a = sqrt(d_j)``, it equals
  ``2 (2 + c)/(1 + a^2 + c)`` for ``c = a (e^s + e^{-s}) >= 2a``.  That
  decreases in c, so it peaks at ``s = 0`` with value
  ``||f||^2 - 1 - 2/(1 + d_j) + 4/(1 + sqrt(d_j))``.  This increases in the
  gap.

Both interval terms tend to 2 as the gap grows, the opposite one from above
and the equal one from below, so an opposite-label interval's maximum is
never below an equal-label one's.  The run loop's 1-D p = 1 paths
(``kernel.markov_1d``, ``scoring.IntervalState``) rest on the same Markov
structure, written from the interval endpoint values.

Oracle strategy: dense solves and inverses of the explicitly built kernel
matrix, plus comparison with the Cholesky-based ``fit`` / ``augmented_fit`` /
``select_next``, so the closed forms and the generic path vouch for each other.
"""

import numpy as np
import pytest

from maximin_al.kernel import KernelConfig, LabeledSet, augmented_fit, fit
from maximin_al.scoring import ScoreKind, select_next


def gap_factors(x, h) -> np.ndarray:
    return np.exp(-np.diff(x) / h)


def tridiagonal_inverse(x, h) -> np.ndarray:
    """``K^{-1}`` from its closed-form tridiagonal entries, as a dense matrix."""
    n = len(x)
    if n == 1:
        return np.ones((1, 1))
    d = gap_factors(x, h)
    inv = 1.0 / (1.0 - d ** 2)
    diag = np.empty(n)
    diag[0], diag[-1] = inv[0], inv[-1]
    diag[1:-1] = inv[:-1] + inv[1:] - 1.0
    off = -d * inv
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def norm_closed_form(x, y, h) -> float:
    """Squared interpolant norm ``-(n-2) + 2 sum_i 1/(1 + y_i y_{i+1} d_i)``."""
    yy = np.asarray(y[:-1] * y[1:], dtype=float)
    return float(-(len(y) - 2) + 2.0 * np.sum(1.0 / (1.0 + yy * gap_factors(x, h))))


def interpolant_coefficients(x, y, h) -> np.ndarray:
    """Representer coefficients ``alpha = K^{-1} y`` in closed form.

    Interior coefficients are
    ``y_i * [1/(1 + y_i y_{i-1} d_{i-1}) + 1/(1 + y_i y_{i+1} d_i) - 1]``;
    the endpoints keep only their single neighbour term.
    """
    y = np.asarray(y, dtype=float)
    if len(y) == 1:
        return y.copy()
    shared = 1.0 / (1.0 + y[1:] * y[:-1] * gap_factors(x, h))  # one term per gap
    coeff = np.empty(len(y))
    coeff[0] = y[0] * shared[0]
    coeff[-1] = y[-1] * shared[-1]
    coeff[1:-1] = y[1:-1] * (shared[:-1] + shared[1:] - 1.0)
    return coeff


def interval_max_score(x, y, h, j) -> tuple[float, float]:
    """Maximizer and maximum of the function-norm score over interval ``j``.

    The maximizer is the midpoint and the maximum is ``||f||^2 - 1
    - 2/(1 + y_j y_{j+1} d_j) + 2/(1 + sqrt(d_j)) + 2/(1 + y_j y_{j+1} sqrt(d_j))``.
    """
    d = gap_factors(x, h)[j]
    yy = float(y[j] * y[j + 1])
    root = np.sqrt(d)
    score = (norm_closed_form(x, y, h) - 1.0 - 2.0 / (1.0 + yy * d)
             + 2.0 / (1.0 + root) + 2.0 / (1.0 + yy * root))
    return float(0.5 * (x[j] + x[j + 1])), float(score)


def best_interval(x, y, h) -> int:
    """Interval whose midpoint attains the global function-norm maximum.

    Exact score ties go to the lowest interval index.
    """
    if len(x) < 2:
        raise ValueError("need at least two labeled points to form an interval")
    return int(np.argmax([interval_max_score(x, y, h, j)[1] for j in range(len(x) - 1)]))


def evaluate_closed_form(x, y, h, xs) -> np.ndarray:
    """Interpolant values ``sum_i alpha_i exp(-|xs - x_i|/h)`` at ``xs``."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return np.exp(-np.abs(xs[:, None] - x[None, :]) / h) @ interpolant_coefficients(x, y, h)


def augmented_norms(x, y, h, j, u) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms after inserting ``(u, +1)`` and ``(u, -1)`` into interval ``j``.

    Returns the pair ``(plus, minus)`` as arrays matching ``u``.
    """
    if not 0 <= j < len(x) - 1:
        raise ValueError(f"interval index {j} out of range for {len(x)} points")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xl, xr = x[j], x[j + 1]
    if np.any((u <= xl) | (u >= xr)):
        raise ValueError("u must lie strictly inside the interval")
    yl, yr = float(y[j]), float(y[j + 1])
    base = norm_closed_form(x, y, h) - 1.0 - 2.0 / (1.0 + yl * yr * gap_factors(x, h)[j])
    el = np.exp(-(u - xl) / h)
    er = np.exp(-(xr - u) / h)
    plus = base + 2.0 / (1.0 + yl * el) + 2.0 / (1.0 + yr * er)
    minus = base + 2.0 / (1.0 - yl * el) + 2.0 / (1.0 - yr * er)
    return plus, minus


def random_sorted(rng, max_n=20):
    """Sorted positions at least 1e-3 apart, +-1 labels and a bandwidth."""
    n = int(rng.integers(1, max_n + 1))
    x = np.sort(rng.uniform(0.0, 4.0, size=n))
    while np.any(np.diff(x) < 1e-3):
        x = np.sort(rng.uniform(0.0, 4.0, size=n))
    y = rng.choice([-1, 1], size=n)
    return x, y, float(rng.uniform(0.2, 1.5))


def dense_kernel(x, h) -> np.ndarray:
    return np.exp(-np.abs(x[:, None] - x[None, :]) / h)


def generic_fit(x, y, h):
    return fit(LabeledSet(x, y), KernelConfig(h, 1.0))


class TestTridiagonalInverse:
    def test_single_point(self):
        assert np.array_equal(tridiagonal_inverse(np.array([0.3]), 1.0), [[1.0]])

    def test_three_point_middle_diagonal(self):
        x, h = np.array([0.0, 1.0, 2.5]), 0.8
        d1, d2 = gap_factors(x, h)
        want = 1.0 / (1.0 - d1 ** 2) + 1.0 / (1.0 - d2 ** 2) - 1.0
        assert tridiagonal_inverse(x, h)[1, 1] == pytest.approx(want, rel=1e-14)

    def test_off_diagonal_formula(self):
        x, h = np.array([0.0, 0.7]), 0.5
        d = np.exp(-0.7 / 0.5)
        assert tridiagonal_inverse(x, h)[0, 1] == pytest.approx(-d / (1.0 - d ** 2),
                                                               rel=1e-14)

    def test_product_with_kernel_is_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, _, h = random_sorted(rng)
            product = dense_kernel(x, h) @ tridiagonal_inverse(x, h)
            assert np.max(np.abs(product - np.eye(len(x)))) <= 1e-9

    def test_far_entries_are_zero(self):
        M = tridiagonal_inverse(np.array([0.0, 1.0, 2.0, 3.0]), 1.0)
        i, j = np.indices(M.shape)
        assert np.all(M[np.abs(i - j) >= 2] == 0.0)


class TestNormClosedForm:
    def test_single_point_is_one(self):
        assert norm_closed_form(np.array([2.0]), np.array([1]), 0.5) == 1.0
        assert norm_closed_form(np.array([2.0]), np.array([-1]), 0.5) == 1.0

    def test_two_point_opposite(self):
        got = norm_closed_form(np.array([0.0, 1.2]), np.array([1, -1]), 0.6)
        assert got == pytest.approx(2.0 / (1.0 - np.exp(-1.2 / 0.6)), rel=1e-14)

    def test_against_dense_quadratic_form(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            x, y, h = random_sorted(rng)
            want = float(y @ np.linalg.solve(dense_kernel(x, h), y))
            assert norm_closed_form(x, y, h) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_against_generic_fit(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            x, y, h = random_sorted(rng)
            assert norm_closed_form(x, y, h) == pytest.approx(
                generic_fit(x, y, h).norm_sq, rel=1e-9, abs=1e-9)


class TestInterpolantClosedForm:
    def test_coefficients_against_dense_solve(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            x, y, h = random_sorted(rng)
            want = np.linalg.solve(dense_kernel(x, h), y.astype(float))
            np.testing.assert_allclose(interpolant_coefficients(x, y, h), want,
                                       rtol=1e-9, atol=1e-9)

    def test_evaluation_against_generic_model(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            x, y, h = random_sorted(rng)
            m = generic_fit(x, y, h)
            xs = rng.uniform(-1.0, 5.0, size=100)
            np.testing.assert_allclose(evaluate_closed_form(x, y, h, xs),
                                       m.predict(xs[:, None]), rtol=1e-9, atol=1e-9)

    def test_interpolates_labels(self):
        x, y, h = random_sorted(np.random.default_rng(36))
        np.testing.assert_allclose(evaluate_closed_form(x, y, h, x), y.astype(float),
                                   atol=1e-10)


class TestAugmentedNorms:
    def test_against_generic_augmented_fit(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            x, y, h = random_sorted(rng)
            if len(x) < 2:
                continue
            j = int(rng.integers(0, len(x) - 1))
            u = float(rng.uniform(x[j] + 1e-6, x[j + 1] - 1e-6))
            base = generic_fit(x, y, h)
            plus, minus = augmented_norms(x, y, h, j, u)
            assert plus[0] == pytest.approx(
                augmented_fit(base, [u], 1).norm_sq, rel=1e-9)
            assert minus[0] == pytest.approx(
                augmented_fit(base, [u], -1).norm_sq, rel=1e-9)

    def test_rejects_points_outside_interval(self):
        x, y = np.array([0.0, 1.0, 2.0]), np.array([1, -1, 1])
        with pytest.raises(ValueError):
            augmented_norms(x, y, 0.5, 0, [1.5])
        with pytest.raises(ValueError):
            augmented_norms(x, y, 0.5, 0, [0.0])
        with pytest.raises(ValueError):
            augmented_norms(x, y, 0.5, 5, [0.5])


class TestIntervalMaxScore:
    def test_isolated_opposite_pair_value(self):
        g, h = 1.3, 0.5
        maximizer, score = interval_max_score(np.array([0.0, g]), np.array([1, -1]), h, 0)
        assert maximizer == pytest.approx(g / 2)
        assert score == pytest.approx(4.0 / (1.0 - np.exp(-g / h)) - 1.0, rel=1e-12)

    def test_isolated_equal_pair_value(self):
        g, h = 1.3, 0.5
        maximizer, score = interval_max_score(np.array([0.0, g]), np.array([1, 1]), h, 0)
        assert maximizer == pytest.approx(g / 2)
        assert score == pytest.approx(4.0 / (1.0 + np.exp(-g / (2 * h))) - 1.0,
                                      rel=1e-12)

    def test_grid_search_confirms_midpoint_and_value(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            x, y, h = random_sorted(rng, max_n=8)
            if len(x) < 2:
                continue
            j = int(rng.integers(0, len(x) - 1))
            maximizer, score = interval_max_score(x, y, h, j)
            grid = np.linspace(x[j], x[j + 1], 10_001)[1:-1]
            vals = np.minimum(*augmented_norms(x, y, h, j, grid))
            k = int(np.argmax(vals))
            assert abs(grid[k] - maximizer) <= (grid[1] - grid[0]) + 1e-12
            assert vals[k] <= score + 1e-12
            assert vals[k] == pytest.approx(score, abs=1e-6)

    def test_opposite_decreasing_equal_increasing_in_gap(self):
        h = 0.6
        gaps = np.linspace(0.2, 3.0, 12)
        opp = [interval_max_score(np.array([0, g]), np.array([1, -1]), h, 0)[1]
               for g in gaps]
        same = [interval_max_score(np.array([0, g]), np.array([1, 1]), h, 0)[1]
                for g in gaps]
        assert np.all(np.diff(opp) < 0)
        assert np.all(np.diff(same) > 0)
        # every opposite-pair maximum dominates every equal-pair maximum
        assert min(opp) >= max(same)

    def test_mixed_configuration_orderings(self):
        rng = np.random.default_rng(39)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            x = np.sort(rng.uniform(0, 6, size=n))
            while np.any(np.diff(x) < 0.05):
                x = np.sort(rng.uniform(0, 6, size=n))
            y = rng.choice([-1, 1], size=n)
            h = float(rng.uniform(0.3, 1.0))
            scores = [interval_max_score(x, y, h, j)[1] for j in range(n - 1)]
            opp = [(x[j + 1] - x[j], v) for j, v in enumerate(scores) if y[j] != y[j + 1]]
            same = [(x[j + 1] - x[j], v) for j, v in enumerate(scores) if y[j] == y[j + 1]]
            for (g1, v1) in opp:  # narrower opposite gap scores higher
                for (g2, v2) in opp:
                    if g1 < g2 - 1e-12:
                        assert v1 > v2 - 1e-10
            for (g1, v1) in same:  # wider equal gap scores higher
                for (g2, v2) in same:
                    if g1 > g2 + 1e-12:
                        assert v1 > v2 - 1e-10
            if opp and same:  # any opposite interval dominates any equal one
                assert min(v for _, v in opp) >= max(v for _, v in same) - 1e-10


class TestBestInterval:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            best_interval(np.array([0.0]), np.array([1]), 1.0)

    def test_picks_narrowest_opposite_gap(self):
        x, y = np.array([0.0, 2.0, 2.5, 4.0]), np.array([1, -1, 1, -1])
        assert best_interval(x, y, 0.5) == 1  # gap 0.5 < gaps 2.0 and 1.5

    def test_all_equal_labels_picks_widest_gap(self):
        x, y = np.array([0.0, 0.5, 3.0, 3.2]), np.array([1, 1, 1, 1])
        assert best_interval(x, y, 0.5) == 1

    def test_matches_generic_selection_on_grid_pools(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            x, y, h = random_sorted(rng, max_n=6)
            if len(x) < 2:
                continue
            maximizer, _ = interval_max_score(x, y, h, best_interval(x, y, h))
            grid = np.linspace(x[0], x[-1], 4001)[1:-1]
            grid = grid[np.min(np.abs(grid[:, None] - x[None, :]), axis=1) > 1e-9]
            got = select_next(generic_fit(x, y, h), grid, ScoreKind.FUNCTION_NORM, 0)
            step = grid[1] - grid[0]
            assert abs(grid[got.index] - maximizer) <= step + 1e-12
