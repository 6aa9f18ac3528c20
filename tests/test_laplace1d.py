"""Closed-form sorted-1D machinery against dense linear algebra and the
generic scoring module.

Oracle strategy: dense solves/inverses of the explicitly built kernel matrix,
plus cross-module comparison with the Cholesky-based implementation, so the
closed forms and the generic path vouch for each other independently.
"""

import numpy as np
import pytest

from maximin_al.kernel import KernelConfig, LabeledSet, augmented_fit, fit
from maximin_al.laplace1d import (
    SortedLabeled1D,
    best_interval,
    interpolant_coefficients,
    interval_max_score,
    norm_closed_form,
    tridiagonal_inverse,
)
from maximin_al.scoring import ScoreKind, UnlabeledPool, select_next


# Two closed forms that only the tests use: the interpolant's values and the
# squared norms after one more label, both without a linear solve.
def evaluate_closed_form(s: SortedLabeled1D, x) -> np.ndarray:
    """Interpolant values ``sum_i alpha_i exp(-|x - x_i|/h)`` at ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    coeff = interpolant_coefficients(s)
    kernels = np.exp(-np.abs(x[:, None] - s.positions[None, :]) / s.bandwidth)
    return kernels @ coeff


def augmented_norms(s: SortedLabeled1D, j: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms after inserting ``(u, +1)`` and ``(u, -1)`` into interval ``j``.

    For ``x_j < u < x_{j+1}`` (0-based ``j``) and label ``t``:

        ||f_t^u||^2 = ||f||^2 - 1 - 2/(1 + y_j y_{j+1} d_j)
                      + 2/(1 + t y_j e^{-(u - x_j)/h})
                      + 2/(1 + t y_{j+1} e^{-(x_{j+1} - u)/h}).

    Returns the pair ``(plus, minus)`` as arrays matching ``u``.
    """
    n = len(s)
    if not 0 <= j < n - 1:
        raise ValueError(f"interval index {j} out of range for {n} points")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xl, xr = s.positions[j], s.positions[j + 1]
    if np.any((u <= xl) | (u >= xr)):
        raise ValueError("u must lie strictly inside the interval")
    yl, yr = float(s.labels[j]), float(s.labels[j + 1])
    base = norm_closed_form(s) - 1.0 - 2.0 / (1.0 + yl * yr * s.gap_factors[j])
    el = np.exp(-(u - xl) / s.bandwidth)
    er = np.exp(-(xr - u) / s.bandwidth)
    plus = base + 2.0 / (1.0 + yl * el) + 2.0 / (1.0 + yr * er)
    minus = base + 2.0 / (1.0 - yl * el) + 2.0 / (1.0 - yr * er)
    return plus, minus


def random_sorted(rng, max_n=20):
    n = int(rng.integers(1, max_n + 1))
    positions = np.sort(rng.uniform(0.0, 4.0, size=n))
    while np.any(np.diff(positions) < 1e-3):
        positions = np.sort(rng.uniform(0.0, 4.0, size=n))
    labels = rng.choice([-1, 1], size=n)
    h = float(rng.uniform(0.2, 1.5))
    return SortedLabeled1D(positions, labels, h)


def dense_kernel(s: SortedLabeled1D) -> np.ndarray:
    return np.exp(-np.abs(s.positions[:, None] - s.positions[None, :]) / s.bandwidth)


class TestSortedLabeled1D:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SortedLabeled1D([0.0, 2.0, 1.0], [1, 1, 1], 1.0)
        with pytest.raises(ValueError):
            SortedLabeled1D([0.0, 0.0], [1, 1], 1.0)

    def test_rejects_bad_labels_and_bandwidth(self):
        with pytest.raises(ValueError):
            SortedLabeled1D([0.0], [0], 1.0)
        with pytest.raises(ValueError):
            SortedLabeled1D([0.0], [1], 0.0)
        with pytest.raises(ValueError):
            SortedLabeled1D([], [], 1.0)

    def test_gap_factors_in_unit_interval(self):
        s = SortedLabeled1D([0.0, 0.5, 3.0], [1, -1, 1], 0.7)
        assert np.all((s.gap_factors > 0) & (s.gap_factors < 1))
        assert s.gap_factors[0] == pytest.approx(np.exp(-0.5 / 0.7), rel=1e-15)


class TestTridiagonalInverse:
    def test_single_point(self):
        s = SortedLabeled1D([0.3], [1], 1.0)
        entries = tridiagonal_inverse(s)
        assert np.array_equal(entries.to_dense(), [[1.0]])

    def test_three_point_middle_diagonal(self):
        s = SortedLabeled1D([0.0, 1.0, 2.5], [1, -1, 1], 0.8)
        d1, d2 = s.gap_factors
        entries = tridiagonal_inverse(s)
        want = 1.0 / (1.0 - d1 ** 2) + 1.0 / (1.0 - d2 ** 2) - 1.0
        assert entries.diag[1] == pytest.approx(want, rel=1e-14)

    def test_off_diagonal_formula(self):
        s = SortedLabeled1D([0.0, 0.7], [1, 1], 0.5)
        d = s.gap_factors[0]
        entries = tridiagonal_inverse(s)
        assert entries.offdiag[0] == pytest.approx(-d / (1.0 - d ** 2), rel=1e-14)

    def test_product_with_kernel_is_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = random_sorted(rng)
            product = dense_kernel(s) @ tridiagonal_inverse(s).to_dense()
            assert np.max(np.abs(product - np.eye(len(s)))) <= 1e-9

    def test_far_entries_are_zero(self):
        s = SortedLabeled1D([0.0, 1.0, 2.0, 3.0], [1, 1, -1, 1], 1.0)
        M = tridiagonal_inverse(s).to_dense()
        i, j = np.indices(M.shape)
        assert np.all(M[np.abs(i - j) >= 2] == 0.0)


class TestNormClosedForm:
    def test_single_point_is_one(self):
        assert norm_closed_form(SortedLabeled1D([2.0], [1], 0.5)) == 1.0
        assert norm_closed_form(SortedLabeled1D([2.0], [-1], 0.5)) == 1.0

    def test_two_point_opposite(self):
        s = SortedLabeled1D([0.0, 1.2], [1, -1], 0.6)
        want = 2.0 / (1.0 - np.exp(-1.2 / 0.6))
        assert norm_closed_form(s) == pytest.approx(want, rel=1e-14)

    def test_against_dense_quadratic_form(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            s = random_sorted(rng)
            y = s.labels.astype(float)
            want = float(y @ np.linalg.solve(dense_kernel(s), y))
            assert norm_closed_form(s) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_against_generic_fit(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            s = random_sorted(rng)
            m = fit(LabeledSet(s.positions, s.labels), KernelConfig(s.bandwidth, 1.0))
            assert norm_closed_form(s) == pytest.approx(m.norm_sq, rel=1e-9, abs=1e-9)


class TestInterpolantClosedForm:
    def test_coefficients_against_dense_solve(self):
        rng = np.random.default_rng(34)
        for _ in range(60):
            s = random_sorted(rng)
            want = np.linalg.solve(dense_kernel(s), s.labels.astype(float))
            np.testing.assert_allclose(interpolant_coefficients(s), want,
                                       rtol=1e-9, atol=1e-9)

    def test_evaluation_against_generic_model(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            s = random_sorted(rng)
            m = fit(LabeledSet(s.positions, s.labels), KernelConfig(s.bandwidth, 1.0))
            xs = rng.uniform(-1.0, 5.0, size=100)
            got = evaluate_closed_form(s, xs)
            want = m.predict(xs[:, None])
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_interpolates_labels(self):
        rng = np.random.default_rng(36)
        s = random_sorted(rng)
        got = evaluate_closed_form(s, s.positions)
        np.testing.assert_allclose(got, s.labels.astype(float), atol=1e-10)


class TestAugmentedNorms:
    def test_against_generic_augmented_fit(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            s = random_sorted(rng)
            if len(s) < 2:
                continue
            j = int(rng.integers(0, len(s) - 1))
            xl, xr = s.positions[j], s.positions[j + 1]
            u = float(rng.uniform(xl + 1e-6, xr - 1e-6))
            base = fit(LabeledSet(s.positions, s.labels), KernelConfig(s.bandwidth, 1.0))
            plus, minus = augmented_norms(s, j, u)
            assert plus[0] == pytest.approx(
                augmented_fit(base, [u], 1).norm_sq, rel=1e-9)
            assert minus[0] == pytest.approx(
                augmented_fit(base, [u], -1).norm_sq, rel=1e-9)

    def test_rejects_points_outside_interval(self):
        s = SortedLabeled1D([0.0, 1.0, 2.0], [1, -1, 1], 0.5)
        with pytest.raises(ValueError):
            augmented_norms(s, 0, [1.5])
        with pytest.raises(ValueError):
            augmented_norms(s, 0, [0.0])
        with pytest.raises(ValueError):
            augmented_norms(s, 5, [0.5])


class TestIntervalMaxScore:
    def test_isolated_opposite_pair_value(self):
        g, h = 1.3, 0.5
        s = SortedLabeled1D([0.0, g], [1, -1], h)
        res = interval_max_score(s, 0)
        assert res.maximizer == pytest.approx(g / 2)
        assert res.score == pytest.approx(4.0 / (1.0 - np.exp(-g / h)) - 1.0, rel=1e-12)

    def test_isolated_equal_pair_value(self):
        g, h = 1.3, 0.5
        s = SortedLabeled1D([0.0, g], [1, 1], h)
        res = interval_max_score(s, 0)
        assert res.maximizer == pytest.approx(g / 2)
        assert res.score == pytest.approx(4.0 / (1.0 + np.exp(-g / (2 * h))) - 1.0,
                                          rel=1e-12)

    def test_grid_search_confirms_midpoint_and_value(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            s = random_sorted(rng, max_n=8)
            if len(s) < 2:
                continue
            j = int(rng.integers(0, len(s) - 1))
            res = interval_max_score(s, j)
            xl, xr = s.positions[j], s.positions[j + 1]
            grid = np.linspace(xl, xr, 10_001)[1:-1]
            vals = np.minimum(*augmented_norms(s, j, grid))
            k = int(np.argmax(vals))
            assert abs(grid[k] - res.maximizer) <= (grid[1] - grid[0]) + 1e-12
            assert vals[k] <= res.score + 1e-12
            assert vals[k] == pytest.approx(res.score, abs=1e-6)

    def test_opposite_decreasing_equal_increasing_in_gap(self):
        h = 0.6
        gaps = np.linspace(0.2, 3.0, 12)
        opp = [interval_max_score(SortedLabeled1D([0, g], [1, -1], h), 0).score
               for g in gaps]
        same = [interval_max_score(SortedLabeled1D([0, g], [1, 1], h), 0).score
                for g in gaps]
        assert np.all(np.diff(opp) < 0)
        assert np.all(np.diff(same) > 0)
        # every opposite-pair maximum dominates every equal-pair maximum
        assert min(opp) >= max(same)

    def test_mixed_configuration_orderings(self):
        rng = np.random.default_rng(39)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            positions = np.sort(rng.uniform(0, 6, size=n))
            while np.any(np.diff(positions) < 0.05):
                positions = np.sort(rng.uniform(0, 6, size=n))
            labels = rng.choice([-1, 1], size=n)
            s = SortedLabeled1D(positions, labels, float(rng.uniform(0.3, 1.0)))
            results = [interval_max_score(s, j) for j in range(n - 1)]
            opp = [(s.positions[r.interval + 1] - s.positions[r.interval], r.score)
                   for r in results
                   if s.labels[r.interval] != s.labels[r.interval + 1]]
            same = [(s.positions[r.interval + 1] - s.positions[r.interval], r.score)
                    for r in results
                    if s.labels[r.interval] == s.labels[r.interval + 1]]
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
            best_interval(SortedLabeled1D([0.0], [1], 1.0))

    def test_picks_narrowest_opposite_gap(self):
        s = SortedLabeled1D([0.0, 2.0, 2.5, 4.0], [1, -1, 1, -1], 0.5)
        assert best_interval(s).interval == 1  # gap 0.5 < gaps 2.0 and 1.5

    def test_all_equal_labels_picks_widest_gap(self):
        s = SortedLabeled1D([0.0, 0.5, 3.0, 3.2], [1, 1, 1, 1], 0.5)
        assert best_interval(s).interval == 1

    def test_matches_generic_selection_on_grid_pools(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            s = random_sorted(rng, max_n=6)
            if len(s) < 2:
                continue
            res = best_interval(s)
            m = fit(LabeledSet(s.positions, s.labels), KernelConfig(s.bandwidth, 1.0))
            lo, hi = s.positions[0], s.positions[-1]
            grid = np.linspace(lo, hi, 4001)[1:-1]
            grid = grid[np.min(np.abs(grid[:, None] - s.positions[None, :]), axis=1)
                        > 1e-9]
            got = select_next(m, UnlabeledPool(grid[:, None]),
                              ScoreKind.FUNCTION_NORM, 0)
            step = grid[1] - grid[0]
            assert abs(grid[got.index] - res.maximizer) <= step + 1e-12
