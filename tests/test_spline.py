"""Minimal-roughness linear splines and their two selection scores.

Oracle strategy: numeric total variation on dense samples, explicit
augmented-spline differences integrated by quadrature or pool averaging, and
the closed-form values of isolated configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin_al.exceptions import DuplicatePointError, EmptyPoolError, OutOfRangeError
from maximin_al.scoring import ScoreKind, pick
from maximin_al.spline import (
    Empirical1D,
    SplineInterpolator,
    SplineState,
    Uniform1D,
    _hat_mean_sq,
    fit_spline,
    spline_score_pool,
    spline_select_next,
)


def random_spline(rng, max_n=10, min_gap=0.05):
    n = int(rng.integers(1, max_n + 1))
    positions = np.sort(rng.uniform(0.0, 5.0, size=n))
    while n > 1 and np.any(np.diff(positions) < min_gap):
        positions = np.sort(rng.uniform(0.0, 5.0, size=n))
    values = rng.choice([-1, 1], size=n)
    return fit_spline(positions, values)


def score_one(m: SplineInterpolator, u, density=None):
    """``spline_score_pool``'s score and label at the one candidate ``u``: the
    function score, or the data score under ``density``."""
    kind = ScoreKind.FUNCTION_NORM if density is None else ScoreKind.DATA_NORM
    scores, labels = spline_score_pool(m, [u], kind, density)
    return float(scores[0]), int(labels[0])


def hat_mean_sq_loop(m: SplineInterpolator, u, j, pts) -> np.ndarray:
    """Reference empirical hat mean: one pass over the density per candidate.

    The rise counts density points with x_j < x < u, the fall points with
    u <= x < x_{j+1}; points outside the labeled hull count for nothing.
    """
    xl, xr = m.positions[j], m.positions[j + 1]
    out = np.empty(len(u))
    for i in range(len(u)):
        rise = (pts > xl[i]) & (pts < u[i])
        fall = (pts >= u[i]) & (pts < xr[i])
        total = np.sum(((pts[rise] - xl[i]) / (u[i] - xl[i])) ** 2)
        total += np.sum(((xr[i] - pts[fall]) / (xr[i] - u[i])) ** 2)
        out[i] = total / len(pts)
    return out


def numeric_total_variation(m: SplineInterpolator, samples=10_000) -> float:
    """TV of f' measured from dense function samples far past the boundary."""
    lo = m.knots[0] - 1.0
    hi = m.knots[-1] + 1.0
    xs = np.linspace(lo, hi, samples)
    slopes = np.diff(m.predict(xs)) / np.diff(xs)
    return float(np.sum(np.abs(np.diff(slopes))))


class TestDensities:
    def test_uniform_needs_positive_length(self):
        with pytest.raises(ValueError):
            Uniform1D(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform1D(2.0, 1.0)

    def test_empirical_needs_points(self):
        with pytest.raises(EmptyPoolError):
            Empirical1D([])


class TestFitSpline:
    def test_opposite_pair_slope_and_norm(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        interior = np.searchsorted(m.knots, 0.5) - 1
        assert m.slopes[interior] == pytest.approx(-2.0)
        assert m.weight_norm == pytest.approx(4.0)

    def test_equal_pair_is_flat(self):
        m = fit_spline([0.0, 1.0], [1, 1])
        assert m.weight_norm == 0.0
        assert np.array_equal(m.predict([-5.0, 0.5, 7.0]), [1.0, 1.0, 1.0])

    def test_single_point_constant(self):
        m = fit_spline([2.0], [-1])
        assert m.weight_norm == 0.0
        assert np.array_equal(m.predict([0.0, 2.0, 9.0]), [-1.0, -1.0, -1.0])

    def test_boundary_slopes_are_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = random_spline(rng)
            assert m.slopes[0] == 0.0
            assert m.slopes[-1] == 0.0

    def test_interpolates_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_spline(rng)
            assert np.array_equal(m.predict(m.positions), m.values)

    def test_weight_norm_matches_numeric_tv(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            m = random_spline(rng)
            assert m.weight_norm == pytest.approx(numeric_total_variation(m), abs=1e-6)

    def test_unsorted_input_is_sorted(self):
        m = fit_spline([3.0, 1.0, 2.0], [1, -1, 1])
        assert np.array_equal(m.positions, [1.0, 2.0, 3.0])
        assert np.array_equal(m.values, [-1.0, 1.0, 1.0])

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePointError):
            fit_spline([0.0, 0.0], [1, -1])

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            fit_spline([0.0], [0.5])


class TestIntervalOf:
    def test_intervals_inside_the_hull(self):
        m = fit_spline([0.0, 0.4, 1.0], [1, -1, 1])
        assert np.array_equal(m.interval_of([0.1, np.nextafter(0.4, 1.0), 0.3, 0.99]),
                              [0, 1, 0, 1])

    @pytest.mark.parametrize("knot", [0.4, 0.0, 1.0])
    def test_candidate_on_a_knot_is_a_duplicate(self, knot):
        # 0.4 is an interior knot, 0.0 and 1.0 the end knots.
        m = fit_spline([0.0, 0.4, 1.0], [1, -1, 1])
        with pytest.raises(DuplicatePointError):
            m.interval_of([0.2, knot, 0.7])

    @pytest.mark.parametrize("u", [-0.1, 1.1, np.nextafter(1.0, 2.0)])
    def test_candidate_outside_the_hull(self, u):
        m = fit_spline([0.0, 0.4, 1.0], [1, -1, 1])
        with pytest.raises(OutOfRangeError):
            m.interval_of([0.2, u])


class TestFunctionNormScore:
    def test_opposite_pair_midpoint_value(self):
        for g in (0.5, 1.0, 4.0):
            m = fit_spline([0.0, g], [1, -1])
            assert score_one(m, g / 2)[0] == pytest.approx(m.weight_norm + 4.0 / g, rel=1e-12)

    def test_equal_pair_constant_in_u(self):
        m = fit_spline([0.0, 2.0, 3.0], [1, 1, -1])
        vals = [score_one(m, u)[0] for u in (0.2, 1.0, 1.9)]
        assert vals[0] == vals[1] == vals[2] == pytest.approx(m.weight_norm)

    def test_generic_u_formula(self):
        rng = np.random.default_rng(44)
        m = fit_spline([0.0, 1.5], [1, -1])
        for _ in range(20):
            u = float(rng.uniform(0.01, 1.49))
            want = (m.weight_norm - 4.0 / 1.5
                    + min(4.0 / (1.5 - u), 4.0 / u))
            assert score_one(m, u)[0] == pytest.approx(want,
                                                                           rel=1e-12)

    def test_label_is_roughness_minimizer(self):
        # Between opposite labels the estimated label matches the closer knot.
        m = fit_spline([0.0, 1.0], [1, -1])
        assert score_one(m, 0.25)[1] == 1
        assert score_one(m, 0.75)[1] == -1
        assert score_one(m, 0.5)[1] == 1  # midpoint tie -> +1

    def test_score_equals_refit_weight_norm(self):
        rng = np.random.default_rng(45)
        for _ in range(60):
            m = random_spline(rng, max_n=8)
            if len(m) < 2:
                continue
            u = float(rng.uniform(m.positions[0] + 1e-6, m.positions[-1] - 1e-6))
            if np.min(np.abs(u - m.positions)) < 1e-9:
                continue
            score, label = score_one(m, u)
            refit = fit_spline(np.append(m.positions, u),
                               np.append(m.values, label))
            assert score == pytest.approx(refit.weight_norm, rel=1e-9, abs=1e-9)
            other = fit_spline(np.append(m.positions, u),
                               np.append(m.values, -label))
            assert score <= other.weight_norm + 1e-9

    def test_errors(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        with pytest.raises(DuplicatePointError):
            score_one(m, 1.0)
        with pytest.raises(OutOfRangeError):
            score_one(m, 1.5)


class TestDataNormScore:
    def test_equal_pair_is_exactly_zero(self):
        m = fit_spline([0.0, 1.0, 3.0], [1, 1, -1])
        density = Uniform1D(0.0, 3.0)
        for u in (0.1, 0.5, 0.99):
            assert score_one(m, u, density)[0] == 0.0

    def test_unit_example_is_one_third(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        got = score_one(m, 0.5, Uniform1D(0.0, 1.0))[0]
        assert got == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_vanishes_as_u_approaches_a_knot(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        density = Uniform1D(0.0, 1.0)
        vals = [score_one(m, u, density)[0]
                for u in (1e-3, 1e-5, 1e-7)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6

    def test_uniform_density_matches_quadrature(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            m = random_spline(rng, max_n=6)
            if len(m) < 2:
                continue
            u = float(rng.uniform(m.positions[0] + 0.01, m.positions[-1] - 0.01))
            if np.min(np.abs(u - m.positions)) < 1e-6:
                continue
            lo, hi = m.positions[0] - 0.5, m.positions[-1] + 0.5
            score, label = score_one(m, u, Uniform1D(lo, hi))
            aug = fit_spline(np.append(m.positions, u),
                             np.append(m.values, label))
            xs = np.linspace(lo, hi, 200_001)
            diff = (aug.predict(xs) - m.predict(xs)) ** 2
            want = np.trapezoid(diff, xs) / (hi - lo)
            assert score == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_empirical_density_matches_pool_average(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            m = random_spline(rng, max_n=6)
            if len(m) < 2:
                continue
            pts = rng.uniform(m.positions[0], m.positions[-1], size=40)
            u = float(rng.uniform(m.positions[0] + 0.01, m.positions[-1] - 0.01))
            if np.min(np.abs(u - m.positions)) < 1e-6:
                continue
            score, label = score_one(m, u, Empirical1D(pts))
            aug = fit_spline(np.append(m.positions, u),
                             np.append(m.values, label))
            want = float(np.mean((aug.predict(pts) - m.predict(pts)) ** 2))
            assert score == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_empirical_interval_sums_match_per_candidate_loop(self):
        rng = np.random.default_rng(49)
        for _ in range(60):
            m = random_spline(rng, max_n=12)
            if len(m) < 2:
                continue
            lo, hi = m.positions[0], m.positions[-1]
            # Density points inside the hull, beyond it, on the knots, and repeated.
            pts = rng.uniform(lo - 1.0, hi + 1.0, size=int(rng.integers(1, 200)))
            pts = np.concatenate([pts, m.positions[rng.integers(0, len(m), size=3)],
                                  pts[:5]])
            inside = pts[(pts > lo) & (pts < hi) & ~np.isin(pts, m.positions)]
            us = np.concatenate([inside, rng.uniform(lo, hi, size=20)])
            us = us[~np.isin(us, m.positions)]
            if us.size == 0:
                continue
            j = m.interval_of(us)
            got = _hat_mean_sq(m, us, j, Empirical1D(rng.permutation(pts)))
            np.testing.assert_allclose(got, hat_mean_sq_loop(m, us, j, pts),
                                       rtol=1e-12, atol=0)

    def test_symmetric_about_midpoint_with_single_sign_change(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        density = Uniform1D(0.0, 1.0)
        deltas = np.linspace(0.01, 0.45, 20)
        for d in deltas:
            left = score_one(m, 0.5 - d, density)[0]
            right = score_one(m, 0.5 + d, density)[0]
            assert left == pytest.approx(right, rel=1e-9)
        grid = np.linspace(0.02, 0.98, 97)
        vals = np.array([score_one(m, u, density)[0] for u in grid])
        signs = np.sign(np.diff(vals))
        changes = np.sum(np.diff(signs[signs != 0]) != 0)
        assert changes == 1  # rises to the midpoint peak, then falls


class TestLocality:
    def test_augmented_spline_unchanged_outside_interval(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            m = random_spline(rng, max_n=8)
            if len(m) < 3:
                continue
            j = int(rng.integers(0, len(m) - 1))
            xl, xr = m.positions[j], m.positions[j + 1]
            u = float(rng.uniform(xl + 1e-4, xr - 1e-4))
            t = score_one(m, u)[1]
            aug = fit_spline(np.append(m.positions, u), np.append(m.values, t))
            xs = np.linspace(m.positions[0] - 2, m.positions[-1] + 2, 500)
            outside = (xs <= xl) | (xs >= xr)
            np.testing.assert_allclose(aug.predict(xs[outside]),
                                       m.predict(xs[outside]), atol=1e-12)


class TestSelectNext:
    def test_grid_with_one_opposite_pair_both_kinds(self):
        m = fit_spline([0.0, 1.0, 3.0], [1, 1, -1])  # opposite pair (1, 3)
        grid = np.linspace(0.05, 2.95, 200)
        grid = grid[np.min(np.abs(grid[:, None] - m.positions[None, :]), axis=1) > 1e-9]
        for kind in ScoreKind:
            got = pick(*spline_score_pool(m, grid, kind, Uniform1D(0.0, 3.0)), 0)
            nearest = int(np.argmin(np.abs(grid - 2.0)))
            assert got.index == nearest

    def test_two_pairs_function_prefers_narrower(self):
        # opposite pairs (0,1) width 1 and (3,5) width 2
        m = fit_spline([0.0, 1.0, 3.0, 5.0], [1, -1, -1, 1])
        grid = np.linspace(0.01, 4.99, 999)
        grid = grid[np.min(np.abs(grid[:, None] - m.positions[None, :]), axis=1) > 1e-6]
        got = spline_select_next(m, grid, ScoreKind.FUNCTION_NORM, 0)
        assert abs(grid[got.index] - 0.5) < 0.02

    def test_two_pairs_data_prefers_wider(self):
        m = fit_spline([0.0, 1.0, 3.0, 5.0], [1, -1, -1, 1])
        grid = np.linspace(0.01, 4.99, 999)
        grid = grid[np.min(np.abs(grid[:, None] - m.positions[None, :]), axis=1) > 1e-6]
        got = pick(*spline_score_pool(m, grid, ScoreKind.DATA_NORM, Uniform1D(0.0, 5.0)), 0)
        assert abs(grid[got.index] - 4.0) < 0.02

    def test_empirical_default_density_is_the_pool(self):
        m = fit_spline([0.0, 2.0], [1, -1])
        pool = np.linspace(0.1, 1.9, 50)
        got = spline_select_next(m, pool, ScoreKind.DATA_NORM, 0)
        want = pick(*spline_score_pool(m, pool, ScoreKind.DATA_NORM, Empirical1D(pool)), 0)
        assert got == want

    def test_empty_pool_rejected(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        with pytest.raises(EmptyPoolError):
            spline_select_next(m, [], ScoreKind.FUNCTION_NORM, 0)

    def test_unknown_kind_rejected(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        with pytest.raises(ValueError):
            spline_score_pool(m, [0.5], "unknown")
        with pytest.raises(ValueError):
            spline_score_pool(m, [0.5], ScoreKind.DATA_NORM)  # density required

    def test_string_kinds_rejected(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        for kind in ("function", "data"):
            with pytest.raises(ValueError, match="unknown score kind"):
                spline_score_pool(m, [0.5], kind, Uniform1D(0.0, 1.0))
            with pytest.raises(ValueError, match="unknown score kind"):
                spline_select_next(m, [0.5], kind, 0)


@st.composite
def state_cases(draw):
    """Shuffled 1-D points on a 1/32 grid, distinct or with repeats, and a label
    sequence that may repeat a point or a position, often starting at the extremes."""
    n = draw(st.integers(1, 30))
    grid = st.integers(0, 32)
    points = np.array(draw(st.lists(grid, min_size=n, max_size=n,
                                    unique=draw(st.booleans())))) / 32.0
    order = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    if draw(st.booleans()):
        order = [int(np.argmin(points)), int(np.argmax(points))] + order
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(order),
                           max_size=len(order)))
    return points, order, labels


class TestSplineState:
    @settings(max_examples=300, deadline=None)
    @given(state_cases())
    def test_matches_spline_score_pool(self, case):
        # Scores and labels equal the reference's bit for bit, and both raise
        # the same errors on the same calls.
        points, order, labels = case
        states = [SplineState(points, kind) for kind in ScoreKind]
        labeled = []
        for i, y in zip(order, labels):
            try:
                m = fit_spline(points[labeled + [i]], [*(labels[:len(labeled)]), y])
            except DuplicatePointError:
                for state in states:
                    with pytest.raises(DuplicatePointError):
                        state.add(i, y)
                return
            for state in states:
                state.add(i, y)
            labeled.append(i)
            pool_idx = np.setdiff1d(np.arange(len(points)), labeled)
            if len(pool_idx) == 0:
                return
            us = points[pool_idx]
            for state in states:
                density = Empirical1D(us) if state.kind is ScoreKind.DATA_NORM else None
                try:
                    want, want_labels = spline_score_pool(m, us, state.kind, density)
                except (DuplicatePointError, OutOfRangeError) as err:
                    with pytest.raises(type(err)):
                        state.scores(m.weight_norm)
                    continue
                got, got_labels = state.scores(m.weight_norm)
                assert np.array_equal(got, want)
                assert np.array_equal(got_labels, want_labels)

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_scores_cover_the_unlabeled_points_in_index_order(self, kind):
        # The unlabeled points 1, 3, 4 lie at x = 0.5, 0.2, 0.9: not in x order.
        x = np.array([0.0, 0.5, 1.0, 0.2, 0.9])
        state = SplineState(x, kind)
        state.add(0, 1)
        state.add(2, -1)
        m, us = fit_spline(x[[0, 2]], [1, -1]), x[[1, 3, 4]]
        density = Empirical1D(us) if kind is ScoreKind.DATA_NORM else None
        got, want = state.scores(m.weight_norm), spline_score_pool(m, us, kind, density)
        assert len(got[0]) == 3 and len(set(got[0])) == 3
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_bad_kind_and_label_rejected(self):
        with pytest.raises(ValueError, match="unknown score kind"):
            SplineState([0.0, 1.0], "data")
        with pytest.raises(ValueError, match="label must be"):
            SplineState([0.0, 1.0], ScoreKind.FUNCTION_NORM).add(0, 0)

    @pytest.mark.parametrize("knots, u", [((0.0, 1.0), 1e-200), ((-1.0, 0.0), -1e-200)])
    def test_data_score_next_to_a_labeled_point_raises(self, knots, u):
        # u is 1e-200 from the left or the right knot: (u - x_j)^2 or
        # (x_{j+1} - u)^2 underflows to 0, and the hat sums would read 0/0.
        x = np.array([*knots, 0.5 * sum(knots), u])
        m, pool = fit_spline(knots, [1, -1]), np.array([2, 3])
        data = SplineState(x, ScoreKind.DATA_NORM)
        function = SplineState(x, ScoreKind.FUNCTION_NORM)
        for state in (data, function):
            state.add(0, 1)
            state.add(1, -1)
        for call in (lambda: data.scores(m.weight_norm),
                     lambda: data.select(np.random.default_rng(0), m.weight_norm),
                     lambda: spline_score_pool(m, x[pool], ScoreKind.DATA_NORM,
                                               Empirical1D(x[pool])),
                     lambda: spline_select_next(m, x[pool], ScoreKind.DATA_NORM, 0)):
            with pytest.raises(DuplicatePointError, match="indistinguishable"):
                call()
        # The function score stays finite there.
        scores, labels = function.scores(m.weight_norm)
        assert np.all(np.isfinite(scores))
        want = spline_score_pool(m, x[pool], ScoreKind.FUNCTION_NORM)
        assert np.array_equal(scores, want[0]) and np.array_equal(labels, want[1])
        # Labeling u splits it off, and the data score is defined again.
        data.add(3, 1)
        m = fit_spline(x[[0, 1, 3]], [1, -1, 1])
        want = spline_score_pool(m, x[[2]], ScoreKind.DATA_NORM, Empirical1D(x[[2]]))
        assert np.array_equal(data.scores(m.weight_norm)[0], want[0])

    @pytest.mark.parametrize("x", [(0.0, 1e-310, 0.5, 1.0), (-1.0, -0.5, -1e-310, 0.0)])
    def test_function_score_within_1e_308_of_a_labeled_point(self, x):
        # A candidate 1e-310 from the labeled -1 (left) or +1 (right) end: the
        # delta of the opposite label, 4 / 1e-310, overflows to inf.  The
        # smaller delta, and so the score, stays finite, and no warning is
        # raised (the suite turns RuntimeWarnings into errors).
        x = np.array(x)
        m, pool = fit_spline(x[[0, 3]], [-1, 1]), np.array([1, 2])
        function = SplineState(x, ScoreKind.FUNCTION_NORM)
        data = SplineState(x, ScoreKind.DATA_NORM)
        for state in (function, data):
            state.add(0, -1)
            state.add(3, 1)
        scores, labels = function.scores(m.weight_norm)
        assert np.all(np.isfinite(scores))
        want = spline_score_pool(m, x[pool], ScoreKind.FUNCTION_NORM)
        assert np.array_equal(scores, want[0]) and np.array_equal(labels, want[1])
        # The midpoint of the opposite pair scores highest.
        chosen = function.select(np.random.default_rng(0), m.weight_norm)
        assert abs(x[chosen.index]) == 0.5
        for call in (lambda: data.scores(m.weight_norm),
                     lambda: spline_score_pool(m, x[pool], ScoreKind.DATA_NORM,
                                               Empirical1D(x[pool]))):
            with pytest.raises(DuplicatePointError, match="indistinguishable"):
                call()

    @pytest.mark.parametrize("gap", [3e-310, 1.5e-308])
    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("y0", [1, -1])
    def test_opposite_labels_within_1e_308_are_duplicates(self, gap, first, y0):
        # The slope 2 / 3e-310 overflows, and at 1.5e-308 the roughness
        # 4 / gap does: the spline, and a candidate's function score between
        # the pair, would be inf or NaN.  Both raise on the second label, in
        # either order.  Equal labels, or opposite ones 5e-308 apart, are fine.
        x, y = np.array([0.0, gap, 1.0]), np.array([y0, -y0, y0])
        order = [first, 1 - first]
        for kind in ScoreKind:
            state = SplineState(x, kind)
            state.add(order[0], int(y[order[0]]))
            with pytest.raises(DuplicatePointError, match="oppositely labeled"):
                state.add(order[1], int(y[order[1]]))
        with pytest.raises(DuplicatePointError, match="oppositely labeled"):
            fit_spline(x[order], y[order])
        same = SplineState(x, ScoreKind.FUNCTION_NORM)
        for i in (*order, 2):
            same.add(i, y0)
        assert fit_spline(x, [y0] * 3).weight_norm == 0.0
        apart = SplineState([0.0, 5e-308], ScoreKind.FUNCTION_NORM)
        for i in order:
            apart.add(i, int(y[i]))
        assert np.isfinite(fit_spline([0.0, 5e-308], y[:2]).weight_norm)
