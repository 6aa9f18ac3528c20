"""Minimal-roughness linear splines and their two selection scores.

Oracle strategy: numeric total variation on dense samples, explicit
augmented-spline differences averaged over the candidates, and the
closed-form values of isolated configurations.
"""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maximin_al.exceptions import DuplicatePointError, EmptyPoolError, OutOfRangeError
from maximin_al.scoring import ScoreKind, pick
from maximin_al.spline import (
    SplineInterpolator,
    SplineState,
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


def score_one(m: SplineInterpolator, u):
    """``spline_score_pool``'s function score and label at the one candidate ``u``."""
    scores, labels = spline_score_pool(m, [u], ScoreKind.FUNCTION_NORM)
    return float(scores[0]), int(labels[0])


def data_score_last(m: SplineInterpolator, pool, u):
    """The data score and label of ``u`` among the candidates ``pool`` and ``u``."""
    scores, labels = spline_score_pool(m, np.append(pool, u), ScoreKind.DATA_NORM)
    return float(scores[-1]), int(labels[-1])


def hat_mean_sq_loop(m: SplineInterpolator, u, j) -> np.ndarray:
    """Reference empirical hat mean over the candidates: one pass per candidate.

    The rise counts candidates with x_j < x < u, the fall those with
    u <= x < x_{j+1}.
    """
    xl, xr = m.positions[j], m.positions[j + 1]
    out = np.empty(len(u))
    for i in range(len(u)):
        rise = (u > xl[i]) & (u < u[i])
        fall = (u >= u[i]) & (u < xr[i])
        total = np.sum(((u[rise] - xl[i]) / (u[i] - xl[i])) ** 2)
        total += np.sum(((xr[i] - u[fall]) / (xr[i] - u[i])) ** 2)
        out[i] = total / len(u)
    return out


def assert_unchanged(state: SplineState, before: SplineState) -> None:
    """Every attribute of ``state`` equals ``before``'s, and its spline's knots,
    knot values, slopes and roughness bit for bit."""
    for name, value in vars(before).items():
        if name == "spline" and value is not None:
            for attr in ("knots", "knot_values", "slopes", "weight_norm"):
                assert np.asarray(getattr(state.spline, attr)).tobytes() == \
                    np.asarray(getattr(value, attr)).tobytes(), attr
        else:
            np.testing.assert_array_equal(vars(state)[name], value, err_msg=name)


def numeric_total_variation(m: SplineInterpolator, samples=10_000) -> float:
    """TV of f' measured from dense function samples far past the boundary."""
    lo = m.knots[0] - 1.0
    hi = m.knots[-1] + 1.0
    xs = np.linspace(lo, hi, samples)
    slopes = np.diff(m.predict(xs)) / np.diff(xs)
    return float(np.sum(np.abs(np.diff(slopes))))


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

    def test_a_candidate_next_to_a_knot_reads_its_own_interval(self):
        # One ulp right of the interior knot 0.4 lies in (0.4, 1.0), not (0.0, 0.4).
        m = fit_spline([0.0, 0.4, 1.0], [1, -1, 1])
        us = [0.1, np.nextafter(0.4, 1.0), 0.3, 0.99]
        scores, labels = spline_score_pool(m, us, ScoreKind.FUNCTION_NORM)
        for u, score, label in zip(us, scores, labels):
            refit = fit_spline([0.0, 0.4, 1.0, u], [1, -1, 1, label])
            assert score == pytest.approx(refit.weight_norm, rel=1e-9)

    @pytest.mark.parametrize("kind", list(ScoreKind), ids=["function", "data"])
    @pytest.mark.parametrize("u, error", [(0.4, DuplicatePointError), (0.0, DuplicatePointError),
                                          (1.0, DuplicatePointError), (-0.1, OutOfRangeError),
                                          (1.1, OutOfRangeError),
                                          (np.nextafter(1.0, 2.0), OutOfRangeError)])
    def test_errors(self, u, error, kind):
        # On an interior or an end knot, and outside the hull, however close;
        # with another candidate inside the hull, under either score.
        m = fit_spline([0.0, 0.4, 1.0], [1, -1, 1])
        with pytest.raises(error):
            spline_score_pool(m, [0.2, u, 0.7], kind)


class TestDataNormScore:
    def test_equal_pair_is_exactly_zero(self):
        m = fit_spline([0.0, 1.0, 3.0], [1, 1, -1])
        scores, _ = spline_score_pool(m, [0.1, 0.5, 0.99, 2.0], ScoreKind.DATA_NORM)
        assert scores[:3].tolist() == [0.0, 0.0, 0.0] and scores[3] > 0.0

    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    def test_grid_closed_form_at_the_midpoint(self, n):
        # Labels (0, +1) and (1, -1), candidates k/n: at 1/2 the peak is 1 and
        # the hat sums are (n/2 - 1)(n - 1)/(3n) below and (n/2 + 1)(n + 1)/(3n)
        # from 1/2 on, so the score is (n^2 + 2)/(3n(n - 1)), which tends to the
        # uniform density's 1/3.  The reference and the state agree bit for bit.
        grid = np.arange(1, n) / n
        want = (n * n + 2) / (3 * n * (n - 1))
        m = fit_spline([0.0, 1.0], [1, -1])
        state = SplineState(np.r_[0.0, 1.0, grid], ScoreKind.DATA_NORM)
        state.add(0, 1)
        state.add(1, -1)
        got = spline_score_pool(m, grid, ScoreKind.DATA_NORM)[0]
        assert np.array_equal(state.scores()[0], got)
        assert got[n // 2 - 1] == pytest.approx(want, rel=1e-12, abs=0)

    def test_unit_example_is_one_third(self):
        # Under the uniform density on [0, 1] the midpoint's score is 1/3; a
        # grid of 10^6 candidates is within (n + 2)/(3n(n - 1)) of it.
        n = 1_000_000
        m = fit_spline([0.0, 1.0], [1, -1])
        got = spline_score_pool(m, np.arange(1, n) / n, ScoreKind.DATA_NORM)[0][n // 2 - 1]
        assert got == pytest.approx(1.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_no_candidates_no_scores(self, kind):
        m = fit_spline([0.0, 1.0], [1, -1])
        scores, labels = spline_score_pool(m, np.empty(0), kind)
        assert scores.shape == labels.shape == (0,)

    def test_vanishes_as_u_approaches_a_knot(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        grid = np.arange(1, 1000) / 1000
        vals = [data_score_last(m, grid, u)[0] for u in (1e-3, 1e-5, 1e-7)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6

    def test_uniform_density_matches_quadrature(self):
        # On an even grid of candidates over the hull, the data score tends to
        # the mean of the squared change under the uniform density there.
        rng = np.random.default_rng(46)
        for _ in range(30):
            m = random_spline(rng, max_n=6)
            if len(m) < 2:
                continue
            lo, hi = m.positions[0], m.positions[-1]
            grid = np.linspace(lo, hi, 20_001)[1:-1]
            grid = grid[~np.isin(grid, m.positions)]
            i = int(rng.integers(len(grid)))
            if np.min(np.abs(grid[i] - m.positions)) < 1e-3:
                continue
            scores, labels = spline_score_pool(m, grid, ScoreKind.DATA_NORM)
            aug = fit_spline(np.append(m.positions, grid[i]),
                             np.append(m.values, labels[i]))
            xs = np.linspace(lo, hi, 200_001)
            diff = (aug.predict(xs) - m.predict(xs)) ** 2
            want = np.trapezoid(diff, xs) / (hi - lo)
            assert scores[i] == pytest.approx(want, rel=1e-3)

    def test_score_is_the_candidate_average_of_the_change(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            m = random_spline(rng, max_n=6)
            if len(m) < 2:
                continue
            pts = rng.uniform(m.positions[0], m.positions[-1], size=40)
            u = float(rng.uniform(m.positions[0] + 0.01, m.positions[-1] - 0.01))
            if np.min(np.abs(u - m.positions)) < 1e-6:
                continue
            score, label = data_score_last(m, pts, u)
            aug = fit_spline(np.append(m.positions, u),
                             np.append(m.values, label))
            us = np.append(pts, u)
            want = float(np.mean((aug.predict(us) - m.predict(us)) ** 2))
            assert score == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_empirical_interval_sums_match_per_candidate_loop(self):
        rng = np.random.default_rng(49)
        for _ in range(60):
            m = random_spline(rng, max_n=12)
            if len(m) < 2:
                continue
            us = rng.uniform(m.positions[0], m.positions[-1], size=int(rng.integers(1, 200)))
            us = us[~np.isin(us, m.positions)]
            if us.size == 0:
                continue
            j = np.searchsorted(m.positions, us) - 1
            np.testing.assert_allclose(_hat_mean_sq(m, us, j), hat_mean_sq_loop(m, us, j),
                                       rtol=1e-12, atol=0)

    def test_symmetric_about_midpoint_with_single_sign_change(self):
        # Candidates k/100: the scores at k and 100 - k agree, and rise to the
        # midpoint's, then fall.
        m = fit_spline([0.0, 1.0], [1, -1])
        vals = spline_score_pool(m, np.arange(1, 100) / 100, ScoreKind.DATA_NORM)[0]
        np.testing.assert_allclose(vals, vals[::-1], rtol=1e-9, atol=0)
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
            got = pick(*spline_score_pool(m, grid, kind), 0)
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
        got = pick(*spline_score_pool(m, grid, ScoreKind.DATA_NORM), 0)
        assert abs(grid[got.index] - 4.0) < 0.02

    def test_select_next_picks_from_the_pool_scores(self):
        m = fit_spline([0.0, 2.0], [1, -1])
        pool = np.linspace(0.1, 1.9, 50)
        got = spline_select_next(m, pool, ScoreKind.DATA_NORM, 0)
        want = pick(*spline_score_pool(m, pool, ScoreKind.DATA_NORM), 0)
        assert got == want

    def test_empty_pool_rejected(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        with pytest.raises(EmptyPoolError):
            spline_select_next(m, [], ScoreKind.FUNCTION_NORM, 0)

    def test_unknown_kind_rejected(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        with pytest.raises(ValueError):
            spline_score_pool(m, [0.5], "unknown")

    def test_string_kinds_rejected(self):
        m = fit_spline([0.0, 1.0], [1, -1])
        for kind in ("function", "data"):
            with pytest.raises(ValueError, match="unknown score kind"):
                spline_score_pool(m, [0.5], kind)
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


@st.composite
def label_orders(draw):
    """Distinct 1-D points, on a 2^-30 grid, floats in [-1e3, 1e3] or a few ulps
    apart at |a| from 2^53 to 1e17 (spans below 1e6, where a pad of 1 rounds
    away), their labels, an order that labels the two extremes first and the
    rest at random, a score kind and a generator seed."""
    grid = st.integers(0, 2**30).map(lambda k: k / 2**30)
    floats = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    a = draw(st.floats(2.0**53, 1e17)) * draw(st.sampled_from([-1, 1]))
    b = draw(st.integers(1, 8)) * math.ulp(a)
    far = st.integers(0, 2**12).map(lambda k: a + k * b)
    x = np.array(draw(st.lists(draw(st.sampled_from([grid, floats, far])), min_size=2,
                               max_size=40, unique=True)))
    assume(len(np.unique(x)) == len(x))
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=len(x), max_size=len(x))))
    ends = [int(np.argmin(x)), int(np.argmax(x))]
    rest = draw(st.permutations([i for i in range(len(x)) if i not in ends]))
    return x, y, ends + rest, draw(st.sampled_from(list(ScoreKind))), \
        draw(st.integers(0, 2**32 - 1))


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
                try:
                    want, want_labels = spline_score_pool(m, us, state.kind)
                except (DuplicatePointError, OutOfRangeError) as err:
                    with pytest.raises(type(err)):
                        state.scores()
                    continue
                assert state.weight_norm == m.weight_norm
                got, got_labels = state.scores()
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
        assert state.weight_norm == m.weight_norm
        got, want = state.scores(), spline_score_pool(m, us, kind)
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
        assert data.weight_norm == function.weight_norm == m.weight_norm
        for call in (data.scores,
                     lambda: data.select(np.random.default_rng(0)),
                     lambda: spline_score_pool(m, x[pool], ScoreKind.DATA_NORM),
                     lambda: spline_select_next(m, x[pool], ScoreKind.DATA_NORM, 0)):
            with pytest.raises(DuplicatePointError, match="indistinguishable"):
                call()
        # The function score stays finite there.
        scores, labels = function.scores()
        assert np.all(np.isfinite(scores))
        want = spline_score_pool(m, x[pool], ScoreKind.FUNCTION_NORM)
        assert np.array_equal(scores, want[0]) and np.array_equal(labels, want[1])
        # Labeling u splits it off, and the data score is defined again.
        data.add(3, 1)
        m = fit_spline(x[[0, 1, 3]], [1, -1, 1])
        assert data.weight_norm == m.weight_norm
        want = spline_score_pool(m, x[[2]], ScoreKind.DATA_NORM)
        assert np.array_equal(data.scores()[0], want[0])

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
        assert data.weight_norm == function.weight_norm == m.weight_norm
        scores, labels = function.scores()
        assert np.all(np.isfinite(scores))
        want = spline_score_pool(m, x[pool], ScoreKind.FUNCTION_NORM)
        assert np.array_equal(scores, want[0]) and np.array_equal(labels, want[1])
        # The midpoint of the opposite pair scores highest.
        chosen = function.select(np.random.default_rng(0))
        assert abs(x[chosen.index]) == 0.5
        for call in (data.scores,
                     lambda: spline_score_pool(m, x[pool], ScoreKind.DATA_NORM)):
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

    @settings(max_examples=300, deadline=None)
    @given(label_orders())
    def test_roughness_and_select_follow_every_label(self, case):
        # After every label the state's roughness is the refit spline's, bit
        # for bit, and select is pick on scores() with the same draw; a label
        # whose spline is undefined raises the same error in both, and the
        # state is left as it was.
        x, y, order, kind, seed = case
        state, rng = SplineState(x, kind), np.random.default_rng(seed)
        for step, i in enumerate(order, start=1):
            try:
                m = fit_spline(x[order[:step]], y[order[:step]])
            except ValueError as err:
                before = copy.deepcopy(state)
                with pytest.raises(ValueError) as raised:
                    state.add(i, int(y[i]))
                assert (type(raised.value), str(raised.value)) == (type(err), str(err))
                assert_unchanged(state, before)
                return
            state.add(i, int(y[i]))
            assert state.weight_norm == m.weight_norm
            if step == len(x):
                return
            pool_idx = np.setdiff1d(np.arange(len(x)), order[:step])
            ref = copy.deepcopy(rng)
            try:
                want = pick(*state.scores(), ref)
            except (DuplicatePointError, OutOfRangeError) as err:
                with pytest.raises(type(err)):
                    state.select(rng)
                continue
            got = state.select(rng)
            assert (got.index, got.label, got.score) == \
                (int(pool_idx[want.index]), want.label, want.score)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 0, 2, 1], [1, 3, 2, 0]])
    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_a_roughness_that_overflows_is_rejected_before_any_change(self, order, kind):
        # Adjacent points are 5e-308 >= 2^-1021 apart, so every pair passes the
        # pair rule, but four alternating labels make a roughness of 2.4e308,
        # past the largest float; any three make at most 1.6e308.
        x, y = np.array([0.0, 5e-308, 1e-307, 1.5e-307]), np.array([-1, 1, -1, 1])
        with pytest.raises(DuplicatePointError, match="roughness overflows"):
            fit_spline(x, y)
        state = SplineState(x, kind)
        for i in order[:3]:
            state.add(i, int(y[i]))
        assert state.weight_norm == fit_spline(x[order[:3]], y[order[:3]]).weight_norm
        before = copy.deepcopy(state)
        with pytest.raises(DuplicatePointError, match="roughness overflows"):
            state.add(order[3], int(y[order[3]]))
        assert_unchanged(state, before)

    def test_a_function_score_that_overflows_raises(self):
        # Labels -1, +1, -1 at 0, 5e-308 and 1e-307 give a roughness of
        # 1.6e308; labeling the candidate at 7.5e-308 would add 8e307 more,
        # past the largest float.  The state and the reference raise the
        # roughness's error, as fit_spline would on the augmented set.
        x, y = np.array([0.0, 5e-308, 7.5e-308, 1e-307]), {0: -1, 3: -1, 1: 1}
        state = SplineState(x, ScoreKind.FUNCTION_NORM)
        for i, label in y.items():
            state.add(i, label)
        m = fit_spline(x[list(y)], list(y.values()))
        assert state.weight_norm == m.weight_norm == 1.6000000000000002e308
        for call in (state.scores, lambda: state.select(np.random.default_rng(0)),
                     lambda: spline_score_pool(m, x[[2]], ScoreKind.FUNCTION_NORM),
                     lambda: spline_select_next(m, x[[2]], ScoreKind.FUNCTION_NORM, 0)):
            with pytest.raises(DuplicatePointError, match="roughness overflows"):
                call()
        # Between the equal labels at 1e-307 and 1 the score is the roughness.
        far = SplineState(np.append(x[[0, 1, 3]], [0.5, 1.0]), ScoreKind.FUNCTION_NORM)
        for i, label in ((0, -1), (4, -1), (1, 1), (2, -1)):
            far.add(i, label)
        scores, labels = far.scores()
        assert scores.tolist() == [m.weight_norm] and labels.tolist() == [-1]
        assert far.select(np.random.default_rng(0)).index == 3

    @pytest.mark.parametrize("x", [(0.0, 5e307, 1e308), (0.0, -5e307, -1e308)])
    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_a_span_whose_boundary_knot_overflows_is_rejected_before_any_change(self, x, kind):
        # A boundary knot lies max(1, span) beyond each end of the labeled
        # span: past 1e308 on a span of 1e308.  Both raise on the same label,
        # naming the span, and no two points coincide.
        x = np.array(x)
        with pytest.raises(ValueError, match=r"labeled span \[-1e\+308, 1e\+308\]"):
            fit_spline([-1e308, 1e308], [1, -1])
        with pytest.raises(ValueError, match="labeled span") as err:
            fit_spline(x[[0, 2]], [1, -1])
        assert not isinstance(err.value, DuplicatePointError)
        state = SplineState(x, kind)
        state.add(0, 1)
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match=re.escape(str(err.value))):
            state.add(2, -1)
        assert_unchanged(state, before)
        state.add(1, -1)
        assert state.weight_norm == fit_spline(x[[0, 1]], [1, -1]).weight_norm

    @pytest.mark.parametrize("x", [2.0**53, -1e16, 1e300, -1e308])
    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_a_lone_label_far_from_zero_is_flat(self, x, kind):
        # From about 2^53 on a pad of 1 rounds away: a boundary knot would
        # land on x and a slope read 0/0.  The pad is at least two ulps of x,
        # so the spline is 1 everywhere, its roughness 0, and nothing warns
        # (the suite turns RuntimeWarnings into errors).
        m = fit_spline([x], [1])
        assert m.weight_norm == 0.0 and len(set(m.knots)) == 3
        assert np.all(m.predict([x, -x, 0.0, np.nextafter(x, 0.0), -1.7e308, 1.7e308]) == 1)
        state = SplineState([x, 0.0], kind)
        state.add(0, 1)
        assert state.weight_norm == 0.0
        with pytest.raises(OutOfRangeError):
            state.scores()

    @pytest.mark.parametrize("x", [np.finfo(float).max, -np.finfo(float).max])
    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_a_lone_label_at_the_largest_float_is_too_wide(self, x, kind):
        # Two ulps beyond the largest float overflows: the span error, in both.
        with pytest.raises(ValueError, match="labeled span") as err:
            fit_spline([x], [1])
        assert not isinstance(err.value, DuplicatePointError)
        state = SplineState([x, 0.0], kind)
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match=re.escape(str(err.value))):
            state.add(0, 1)
        assert_unchanged(state, before)
