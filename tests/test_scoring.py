"""Label estimation, the two selection scores, and argmax selection.

Oracle strategy: every score is checked against an explicit double refit
(augment with t = +1 and t = -1, take the relevant norm or pool difference),
and tie-breaking uniformity is checked with a chi-square test.
"""

import copy

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from maximin_al.acceptance import cluster_explore_spec
from maximin_al.exceptions import (ConditioningError, DuplicatePointError, EmptyPoolError,
                                   OutOfRangeError)
from maximin_al.kernel import (
    KernelConfig,
    KernelInterpolator,
    LabeledSet,
    augmented_fit,
    fit,
    kernel_matrix,
)
from maximin_al.harness import ModelConfig, _learner, _ModelLearner
from maximin_al.scoring import (
    IntervalState,
    ScoreKind,
    ScoringState,
    pick,
    score_pool,
    select_next,
    sign_labels,
    sort_order,
)
from maximin_al.spline import SplineState, fit_spline
from maximin_al.synthetic import ClusterSpec, gen_clusters


def random_model(rng, max_n=20, max_d=3):
    n = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    cfg = KernelConfig(float(rng.uniform(0.2, 1.5)), float(rng.choice([1.0, 2.0])))
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    labels = rng.choice([-1, 1], size=n)
    return fit(LabeledSet(pts, labels), cfg)


def score_one(m, u, kind=ScoreKind.FUNCTION_NORM):
    """``score_pool``'s score and label of the pool holding the one point ``u``."""
    scores, labels = score_pool(m, np.atleast_2d(u), kind)
    return float(scores[0]), int(labels[0])


class TestEstimateLabel:
    def test_sign_rule(self):
        m = fit(LabeledSet([[0.0]], [1]), KernelConfig(1.0, 1.0))
        assert score_one(m, [0.1])[1] == 1        # f > 0
        m2 = fit(LabeledSet([[0.0]], [-1]), KernelConfig(1.0, 1.0))
        assert score_one(m2, [0.1])[1] == -1      # f < 0

    def test_zero_goes_to_plus_one(self):
        # Far from every labeled point the kernel underflows to exactly zero,
        # so f(u) == 0.0 and the tie must resolve to +1.
        m = fit(LabeledSet([[-1.0], [1.0]], [1, -1]), KernelConfig(1.0, 1.0))
        assert m.predict([[1e6]])[0] == 0.0
        assert score_one(m, [1e6])[1] == 1

    def test_empty_model_gives_plus_one(self):
        m = KernelInterpolator.empty(KernelConfig(1.0), dim=1)
        assert score_one(m, [3.0])[1] == 1

    def test_values_within_the_tie_tolerance_go_to_plus_one(self):
        f = np.array([-1.1e-12, -1e-12, -3.3e-17, 0.0, 1e-12, 0.3, -0.3])
        assert np.array_equal(sign_labels(f), [-1, 1, 1, 1, 1, 1, -1])

    def test_symmetric_midpoint_is_plus_one_on_every_path(self):
        # Halfway between -1 at (0, 0.25) and +1 at (0, 1), f = 0 exactly; the
        # dense path computes -3.3e-17 and the incremental state 0.0.
        cfg = KernelConfig(0.2, 1.0)
        points = np.array([[0.0, 0.25], [0.0, 1.0], [0.0, 0.625]])
        m = fit(LabeledSet(points[:2], [-1, 1]), cfg)
        assert abs(m.predict(points[2:])[0]) <= 1e-12
        assert score_one(m, points[2])[1] == 1
        for kind in ScoreKind:
            state = ScoringState(points, cfg, kind)
            state.add(0, -1)
            state.add(1, 1)
            assert state.scores()[1][0] == 1
            assert score_pool(m, points[2:], kind)[1][0] == 1

    def test_matches_argmin_of_augmented_norms(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = random_model(rng)
            u = rng.uniform(size=m.base.dim)
            n_plus = augmented_fit(m, u, 1).norm_sq
            n_minus = augmented_fit(m, u, -1).norm_sq
            est = score_one(m, u)[1]
            if abs(n_plus - n_minus) > 1e-10:
                assert est == (1 if n_plus < n_minus else -1)


class TestFunctionNormScore:
    def test_empty_model_scores_one(self):
        m = KernelInterpolator.empty(KernelConfig(0.5), dim=2)
        for u in ([0.0, 0.0], [3.0, -1.0]):
            assert score_one(m, u)[0] == 1.0

    def test_isolated_pair_midpoint_value(self):
        # 4 / (1 - exp(-gap/h)) - 1 at the midpoint of an opposite pair.
        for gap, h in ((1.0, 0.5), (0.4, 0.1), (3.0, 1.0)):
            m = fit(LabeledSet([[0.0], [gap]], [1, -1]), KernelConfig(h, 1.0))
            got = score_one(m, [gap / 2])[0]
            want = 4.0 / (1.0 - np.exp(-gap / h)) - 1.0
            assert got == pytest.approx(want, rel=1e-12)

    def test_matches_min_of_double_refit(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m = random_model(rng)
            u = rng.uniform(size=m.base.dim)
            both = (augmented_fit(m, u, 1).norm_sq, augmented_fit(m, u, -1).norm_sq)
            assert score_one(m, u)[0] == pytest.approx(min(both), rel=1e-8)

    def test_never_below_current_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = random_model(rng)
            u = rng.uniform(size=m.base.dim)
            assert score_one(m, u)[0] >= m.norm_sq - 1e-12

    def test_duplicate_candidate_rejected(self):
        m = fit(LabeledSet([[0.0], [1.0]], [1, -1]), KernelConfig(0.5, 1.0))
        with pytest.raises(DuplicatePointError):
            score_one(m, [1.0])

    def test_separated_balls_unlabeled_ball_outranks_labeled(self):
        # Cross-ball kernels are <= 26^-13, so a candidate in an unlabeled
        # ball raises the norm by (1 - |f|)^2 / S = 1; in a ball with one
        # label at distance <= 2r = h/2 the rise is (1 - c)/(1 + c) with
        # c >= e^{-1/2}. Hence the function score visits every ball first.
        spec = cluster_explore_spec(0.1)
        pool = gen_clusters(spec, 0)
        ball = spec.locate(pool.points)
        labeled = [int(np.flatnonzero(ball == b)[0]) for b in range(6)]
        m = fit(LabeledSet(pool.points[labeled], pool.hidden_labels[labeled]),
                KernelConfig(0.1, 2.0))
        rest = np.setdiff1d(np.arange(len(pool.points)), labeled)
        scores, _ = score_pool(m, pool.points[rest], ScoreKind.FUNCTION_NORM)
        rise = scores - m.norm_sq
        in_labeled = ball[rest] < 6
        k = np.exp(-0.5)
        assert np.all(np.abs(rise[~in_labeled] - 1.0) <= 1e-12)
        assert np.all(rise[in_labeled] <= (1.0 - k) / (1.0 + k))


class TestDataNormScore:
    def test_empty_model_is_mean_squared_kernel(self):
        m = KernelInterpolator.empty(KernelConfig(0.7, 1.0), dim=1)
        pool = np.array([0.25, 0.0, 0.5, 2.0])
        got = score_pool(m, pool, ScoreKind.DATA_NORM)[0][0]
        want = np.mean(np.exp(-np.abs(0.25 - pool) / 0.7) ** 2)
        assert got == pytest.approx(want, rel=1e-14)

    def test_mirror_symmetry(self):
        # Mirror-image candidates under a mirror-symmetric configuration
        # receive exactly equal scores.
        m = fit(LabeledSet([[-1.0], [1.0]], [1, -1]), KernelConfig(0.5, 1.0))
        pool = [[-0.75], [-0.4], [-0.25], [0.25], [0.4], [0.75]]
        scores = score_pool(m, pool, ScoreKind.DATA_NORM)[0]
        assert scores[1] == pytest.approx(scores[4], rel=1e-12)

    def test_matches_explicit_double_fit_average(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            m = random_model(rng)
            d = m.base.dim
            pool = rng.uniform(size=(int(rng.integers(2, 30)), d))
            scores, labels = score_pool(m, pool, ScoreKind.DATA_NORM)
            aug = augmented_fit(m, pool[0], int(labels[0]))
            diff = aug.predict(pool) - m.predict(pool)
            want = float(np.mean(diff ** 2))
            assert scores[0] == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestScorePool:
    def test_matches_single_point_scores(self):
        # Every candidate's score is its own refit's: the augmented norm, or the
        # mean squared change over the pool.
        rng = np.random.default_rng(25)
        for kind in ScoreKind:
            m = random_model(rng)
            pool = rng.uniform(size=(15, m.base.dim))
            scores, labels = score_pool(m, pool, kind)
            for i, u in enumerate(pool):
                aug = augmented_fit(m, u, int(labels[i]))
                if kind is ScoreKind.FUNCTION_NORM:
                    want = min(aug.norm_sq, augmented_fit(m, u, -int(labels[i])).norm_sq)
                    assert scores[i] == pytest.approx(score_one(m, u)[0], rel=1e-10, abs=1e-12)
                else:
                    want = np.mean((aug.predict(pool) - m.predict(pool)) ** 2)
                assert scores[i] == pytest.approx(want, rel=1e-8, abs=1e-12)
                assert labels[i] == score_one(m, u)[1]

    def test_labels_follow_sign_of_f(self):
        rng = np.random.default_rng(26)
        m = random_model(rng)
        pool = rng.uniform(size=(20, m.base.dim))
        _, labels = score_pool(m, pool, ScoreKind.FUNCTION_NORM)
        f = m.predict(pool)
        assert np.array_equal(labels, np.where(f >= 0, 1, -1))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("labeled", [[], [0.1, 0.8]], ids=["empty", "fitted"])
    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_a_1d_array_is_its_column_of_points(self, kind, labeled, p):
        # A 1-D array holds n points in one dimension: the same scores and
        # labels, bit for bit, as the (n, 1) array of them.
        cfg = KernelConfig(0.3, p)
        m = (fit(LabeledSet(np.array(labeled)[:, None], [1, -1]), cfg) if labeled
             else KernelInterpolator.empty(cfg, dim=1))
        x = np.random.default_rng(30).uniform(size=40)
        got, want = score_pool(m, x, kind), score_pool(m, x[:, None].copy(), kind)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("pool", [[[0.0]], [0.0, 1.0], [[0.0, 0.0, 0.0]]],
                             ids=["column", "1d", "3d-point"])
    def test_dimension_mismatch(self, pool):
        # One-dimensional points, as an (n, 1) or a 1-D array, or 3-D points
        # against a 2-D model.
        m = fit(LabeledSet([[0.0, 0.0]], [1]), KernelConfig(1.0))
        with pytest.raises(ValueError, match="dimension"):
            score_pool(m, np.array(pool), ScoreKind.FUNCTION_NORM)

    @pytest.mark.parametrize("pool", [0.5, np.zeros((2, 1, 1))], ids=["scalar", "3d-array"])
    def test_points_must_be_a_1d_or_2d_array(self, pool):
        # Even under the empty model, which would broadcast a 3-D array.
        m = KernelInterpolator.empty(KernelConfig(1.0), dim=1)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            score_pool(m, pool, ScoreKind.DATA_NORM)

    def test_duplicate_pool_point_rejected(self):
        m = fit(LabeledSet([[0.0], [1.0]], [1, -1]), KernelConfig(0.5))
        with pytest.raises(DuplicatePointError):
            score_pool(m, [[0.5], [1.0]], ScoreKind.FUNCTION_NORM)

    def test_string_kind_rejected(self):
        # The string "function" is not a ScoreKind; it must not fall through
        # to the data score.
        m = fit(LabeledSet([[0.0], [1.0]], [1, -1]), KernelConfig(0.5))
        pool = [[0.25], [0.5]]
        with pytest.raises(ValueError, match="unknown score kind"):
            score_pool(m, pool, "function")
        with pytest.raises(ValueError, match="unknown score kind"):
            select_next(m, pool, "function", 0)


@st.composite
def label_sequences(draw):
    """Points on a 1/8 grid (repeats allowed), a kernel, and a label sequence
    whose indices may repeat."""
    d = draw(st.sampled_from([1, 2]))
    cfg = KernelConfig(draw(st.sampled_from([0.2, 0.5, 1.0])),
                       draw(st.sampled_from([1.0, 2.0])))
    n = draw(st.integers(2, 12))
    coords = draw(st.lists(st.integers(0, 8), min_size=n * d, max_size=n * d))
    points = np.array(coords, dtype=float).reshape(n, d) / 8.0
    order = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(order),
                           max_size=len(order)))
    return points, cfg, order, labels


class TestScoringState:
    @settings(max_examples=150, deadline=None)
    @given(label_sequences())
    def test_matches_score_pool_on_a_fresh_fit(self, case):
        points, cfg, order, labels = case
        states = {kind: ScoringState(points, cfg, kind) for kind in ScoreKind}
        labeled = []
        for i, y in zip(order, labels):
            try:
                LabeledSet(points[labeled + [i]], labels[:len(labeled) + 1])
            except DuplicatePointError:
                for state in states.values():
                    with pytest.raises(DuplicatePointError):
                        state.add(i, y)
                return
            for state in states.values():
                state.add(i, y)
            labeled.append(i)
            try:
                model = fit(LabeledSet(points[labeled], labels[:len(labeled)]), cfg)
            except ConditioningError:
                assume(False)
            pool_idx = np.setdiff1d(np.arange(len(points)), labeled)
            if len(pool_idx) == 0:
                return
            pool = points[pool_idx]
            A = kernel_matrix(model.base.points, pool, cfg)
            schur = 1.0 - np.einsum("ij,ij->j", A, model.solve(A))
            for kind, state in states.items():
                np.testing.assert_allclose(state.f[pool_idx], model.predict(pool),
                                           rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(state.schur[pool_idx], schur,
                                           rtol=1e-10, atol=1e-12)
                try:
                    want, want_labels = score_pool(model, pool, kind)
                except DuplicatePointError:
                    with pytest.raises(DuplicatePointError):
                        state.scores()
                    continue
                got, got_labels = state.scores()
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
                assert np.array_equal(got_labels, want_labels)

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_scores_cover_the_unlabeled_points_in_index_order(self, kind):
        # The unlabeled points 0, 2, 3 lie at x = 0, 0.9, 0.2: not in x order.
        points, cfg = np.array([[0.0], [0.5], [0.9], [0.2]]), KernelConfig(0.5)
        state = ScoringState(points, cfg, kind)
        state.add(1, 1)
        want = score_pool(fit(LabeledSet(points[[1]], [1]), cfg),
                          points[[0, 2, 3]], kind)
        got = state.scores()
        assert len(got[0]) == 3 and len(set(got[0])) == 3
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=150, deadline=None)
    @given(label_sequences(), st.integers(0, 2**32 - 1))
    def test_select_matches_pick_on_its_scores(self, case, seed):
        # Before each label, and after the last: the pick among scores(), by
        # the unlabeled points' indices, with the generator in the same state
        # afterwards, or the same error.
        points, cfg, order, labels = case
        rng = np.random.default_rng(seed)
        for kind in ScoreKind:
            state = ScoringState(points, cfg, kind)
            labeled = []
            for step in range(len(order) + 1):
                pool_idx = np.setdiff1d(np.arange(len(points)), labeled)
                ref_rng = copy.deepcopy(rng)
                if len(pool_idx) == 0:
                    with pytest.raises(EmptyPoolError):
                        state.select(rng)
                    break
                try:
                    want = pick(*state.scores(), ref_rng)
                except DuplicatePointError:
                    with pytest.raises(DuplicatePointError):
                        state.select(rng)
                else:
                    got = state.select(rng)
                    assert (got.index, got.label, got.score) == \
                        (int(pool_idx[want.index]), want.label, want.score)
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                if step == len(order):
                    break
                try:
                    state.add(order[step], labels[step])
                except DuplicatePointError:
                    break
                labeled.append(order[step])

    @pytest.mark.parametrize("layout", ["13 balls", "5 balls in 5-D"])
    def test_row_sums_follow_a_dense_recompute(self, layout):
        # The data score's row sums of R^2 come from a recurrence that never
        # forms R; after every label of a run they must match the row sums of
        # R = K - W^T W with the labeled rows and columns zeroed.
        if layout == "13 balls":
            spec, cfg, budget = cluster_explore_spec(0.1), KernelConfig(0.1, 2.0), 39
        else:
            spec = ClusterSpec(3.0 * np.eye(5), [0.125] * 5, [1, -1, 1, -1, 1],
                               [200] * 5, p=2.0)
            cfg, budget = KernelConfig(0.5, 2.0), 40
        pool = gen_clusters(spec, 0)
        K = kernel_matrix(pool.points, pool.points, cfg)
        state = ScoringState(pool.points, cfg, ScoreKind.DATA_NORM)
        rng, labeled = np.random.default_rng(0), []
        for _ in range(budget):
            i = state.select(rng).index
            state.add(i, int(pool.hidden_labels[i]))
            labeled.append(i)
            W = state._rows[:len(labeled)]
            R = K - W.T @ W
            R[labeled, :] = 0.0
            R[:, labeled] = 0.0
            unlabeled = np.setdiff1d(np.arange(len(K)), labeled)
            np.testing.assert_allclose(state._r2[unlabeled],
                                       np.einsum("ij,ij->j", R, R)[unlabeled], rtol=1e-10)

    def test_capacity_bounds_the_labels(self):
        state = ScoringState([[0.0], [0.5], [1.0]], KernelConfig(0.5),
                             ScoreKind.FUNCTION_NORM, capacity=1)
        state.add(0, 1)
        with pytest.raises(ValueError, match="at most 1 labels"):
            state.add(2, -1)

    def test_string_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown score kind"):
            ScoringState([[0.0]], KernelConfig(0.5), "data")


    def test_refuses_a_size_beyond_physical_memory(self):
        # A zero-copy view of 10^7 points: the refusal must come before any allocation.
        points = np.broadcast_to(np.zeros((1, 2)), (10**7, 2))
        with pytest.raises(MemoryError, match="n = 10000000 points needs 1600000000000000 "):
            ScoringState(points, KernelConfig(0.5), ScoreKind.DATA_NORM)
        with pytest.raises(MemoryError, match="n = 10000000 points needs 800000000000000 "):
            ScoringState(points, KernelConfig(0.5), ScoreKind.FUNCTION_NORM)


class TestSortOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats()), max_size=300))
    def test_equals_the_stable_argsort(self, keys):
        # Repeats, -0.0 next to 0.0, infinities and NaN take the stable fallback.
        x = np.array(keys, dtype=float)
        assert np.array_equal(sort_order(x), np.argsort(x, kind="stable"))

    def test_large_pools_with_and_without_repeats(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=20000)
        assert np.array_equal(sort_order(x), np.argsort(x, kind="stable"))
        x[rng.integers(len(x), size=50)] = x[:50]
        assert np.array_equal(sort_order(x), np.argsort(x, kind="stable"))


@st.composite
def interval_cases(draw):
    """1-D points on a 1/16 grid of [0, 1] (repeats allowed; sorted or shuffled),
    a bandwidth, and a label sequence whose indices may repeat."""
    n = draw(st.integers(2, 12))
    points = np.array(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 16.0
    if draw(st.booleans()):
        points = np.sort(points)
    h = draw(st.sampled_from([1e-3, 0.01, 0.2, 1.0]))  # h = 1e-3: [0, 1] spans 1000 h
    order = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(order),
                           max_size=len(order)))
    return points[:, None], KernelConfig(h, 1.0), order, labels


class TestIntervalState:
    @settings(max_examples=200, deadline=None)
    @given(interval_cases())
    def test_matches_the_generic_state(self, case):
        points, cfg, order, labels = case
        pairs = [(IntervalState(points, cfg, kind), ScoringState(points, cfg, kind))
                 for kind in ScoreKind]
        labeled = []
        for i, y in zip(order, labels):
            for fast, generic in pairs:
                try:
                    generic.add(i, y)
                except DuplicatePointError:
                    with pytest.raises(DuplicatePointError):
                        fast.add(i, y)
                    return
                fast.add(i, y)
            labeled.append(i)
            pool_idx = np.setdiff1d(np.arange(len(points)), labeled)
            if len(pool_idx) == 0:
                return
            for fast, generic in pairs:
                np.testing.assert_allclose(fast.f[pool_idx], generic.f[pool_idx],
                                           rtol=1e-10, atol=1e-11)
                np.testing.assert_allclose(fast.schur[pool_idx], generic.schur[pool_idx],
                                           rtol=1e-10, atol=1e-12)
                assert fast.norm_sq == pytest.approx(generic.norm_sq, rel=1e-10)
                try:
                    want, want_labels = generic.scores()
                except DuplicatePointError:
                    with pytest.raises(DuplicatePointError):
                        fast.scores()
                    continue
                got, got_labels = fast.scores()
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
                assert np.array_equal(got_labels, want_labels)

    def test_schur_and_f_against_exact_arithmetic(self):
        # Twelve points 1e-5 h apart, the even ones labeled: the Gram matrix is
        # ill-conditioned, and the generic state's S at point 9 is off by
        # about 2e-11 relative, while the closed forms stay at rounding level.
        points = 0.5 + 1e-5 * np.arange(12.0)
        labeled, labels = [0, 2, 4, 6, 8, 10], [1, -1, -1, 1, 1, -1]
        fast = IntervalState(points[:, None], KernelConfig(1.0, 1.0), ScoreKind.DATA_NORM)
        generic = ScoringState(points[:, None], KernelConfig(1.0, 1.0), ScoreKind.DATA_NORM)
        for i, y in zip(labeled, labels):
            fast.add(i, y)
            generic.add(i, y)
        with mpmath.workdps(60):
            x = [mpmath.mpf(float(v)) for v in points]
            K = mpmath.matrix([[mpmath.exp(-abs(x[i] - x[j])) for j in labeled]
                               for i in labeled])
            k = mpmath.matrix([mpmath.exp(-abs(x[i] - x[9])) for i in labeled])
            alpha = mpmath.lu_solve(K, k)
            schur = float(1 - (k.T * alpha)[0])
            f = float((mpmath.matrix(labels).T * alpha)[0])
        assert fast.schur[9] == pytest.approx(schur, rel=1e-14)
        assert fast.f[9] == pytest.approx(f, abs=1e-15)
        assert generic.schur[9] == pytest.approx(schur, rel=1e-9)

    def test_predict_is_the_fitted_models(self):
        # Queries on the labels, between them, beyond them and infinite.
        rng = np.random.default_rng(23)
        points = rng.permutation(np.linspace(0.0, 1.0, 41))[:, None]
        X = np.concatenate([points, rng.uniform(-2.0, 3.0, size=(50, 1)),
                            [[-np.inf], [np.inf]]])
        for kind in ScoreKind:
            state = IntervalState(points, KernelConfig(0.1, 1.0), kind)
            assert np.array_equal(state.predict(X), np.zeros(len(X)))
            labels = rng.choice([-1, 1], size=12)
            for k, (i, y) in enumerate(zip(range(0, 36, 3), labels), start=1):
                state.add(i, int(y))
                model = fit(LabeledSet(points[0:3 * k:3], labels[:k]), KernelConfig(0.1, 1.0))
                assert np.array_equal(state.predict(X), model.predict(X))

    def test_the_learner_takes_it_for_1d_p1_only(self):
        # A scored 1-D p = 1 run learns with its IntervalState; other kernel runs
        # grow a model, beside a ScoringState when scored.
        line, plane = np.linspace(0.0, 1.0, 5)[:, None], np.zeros((5, 2))
        data, no_state = ScoreKind.DATA_NORM, type(None)
        for points, p, kind, cls, state in (
                (line, 1.0, data, IntervalState, None),
                (line, 1.0, None, _ModelLearner, no_state),
                (line, 2.0, data, _ModelLearner, ScoringState),
                (plane, 1.0, data, _ModelLearner, ScoringState),
                (plane, 1.0, None, _ModelLearner, no_state)):
            learner = _learner(ModelConfig("kernel", 0.1, p), points, kind, 3,
                               np.arange(5), np.ones(5, int))
            assert type(learner) is cls
            if state is not None:
                assert type(learner.state) is state

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_scores_cover_the_unlabeled_points_in_index_order(self, kind):
        # The unlabeled points 0, 2, 3 lie at x = 0, 0.9, 0.2: not in x order.
        points, cfg = np.array([[0.0], [0.5], [0.9], [0.2]]), KernelConfig(0.5, 1.0)
        fast, generic = IntervalState(points, cfg, kind), ScoringState(points, cfg, kind)
        for state in (fast, generic):
            state.add(1, 1)
        got, want = fast.scores(), generic.scores()
        assert len(got[0]) == 3 and len(set(got[0])) == 3
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        assert np.array_equal(got[1], want[1])

    def test_string_kind_and_bad_label_rejected(self):
        with pytest.raises(ValueError, match="unknown score kind"):
            IntervalState([[0.0]], KernelConfig(0.5, 1.0), "data")
        state = IntervalState([[0.0]], KernelConfig(0.5, 1.0), ScoreKind.DATA_NORM)
        with pytest.raises(ValueError, match="label must be"):
            state.add(0, 0)


@st.composite
def interval_runs(draw):
    """A 1-D run of 2 to 60 labels: points on a coarse grid (mirror images
    common) or a fine one, distinct or with repeats, oracle labels, the model,
    the score kind and a generator seed.  Runs start at the two extremes, as
    1-D runs do."""
    grid, unique = draw(st.sampled_from([16, 256, 2**30])), draw(st.booleans())
    n = draw(st.integers(3, min(80, grid + 1) if unique else 80))
    x = np.array(draw(st.lists(st.integers(0, grid), min_size=n, max_size=n,
                               unique=unique))) / grid
    oracle = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    model = draw(st.sampled_from(["kernel", "spline"]))
    h = draw(st.sampled_from([0.01, 0.1, 1.0]))
    labels = draw(st.integers(2, min(60, n)))
    random_steps = draw(st.sets(st.integers(2, max(2, labels - 1))))
    return x, oracle, model, h, draw(st.sampled_from(list(ScoreKind))), labels, \
        random_steps, draw(st.integers(0, 2**32 - 1))


def _state_and_reference(x, oracle, model, h, kind):
    """The run's state, its select, and the reference: ``pick`` on the full pool's scores."""
    if model == "kernel":
        state = IntervalState(x[:, None], KernelConfig(h, 1.0), kind, oracle=oracle)
        return (state, lambda labeled, rng: state.select(rng),
                lambda labeled, rng: pick(*state.scores(), rng))
    state = SplineState(x, kind)

    def reference(labeled, rng):
        assert state.weight_norm == fit_spline(x[labeled], oracle[labeled]).weight_norm
        return pick(*state.scores(), rng)
    return state, lambda labeled, rng: state.select(rng), reference


def _check_select_matches_reference(x, oracle, model, h, kind, labels, random_steps, seed):
    """Each step's select equals ``pick`` on every unlabeled point's scores (index,
    label, score, the generator after the draw), or both raise the same error."""
    state, select, reference = _state_and_reference(x, oracle, model, h, kind)
    rng = np.random.default_rng(seed)
    labeled = []
    for step in range(labels):
        pool_idx = np.setdiff1d(np.arange(len(x)), labeled)
        if step < 2:
            i = int((np.argmin if step == 0 else np.argmax)(x))
        else:
            ref_rng = copy.deepcopy(rng)
            try:
                want = reference(labeled, ref_rng)
            except (DuplicatePointError, OutOfRangeError) as err:
                with pytest.raises(type(err)):
                    select(labeled, rng)
                return "raised"
            got = select(labeled, rng)
            assert (got.index, got.label, got.score) == \
                (int(pool_idx[want.index]), want.label, want.score)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            i = int(rng.choice(pool_idx)) if step in random_steps else got.index
        if i in labeled:
            return "repeat"  # both extremes are one point
        try:
            state.add(i, int(oracle[i]))
        except DuplicatePointError:
            assert np.any(x[labeled] == x[i])
            return "raised"
        labeled.append(i)
        if model == "kernel":
            assert state.n_wrong == np.count_nonzero((state.f >= 0) != (oracle > 0))
    return "done"


class TestIntervalSelect:
    @settings(max_examples=300, deadline=None)
    @given(interval_runs())
    def test_matches_pick_on_the_full_pool(self, case):
        _check_select_matches_reference(*case)

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_equal_extreme_labels_tie_the_whole_spline_pool(self, kind):
        # Between equal labels every function score is the current roughness
        # and every data score 0: the whole pool ties and one draw is made.
        x = np.random.default_rng(40).permutation(np.linspace(0.0, 1.0, 200))
        oracle = np.where(np.abs(x - 0.5) < 0.2, -1, 1)
        state = SplineState(x, kind)
        state.add(int(np.argmin(x)), 1)
        state.add(int(np.argmax(x)), 1)
        assert state.weight_norm == 0.0
        assert len(set(state.scores()[0])) == 1
        rng = np.random.default_rng(41)
        before = rng.bit_generator.state
        state.select(rng)
        assert rng.bit_generator.state != before
        assert _check_select_matches_reference(x, oracle, "spline", 0.1, kind, 40,
                                               set(), 42) == "done"

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_mirror_images_about_a_zero_crossing_tie(self, kind):
        # -1 at 0.25 and +1 at 1: f = 0 exactly at the midpoint 0.625 (label
        # +1), and 0.5, 0.75 mirror each other about it.
        for x in ([0.25, 1.0, 0.5, 0.75], [0.25, 1.0, 0.5, 0.625, 0.75]):
            state = IntervalState(np.array(x)[:, None], KernelConfig(0.2, 1.0), kind)
            state.add(0, -1)
            state.add(1, 1)
            scores, labels = state.scores()
            for seed in range(8):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = state.select(rng), pick(scores, labels, ref)
                assert (got.index, got.label, got.score) == \
                    (want.index + 2, want.label, want.score)
                assert rng.bit_generator.state == ref.bit_generator.state
            if len(x) == 5:
                assert state.f[3] == 0.0 and labels[1] == 1

    @pytest.mark.parametrize("model", ["kernel", "spline"])
    def test_a_repeat_of_a_labeled_point_raises(self, model):
        x = np.array([0.0, 1.0, 0.5, 0.5, 0.25])
        for kind in ScoreKind:
            state, select, _ = _state_and_reference(x, np.array([1, -1, 1, 1, -1]),
                                                    model, 0.1, kind)
            for i in (0, 1, 2):
                state.add(i, [1, -1, 1][i])
            with pytest.raises(DuplicatePointError):
                select([0, 1, 2], np.random.default_rng(0))

    def test_empty_pool_rejected(self):
        points, cfg = [[0.0], [1.0]], KernelConfig(0.5, 1.0)
        kernels = [IntervalState(points, cfg, ScoreKind.DATA_NORM),
                   *(ScoringState(points, cfg, kind) for kind in ScoreKind)]
        spline = SplineState([0.0, 1.0], ScoreKind.DATA_NORM)
        for state in (*kernels, spline):
            state.add(0, 1)
            state.add(1, -1)
        for kernel in kernels:
            with pytest.raises(EmptyPoolError):
                kernel.select(np.random.default_rng(0))
        with pytest.raises(EmptyPoolError):
            spline.select(np.random.default_rng(0))

    def test_error_count_follows_the_labels(self):
        x = np.linspace(0.0, 1.0, 101)
        oracle = np.where(x < 0.3, 1, -1)
        state = IntervalState(x[:, None], KernelConfig(0.1, 1.0), ScoreKind.FUNCTION_NORM,
                              oracle=oracle)
        assert state.n_wrong == np.count_nonzero(oracle < 0)  # f = 0 reads +1
        for i, y in ((0, 1), (100, -1), (50, 1), (30, -1)):  # (50, +1) is a wrong label
            state.add(i, y)
            assert state.n_wrong == np.count_nonzero((state.f >= 0) != (oracle > 0))


class TestPick:
    def test_unique_maximum_draws_nothing(self):
        rng = np.random.default_rng(30)
        state = rng.bit_generator.state
        got = pick(np.array([0.1, 0.5, 0.2]), np.array([1, -1, 1]), rng)
        assert (got.index, got.label, got.score) == (1, -1, 0.5)
        assert rng.bit_generator.state == state

    def test_tie_draws_once_from_the_tie_set(self):
        scores = np.array([0.5, 0.1, 0.5 - 1e-13, 0.5])
        rng = np.random.default_rng(31)
        got = pick(scores, np.ones(4, dtype=int), rng)
        expected = np.random.default_rng(31)
        assert got.index == [0, 2, 3][expected.integers(3)]
        assert rng.bit_generator.state == expected.bit_generator.state


class TestSelectNext:
    def test_single_candidate(self):
        m = fit(LabeledSet([[0.0]], [1]), KernelConfig(1.0))
        got = select_next(m, [[0.7]], ScoreKind.FUNCTION_NORM, 0)
        assert got.index == 0

    @pytest.mark.parametrize("shape", [(0, 1), (0,)], ids=["column", "1d"])
    def test_empty_pool_rejected(self, shape):
        m = fit(LabeledSet([[0.0]], [1]), KernelConfig(1.0))
        with pytest.raises(EmptyPoolError):
            select_next(m, np.empty(shape), ScoreKind.FUNCTION_NORM, 0)

    def test_grid_between_opposite_pair_picks_near_midpoint(self):
        m = fit(LabeledSet([[0.0], [1.0]], [1, -1]), KernelConfig(0.2, 1.0))
        grid = np.linspace(0.05, 0.95, 101)[:, None]
        got = select_next(m, grid, ScoreKind.FUNCTION_NORM, 0)
        assert abs(grid[got.index, 0] - 0.5) <= (grid[1, 0] - grid[0, 0]) / 2 + 1e-12

    def test_deterministic_given_seed(self):
        m = KernelInterpolator.empty(KernelConfig(1.0), dim=1)
        pool = np.linspace(0, 1, 50)[:, None]
        a = select_next(m, pool, ScoreKind.FUNCTION_NORM, 123)
        b = select_next(m, pool, ScoreKind.FUNCTION_NORM, 123)
        assert a == b

    def test_tie_break_is_uniform(self):
        # Empty model, function norm: all scores are exactly 1, so selection
        # frequencies over many draws must be uniform (chi-square p > 0.01).
        m = KernelInterpolator.empty(KernelConfig(1.0), dim=1)
        pool = np.linspace(0, 1, 8)[:, None]
        rng = np.random.default_rng(27)
        counts = np.zeros(8, dtype=int)
        for _ in range(10_000):
            counts[select_next(m, pool, ScoreKind.FUNCTION_NORM, rng).index] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_argmax_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            m = random_model(rng)
            pool = rng.uniform(size=(25, m.base.dim))
            scores, _ = score_pool(m, pool, ScoreKind.FUNCTION_NORM)
            assert int(np.argmax(scores)) == int(np.argmax(np.sqrt(scores)))

    def test_returned_score_and_label_match_pool_scoring(self):
        rng = np.random.default_rng(29)
        m = random_model(rng)
        pool = rng.uniform(size=(30, m.base.dim))
        got = select_next(m, pool, ScoreKind.DATA_NORM, 5)
        scores, labels = score_pool(m, pool, ScoreKind.DATA_NORM)
        assert got.score == scores[got.index]
        assert got.label == labels[got.index]
        assert scores[got.index] >= scores.max() - 1e-12
