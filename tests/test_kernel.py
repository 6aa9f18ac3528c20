"""Kernel evaluation, minimum-norm fitting, and the rank-one augmentation.

Oracle strategy: closed-form two-point norms, direct kernel-sum evaluation,
and full refits on the augmented set serve as independent references for the
incremental (Cholesky-extension) implementation.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

import maximin_al

from maximin_al.exceptions import ConditioningError, DuplicatePointError
from maximin_al.kernel import (
    KernelConfig,
    KernelInterpolator,
    LabeledSet,
    _triangular_solve,
    augmented_fit,
    fit,
    kernel_matrix,
)
from maximin_al.scoring import IntervalState, ScoreKind, ScoringState
from maximin_al.spline import SplineState


def _fitted(points, labels, config):
    """f at the labeled points of a fit."""
    return fit(LabeledSet(points, labels), config).predict(points)


def _state_of(kind):
    def labeled(points, labels, config):
        """f at the labeled points of a scoring state labeled in order."""
        state = ScoringState(points, config, kind)
        for i, y in enumerate(labels):
            state.add(i, y)
        return state.f
    return labeled


# Ways to interpolate labeled points: a fit, and the scoring states.
INTERPOLANTS = [pytest.param(_fitted, id="fit")] + [
    pytest.param(_state_of(kind), id=f"{kind.value}-state") for kind in ScoreKind]


def run_fresh(script: str, *args: str) -> str:
    """Standard output of ``script`` run with ``args`` in a fresh interpreter on this package."""
    src = str(Path(maximin_al.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def kernel_eval(x, x2, config: KernelConfig) -> float:
    """Oracle: ``exp(-||x - x2||_p / h)`` for a single pair of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape:
        raise ValueError(f"point shapes differ: {x.shape} vs {x2.shape}")
    dist = np.linalg.norm(x - x2, ord=config.exponent)
    return float(np.exp(-dist / config.bandwidth))


def random_config(rng, max_n=50, max_d=5):
    """A random labeled set + candidate + config, well separated in [0, 1]^d."""
    n = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    p = float(rng.choice([1.0, 2.0]))
    h = float(rng.uniform(0.2, 2.0))
    pts = rng.uniform(0.0, 1.0, size=(n + 1, d))
    labels = rng.choice([-1, 1], size=n)
    return LabeledSet(pts[:n], labels), pts[n], KernelConfig(h, p)


class TestKernelConfig:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            KernelConfig(0.0)
        with pytest.raises(ValueError):
            KernelConfig(-1.0)
        with pytest.raises(ValueError):
            KernelConfig(float("nan"))

    def test_rejects_exponent_below_one(self):
        with pytest.raises(ValueError):
            KernelConfig(1.0, 0.5)
        with pytest.raises(ValueError):
            KernelConfig(1.0, float("inf"))

    def test_default_exponent_is_two(self):
        assert KernelConfig(1.0).exponent == 2.0


class TestKernelEval:
    def test_coincident_points_give_one(self):
        for cfg in (KernelConfig(0.3, 1), KernelConfig(2.0, 2), KernelConfig(1.0, 3)):
            assert kernel_eval([0.4, -1.2], [0.4, -1.2], cfg) == 1.0

    def test_unit_distance_formula(self):
        cfg = KernelConfig(1.0, 1.0)
        assert kernel_eval([0.0], [2.0], cfg) == pytest.approx(np.exp(-2.0), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            a, b = rng.normal(size=(2, d))
            cfg = KernelConfig(float(rng.uniform(0.1, 3)), float(rng.choice([1, 2, 4])))
            assert kernel_eval(a, b, cfg) == kernel_eval(b, a, cfg)

    def test_range_is_zero_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = rng.normal(scale=5, size=(2, 3))
            v = kernel_eval(a, b, KernelConfig(0.5, 2))
            assert 0.0 < v <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval([0.0], [0.0, 1.0], KernelConfig(1.0))


class TestKernelMatrix:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 3))
        K = kernel_matrix(X, X, KernelConfig(0.7, 1.5))
        assert np.allclose(np.diag(K), 1.0)
        assert np.array_equal(K, K.T)

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=(4, 2))
        cfg = KernelConfig(0.9, 1.0)
        K = kernel_matrix(X, Y, cfg)
        for i in range(5):
            for j in range(4):
                assert K[i, j] == pytest.approx(kernel_eval(X[i], Y[j], cfg), rel=1e-14)

    def test_empty_inputs(self):
        K = kernel_matrix(np.empty((0, 2)), np.ones((3, 2)), KernelConfig(1.0))
        assert K.shape == (0, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.ones((2, 2)), np.ones((2, 3)), KernelConfig(1.0))

    @pytest.mark.parametrize("p", [1.0, 2.0, 1.5, 7.0])
    def test_1d_distance_matches_cdist(self, p):
        # In 1-D |x - y| is the Minkowski distance for every p, so the kernel
        # does not depend on p; cdist computes (|x - y|^p)^(1/p), which is
        # exact for p = 1 and 2 and off by up to an ulp for other p.
        rng = np.random.default_rng(11)
        for scale in (1e-5, 1.0, 1e5):
            X, Y = scale * rng.normal(size=(200, 1)), scale * rng.normal(size=(30, 1))
            got = kernel_matrix(X, Y, KernelConfig(scale, p))
            want = np.exp(-cdist(X, Y, metric="minkowski", p=p) / scale)
            assert np.array_equal(got, kernel_matrix(X, Y, KernelConfig(scale, 1.0)))
            if p in (1.0, 2.0):
                assert np.array_equal(got, want)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_1d_runs_do_not_load_scipy_spatial(self):
        script = (
            "import sys, maximin_al\n"
            "for p in (1, 2):\n"
            "    for score in ('function', 'data', 'random'):\n"
            "        maximin_al.run_experiment(maximin_al.ExperimentConfig.from_dict({\n"
            "            'task': {'kind': 'threshold', 'n': 64, 'k': 2},\n"
            "            'model': {'kind': 'kernel', 'h': 0.1, 'p': p},\n"
            "            'score': score, 'budget': 8, 'seed': 0}))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n")
        assert run_fresh(script) == "[]"

    def test_scipy_loads_only_to_factor_a_kernel_system(self, tmp_path):
        # Importing the package, the 1-D states' runs (kernel p = 1 and
        # spline, scored) and `gen` load no SciPy module; the first fit of a
        # random kernel run loads scipy.linalg.
        spec = tmp_path / "spec.json"
        spec.write_text('{"n": 64, "k": 2}')
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import maximin_al\n"
            "from maximin_al import cli\n"
            "print(scipy_modules())\n"
            "def run(model, score):\n"
            "    maximin_al.run_experiment(maximin_al.ExperimentConfig.from_dict({\n"
            "        'task': {'kind': 'threshold', 'n': 64, 'k': 2}, 'model': model,\n"
            "        'score': score, 'budget': 8, 'seed': 0}))\n"
            "for model in ({'kind': 'kernel', 'h': 0.1, 'p': 1}, {'kind': 'spline'}):\n"
            "    for score in ('function', 'data'):\n"
            "        run(model, score)\n"
            "print(scipy_modules())\n"
            "cli.main(['gen', '--task', 'threshold', '--spec', sys.argv[1],\n"
            "          '--out', sys.argv[2]])\n"
            "print(scipy_modules())\n"
            "run({'kind': 'kernel', 'h': 0.1, 'p': 1}, 'random')\n"
            "print('scipy.linalg' in sys.modules)\n")
        lines = run_fresh(script, str(spec), str(tmp_path / "data.csv")).splitlines()
        assert lines == ["[]", "[]", "wrote 64 rows to " + str(tmp_path / "data.csv"),
                         "[]", "True"]


class TestLabeledSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointError):
            LabeledSet([[0.0], [0.0]], [1, -1])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledSet([[0.0], [1.0]], [1, 0])
        with pytest.raises(ValueError):
            LabeledSet([[0.0]], [2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabeledSet([[0.0], [1.0]], [1])

    def test_one_dimensional_input_promoted(self):
        s = LabeledSet([0.0, 1.0, 2.0], [1, -1, 1])
        assert s.points.shape == (3, 1)
        assert s.dim == 1

    def test_arrays_are_readonly(self):
        s = LabeledSet([[0.0], [1.0]], [1, -1])
        with pytest.raises(ValueError):
            s.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.labels[0] = -1

    def test_append_leaves_original_untouched(self):
        s = LabeledSet([[0.0], [1.0]], [1, -1])
        s2 = s.append([2.0], 1)
        assert len(s) == 2 and len(s2) == 3
        assert s2.labels[-1] == 1
        assert np.array_equal(s2.points[:2], s.points)

    def test_append_dimension_mismatch(self):
        s = LabeledSet([[0.0, 0.0]], [1])
        with pytest.raises(ValueError):
            s.append([1.0], 1)

    def test_append_checks_the_new_row(self):
        s = LabeledSet([[0.0, 0.0], [1.0, 0.5]], [1, -1])
        with pytest.raises(DuplicatePointError):
            s.append([1.0, 0.5], 1)
        for label in (0, 2, 0.5):
            with pytest.raises(ValueError):
                s.append([2.0, 0.0], label)
        point = np.array([2.0, 0.0])
        s2 = s.append(point, -1)
        assert np.array_equal(s2.labels, [1, -1, -1])
        with pytest.raises(ValueError):
            s2.points[2, 0] = 5.0
        point[0] = 3.0  # the caller's array stays writable and unshared
        assert s2.points[2, 0] == 2.0
        first = LabeledSet(np.empty((0, 2)), np.empty(0, dtype=int)).append(point, 1)
        point[1] = 7.0
        assert np.array_equal(first.points, [[3.0, 0.0]])


class TestFit:
    def test_single_point(self):
        m = fit(LabeledSet([[0.5]], [1]), KernelConfig(1.0, 1.0))
        assert np.array_equal(m.coefficients, [1.0])
        assert m.norm_sq == 1.0
        assert m.predict([[1.5]])[0] == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_two_point_opposite_norm(self):
        # closed form 2 / (1 - exp(-gap/h)) for labels (+1, -1)
        for gap, h in ((1.0, 1.0), (0.3, 0.1), (2.5, 0.7)):
            m = fit(LabeledSet([[0.0], [gap]], [1, -1]), KernelConfig(h, 1.0))
            want = 2.0 / (1.0 - np.exp(-gap / h))
            assert m.norm_sq == pytest.approx(want, rel=1e-12)

    def test_two_point_equal_norm(self):
        # closed form 2 / (1 + exp(-gap/h)) for labels (+1, +1)
        for gap, h in ((1.0, 1.0), (0.3, 0.1), (2.5, 0.7)):
            m = fit(LabeledSet([[0.0], [gap]], [1, 1]), KernelConfig(h, 1.0))
            want = 2.0 / (1.0 + np.exp(-gap / h))
            assert m.norm_sq == pytest.approx(want, rel=1e-12)

    def test_empty_set_rejected(self):
        empty = LabeledSet(np.empty((0, 1)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            fit(empty, KernelConfig(1.0))

    @pytest.mark.parametrize("interpolate", INTERPOLANTS)
    def test_not_positive_definite_kernel_rejected(self, interpolate):
        # exp(-||x||_p / h) is not positive definite for d >= 3 and p > 2.
        # Unchecked, a scoring state over 300 uniform 3-D points with p = 8
        # meets a negative Schur complement after 33 labels, which reads as
        # a duplicate point.
        with pytest.raises(ValueError, match="not positive definite in d = 3"):
            interpolate(np.eye(3), [1, -1, 1], KernelConfig(1.0, 4.0))

    @pytest.mark.parametrize("interpolate", INTERPOLANTS)
    def test_positive_definite_dimension_exponent_pairs_accepted(self, interpolate):
        rng = np.random.default_rng(15)
        for d, p in ((1, 8.0), (2, 4.0), (3, 2.0), (5, 1.5)):
            pts, labels = rng.uniform(size=(6, d)), rng.choice([-1, 1], size=6)
            f = interpolate(pts, labels, KernelConfig(0.5, p))
            assert np.max(np.abs(f - labels)) <= 1e-8

    def test_interpolation_constraint(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            labeled, _, cfg = random_config(rng)
            m = fit(labeled, cfg)
            preds = m.predict(labeled.points)
            assert np.max(np.abs(preds - labeled.labels)) <= 1e-8

    def test_norm_equals_y_dot_alpha(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            labeled, _, cfg = random_config(rng)
            m = fit(labeled, cfg)
            assert m.norm_sq == pytest.approx(
                float(labeled.labels @ m.coefficients), rel=1e-12, abs=1e-12)
            assert m.norm_sq >= 0.0

    def test_norm_against_dense_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            labeled, _, cfg = random_config(rng, max_n=20)
            m = fit(labeled, cfg)
            K = kernel_matrix(labeled.points, labeled.points, cfg)
            y = labeled.labels.astype(float)
            want = float(y @ np.linalg.solve(K, y))
            assert m.norm_sq == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_singular_uninterpolatable_raises_with_condition(self):
        # Points whose kernel rows coincide to the last bit, labels (+1, -1):
        # no interpolant exists, so the fit must be refused.
        labeled = LabeledSet([[0.0], [1e-300]], [1, -1])
        with pytest.raises(ConditioningError) as exc:
            fit(labeled, KernelConfig(1.0, 1.0))
        assert exc.value.condition > 1e8

    def test_singular_but_consistent_labels_are_refused(self):
        # The same numerically singular K with labels (+1, +1): a ridge
        # (jittered) solve would meet the residual bound, but fit solves K as
        # given and its Cholesky factorization fails.
        with pytest.raises(ConditioningError):
            fit(LabeledSet([[0.0], [1e-300]], [1, 1]), KernelConfig(1.0, 1.0))


class TestEvaluate:
    def test_labeled_points_return_labels(self):
        rng = np.random.default_rng(14)
        labeled, _, cfg = random_config(rng, max_n=30)
        m = fit(labeled, cfg)
        for x, y in zip(labeled.points, labeled.labels):
            assert m.predict(x[None, :])[0] == pytest.approx(float(y), abs=1e-8)

    def test_far_field_decay(self):
        rng = np.random.default_rng(15)
        labeled, _, cfg = random_config(rng, max_n=20, max_d=3)
        m = fit(labeled, cfg)
        far = labeled.points[0] + 40.0 * cfg.bandwidth  # distance >= 40 h
        direct = sum(a * kernel_eval(far, x, cfg)
                     for a, x in zip(m.coefficients, labeled.points))
        got = m.predict(far[None, :])[0]
        assert abs(got) < 1e-6
        assert got == pytest.approx(direct, abs=1e-12)

    def test_batch_predict_matches_row_by_row(self):
        rng = np.random.default_rng(16)
        labeled, _, cfg = random_config(rng)
        m = fit(labeled, cfg)
        X = rng.uniform(size=(20, labeled.dim))
        preds = m.predict(X)
        for i in range(20):
            assert preds[i] == pytest.approx(m.predict(X[i:i + 1])[0], rel=1e-14, abs=1e-14)

    def test_empty_model_is_zero(self):
        m = KernelInterpolator.empty(KernelConfig(0.5), dim=3)
        assert m.norm_sq == 0.0
        assert np.array_equal(m.predict(np.ones((4, 3))), np.zeros(4))


@st.composite
def markov_cases(draw):
    """A 1-D p = 1 model with 1 to 40 knots, and unsorted queries on the knots,
    between them and beyond the hull."""
    h = draw(st.sampled_from([0.01, 0.1, 0.5, 2.0]))
    knots = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40, unique=True))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(knots),
                           max_size=len(knots)))
    between = draw(st.lists(st.floats(-1.0, 1.0), max_size=20))
    beyond = draw(st.lists(st.floats(1.0, 1e3) | st.floats(-1e3, -1.0), max_size=5))
    queries = draw(st.permutations(knots + between + beyond))
    try:
        model = fit(LabeledSet(np.array(knots)[:, None], labels), KernelConfig(h, 1.0))
    except ConditioningError:
        assume(False)
    return model, np.array(queries).reshape(-1, 1)


def dense_predict(model, X):
    return kernel_matrix(X, model.base.points, model.config) @ model.coefficients


class TestMarkovPredict:
    """``predict``'s closed form for 1-D p = 1 against the dense kernel sum."""

    @settings(max_examples=300, deadline=None)
    @given(markov_cases())
    def test_matches_dense_kernel_sum(self, case):
        model, X = case
        tol = 1e-12 * (1.0 + np.sum(np.abs(model.coefficients)))
        np.testing.assert_allclose(model.predict(X), dense_predict(model, X),
                                   rtol=0, atol=tol)

    def test_knots_closer_than_1e_150_h(self):
        # With equal labels, rounding lets this unjittered Cholesky through
        # although the kernel rows of 0 and 5e-324 are equal.
        model = fit(LabeledSet([[0.75], [0.0], [5e-324]], [-1, -1, -1]),
                    KernelConfig(0.5, 1.0))
        X = np.array([[-1.0], [0.0], [5e-324], [1e-323], [0.3], [0.75], [3.0]])
        tol = 1e-12 * (1.0 + np.sum(np.abs(model.coefficients)))
        np.testing.assert_allclose(model.predict(X), dense_predict(model, X),
                                   rtol=0, atol=tol)

    @settings(max_examples=300, deadline=None)
    @given(markov_cases())
    def test_interval_state_predicts_the_same_bits(self, case):
        # Both evaluate markov_1d on the labels sorted by position, so a
        # run's f is the same whether a model or an IntervalState holds it.
        model, X = case
        state = IntervalState(model.base.points, model.config, ScoreKind.FUNCTION_NORM)
        try:
            for i, y in enumerate(model.base.labels):
                state.add(i, int(y))
        except DuplicatePointError:
            assume(False)
        X = np.vstack([X, [[-np.inf], [np.inf]]])
        assert np.array_equal(state.predict(X), model.predict(X))

    def test_nonfinite_queries_as_the_dense_path(self):
        model = fit(LabeledSet([[0.0], [0.5]], [1, -1]), KernelConfig(0.2, 1.0))
        X = np.array([[-np.inf], [np.inf], [np.nan]])
        assert np.array_equal(model.predict(X), dense_predict(model, X), equal_nan=True)

    @pytest.mark.parametrize("dim,p", [(2, 1.0), (1, 2.0), (1, 1.5), (3, 1.0)])
    def test_other_cases_take_the_dense_path(self, dim, p):
        rng = np.random.default_rng(17)
        model = fit(LabeledSet(rng.uniform(size=(12, dim)), rng.choice([-1, 1], 12)),
                    KernelConfig(0.3, p))
        X = rng.uniform(-0.5, 1.5, size=(50, dim))
        assert np.array_equal(model.predict(X), dense_predict(model, X))

    def test_dimension_mismatch_still_raises(self):
        one = fit(LabeledSet([[0.0], [1.0]], [1, -1]), KernelConfig(0.5, 1.0))
        two = fit(LabeledSet([[0.0, 0.0], [1.0, 0.0]], [1, -1]), KernelConfig(0.5, 1.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            one.predict(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            two.predict(np.zeros((3, 1)))


class TestAugmentedFit:
    def test_empty_base_single_point_norm_one(self):
        m = KernelInterpolator.empty(KernelConfig(1.0), dim=2)
        m2 = augmented_fit(m, [0.3, 0.4], 1)
        assert m2.norm_sq == 1.0
        assert len(m2) == 1

    def test_matches_full_refit(self):
        # The O(L^2) Cholesky extension must agree with a from-scratch solve.
        rng = np.random.default_rng(17)
        for _ in range(200):
            labeled, u, cfg = random_config(rng)
            t = int(rng.choice([-1, 1]))
            base = fit(labeled, cfg)
            inc = augmented_fit(base, u, t)
            ref = fit(labeled.append(u, t), cfg)
            assert inc.norm_sq == pytest.approx(ref.norm_sq, rel=1e-8)
            np.testing.assert_allclose(inc.coefficients, ref.coefficients,
                                       rtol=1e-8, atol=1e-8)

    def test_rank_one_increment_formula(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            labeled, u, cfg = random_config(rng, max_n=25)
            t = int(rng.choice([-1, 1]))
            base = fit(labeled, cfg)
            K = kernel_matrix(labeled.points, labeled.points, cfg)
            a = kernel_matrix(u[None, :], labeled.points, cfg)[0]
            Kinv_a = np.linalg.solve(K, a)
            f_u = float(labeled.labels @ Kinv_a)
            want = base.norm_sq + (1.0 - t * f_u) ** 2 / (1.0 - a @ Kinv_a)
            got = augmented_fit(base, u, t).norm_sq
            assert got == pytest.approx(want, rel=1e-8)

    def test_norm_never_decreases(self):
        rng = np.random.default_rng(19)
        m = KernelInterpolator.empty(KernelConfig(0.4, 1.0), dim=2)
        prev = 0.0
        for _ in range(30):
            u = rng.uniform(size=2)
            m = augmented_fit(m, u, int(rng.choice([-1, 1])))
            assert m.norm_sq >= prev - 1e-12
            prev = m.norm_sq

    def test_interpolates_all_points(self):
        rng = np.random.default_rng(20)
        labeled, u, cfg = random_config(rng, max_n=20)
        t = int(rng.choice([-1, 1]))
        m = augmented_fit(fit(labeled, cfg), u, t)
        preds = m.predict(m.base.points)
        assert np.max(np.abs(preds - m.base.labels)) <= 1e-8

    def test_chain_carries_half_solved_labels(self):
        # f(u) is read off the carried L^{-1} y; after many labels it must
        # still equal a fresh triangular solve against the grown factor.
        rng = np.random.default_rng(21)
        m = KernelInterpolator.empty(KernelConfig(0.3, 2.0), dim=2)
        for _ in range(40):
            m = augmented_fit(m, rng.uniform(size=2), int(rng.choice([-1, 1])))
        want = solve_triangular(m._chol, m.base.labels.astype(float), lower=True)
        np.testing.assert_allclose(m._half_labels, want, rtol=1e-10, atol=1e-10)

    def test_duplicate_candidate_rejected(self):
        labeled = LabeledSet([[0.0], [1.0]], [1, -1])
        m = fit(labeled, KernelConfig(0.5, 1.0))
        with pytest.raises(DuplicatePointError):
            augmented_fit(m, [1.0], 1)

    def test_bad_label_rejected(self):
        m = fit(LabeledSet([[0.0]], [1]), KernelConfig(1.0))
        with pytest.raises(ValueError):
            augmented_fit(m, [1.0], 0)

    def test_dimension_mismatch_rejected(self):
        m = fit(LabeledSet([[0.0, 0.0]], [1]), KernelConfig(1.0))
        with pytest.raises(ValueError):
            augmented_fit(m, [1.0], 1)


class TestTriangularSolve:
    """The direct LAPACK solve against ``scipy.linalg.solve_triangular``."""

    @staticmethod
    def reference(chol, b, trans):
        if trans:
            return solve_triangular(chol, b, lower=True)
        return solve_triangular(chol.T, b, lower=False)

    def test_same_bytes_as_solve_triangular(self):
        rng = np.random.default_rng(23)
        for n in range(1, 301):
            M = rng.normal(size=(n, n))
            chol = np.linalg.cholesky(M @ M.T / n + np.eye(n))
            for b in (rng.normal(size=n), rng.normal(size=(n, 7))):
                for trans in (0, 1):
                    got, want = _triangular_solve(chol, b, trans), self.reference(chol, b, trans)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, trans)

    @pytest.mark.parametrize("trans", [0, 1])
    def test_zero_diagonal_raises_linalg_error(self, trans):
        chol = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.1, 0.2, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            _triangular_solve(chol, np.ones(3), trans)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_right_hand_side_raises_value_error(self, bad):
        chol = np.linalg.cholesky(np.eye(3) + 0.1)
        for b in (np.array([1.0, bad, 0.0]), np.full((3, 2), bad)):
            for trans in (0, 1):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    _triangular_solve(chol, b, trans)


def reference_chain(points, labels, start, config):
    """(factor, coefficients) after each label of a chain grown as
    ``augmented_fit`` grows it from a fit of the first ``start`` labels (or
    from the empty model), solved by ``scipy.linalg.solve_triangular``."""
    first = max(start, 1)
    y = labels[:first].astype(float)
    chol = np.linalg.cholesky(kernel_matrix(points[:first], points[:first], config))
    half = solve_triangular(chol, y, lower=True)
    coeff = solve_triangular(chol.T, half, lower=False)
    out = [(chol, coeff)]
    for n in range(first, len(points)):
        t = labels[n]
        w = solve_triangular(chol, kernel_matrix(points[n:n + 1], points[:n], config)[0],
                             lower=True)
        schur = 1.0 - w @ w
        f_u = w @ half
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n], grown[n, :n], grown[n, n] = chol, w, np.sqrt(schur)
        gamma = (t - f_u) / schur
        coeff = np.append(coeff - gamma * solve_triangular(chol.T, w, lower=False), gamma)
        half = np.append(half, (t - f_u) / grown[n, n])
        chol = grown
        out.append((chol, coeff))
    return out


@st.composite
def markov_chains(draw):
    """Labeled 1-D points, the number fitted before the chain grows (0: from
    the empty model), queries on, between and beyond them and at +-inf and
    NaN, and a subset of the queries by position."""
    h = draw(st.sampled_from([0.01, 0.1, 0.5, 2.0]))
    xs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=25, unique=True))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(xs), max_size=len(xs)))
    start = draw(st.integers(0, len(xs)))
    queries = xs + draw(st.lists(st.floats(-3.0, 3.0), max_size=10)) + [np.inf, -np.inf, np.nan]
    subset = draw(st.lists(st.integers(0, len(queries) - 1), max_size=len(queries)))
    return (np.array(xs)[:, None], np.array(labels), start, KernelConfig(h, 1.0),
            np.array(queries)[:, None], subset)


class TestMarkovChain:
    """1-D p = 1 models carry sorted knots through ``augmented_fit``."""

    @settings(max_examples=200, deadline=None)
    @given(markov_chains())
    def test_chain_matches_a_fresh_sort_and_the_scipy_chain(self, chain):
        points, labels, start, config, X, subset = chain
        try:
            model = (fit(LabeledSet(points[:start], labels[:start]), config) if start
                     else KernelInterpolator.empty(config))
            models = [model] if start else []
            for i in range(start, len(points)):
                model = augmented_fit(model, points[i], labels[i])
                models.append(model)
        except (ConditioningError, DuplicatePointError):
            assume(False)
        for model, (chol, coeff) in zip(models, reference_chain(points, labels, start,
                                                                config)):
            assert model._chol.tobytes() == chol.tobytes()
            assert model.coefficients.tobytes() == coeff.tobytes()
            order = np.argsort(model.base.points[:, 0])
            knots, values = model._knots
            assert np.array_equal(knots, np.concatenate(
                [[-np.inf], model.base.points[order, 0], [np.inf]]))
            assert np.array_equal(values, np.concatenate([[0], model.base.labels[order], [0]]))
            everywhere = model.predict(X)
            assert model.predict(X[subset]).tobytes() == everywhere[subset].tobytes()


@st.composite
def dense_chains(draw):
    """Distinct points on a grid in d = 2, 3 or 5, their +-1 labels, the
    order in which a chain labels some of them, and a p <= 2 kernel."""
    d = draw(st.sampled_from([2, 3, 5]))
    cells = draw(st.lists(st.lists(st.integers(-40, 40), min_size=d, max_size=d),
                          min_size=2, max_size=25, unique_by=tuple))
    scale = draw(st.sampled_from([0.01, 0.1, 1.0]))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(cells), max_size=len(cells)))
    chain = draw(st.permutations(range(len(cells))))[:draw(st.integers(1, len(cells)))]
    config = KernelConfig(draw(st.sampled_from([0.1, 0.5, 2.0])),
                          draw(st.sampled_from([1.0, 1.5, 2.0])))
    return scale * np.array(cells, dtype=float), np.array(labels), chain, config


class TestKernelColumns:
    """A learner keeps the kernel columns of its labels and passes them to
    ``predict`` (``cross``) and ``augmented_fit`` (``row``).  That is bit
    for bit a fresh evaluation because an entry cut from ``K(X, X)`` (a row,
    a column or a block) has the bits of evaluating it alone, in either
    order of its two points, and because a product with a strided C-order
    buffer has the bits of one with a fresh matrix."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 17])
    def test_cut_entries_equal_fresh_ones(self, d, p):
        rng = np.random.default_rng(17 * d + int(2 * p))
        config = KernelConfig(0.7, p)
        for scale in (1e-3, 1.0, 1e3):
            X = scale * rng.normal(size=(40, d))
            K = kernel_matrix(X, X, config)
            for i in range(0, 40, 3):
                column = kernel_matrix(X, X[i:i + 1], config)[:, 0]
                assert K[:, i].tobytes() == column.tobytes()
                assert K[i].tobytes() == column.tobytes()
            S = rng.choice(40, size=9, replace=False)
            block = kernel_matrix(X, X[S], config)
            assert K[:, S].tobytes() == block.tobytes()
            assert K[S].T.tobytes() == block.tobytes()

    def test_strided_product_equals_one_with_a_fresh_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n, budget = int(rng.integers(1, 1200)), int(rng.integers(1, 300))
            L = int(rng.integers(1, budget + 1))
            buffer = np.empty((n, budget))
            buffer[:, :L] = rng.uniform(size=(n, L))
            a = rng.normal(size=L)
            fresh = np.ascontiguousarray(buffer[:, :L])
            assert (buffer[:, :L] @ a).tobytes() == (fresh @ a).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(dense_chains())
    def test_cross_and_row_give_the_bits_of_evaluating_afresh(self, case):
        X, labels, chain, config = case
        K = kernel_matrix(X, X, config)
        buffer = np.empty((len(X), len(chain)))
        model = KernelInterpolator.empty(config, X.shape[1])
        try:
            for L, i in enumerate(chain):
                plain = augmented_fit(model, X[i], labels[i])
                # k(u, X_L) read off the labeled points' columns, as a learner keeps them.
                model = augmented_fit(model, X[i], labels[i], row=K[chain[:L], i])
                for name in ("_chol", "coefficients", "_half_labels"):
                    assert getattr(model, name).tobytes() == getattr(plain, name).tobytes()
                assert model.norm_sq == plain.norm_sq
                assert not np.triu(model._chol, 1).any()
                buffer[:, L] = K[:, i]
                want = model.predict(X).tobytes()
                cross = kernel_matrix(X, model.base.points, config)
                assert model.predict(X, cross=cross).tobytes() == want
                assert model.predict(X, cross=buffer[:, :L + 1]).tobytes() == want
        except (ConditioningError, DuplicatePointError):
            assume(False)

    def test_wrong_shapes_are_rejected(self):
        model = fit(LabeledSet([[0.0, 0.0], [1.0, 0.0]], [1, -1]), KernelConfig(0.5))
        with pytest.raises(ValueError, match="cross has shape"):
            model.predict(np.zeros((3, 2)), cross=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="cross has shape"):
            model.predict(np.zeros((3, 2)), cross=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="row has shape"):
            augmented_fit(model, [0.5, 0.5], 1, row=np.zeros(3))


NONFINITE_ENTRY_POINTS = {
    "labeled-set": lambda bad: LabeledSet([[0.0], [1.0], [bad]], [1, -1, 1]),
    "append": lambda bad: LabeledSet([[0.0], [1.0]], [1, -1]).append([bad], 1),
    "fit": lambda bad: fit(LabeledSet([[0.0], [1.0], [bad]], [1, -1, 1]), KernelConfig(0.5)),
    "augmented-fit": lambda bad: augmented_fit(
        fit(LabeledSet([[0.0], [1.0]], [1, -1]), KernelConfig(0.5, 1.0)), [bad], 1),
    "augmented-fit-empty": lambda bad: augmented_fit(
        KernelInterpolator.empty(KernelConfig(0.5), dim=2), [0.5, bad], 1),
    "scoring-state": lambda bad: ScoringState([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]],
                                              KernelConfig(0.5), ScoreKind.FUNCTION_NORM),
    "interval-state": lambda bad: IntervalState([[0.0], [1.0], [bad]], KernelConfig(0.5, 1.0),
                                                ScoreKind.DATA_NORM),
    "spline-state": lambda bad: SplineState([0.0, 1.0, bad], ScoreKind.FUNCTION_NORM),
}


@pytest.mark.parametrize("entry", NONFINITE_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_point_is_rejected_by_name(entry, bad):
    # Each entry point names the first point with a NaN or infinite
    # coordinate, numbered in the labeled set or the state's points.
    row = 0 if entry == "augmented-fit-empty" else 2
    with pytest.raises(ValueError, match=f"point {row} is not finite"):
        NONFINITE_ENTRY_POINTS[entry](bad)
