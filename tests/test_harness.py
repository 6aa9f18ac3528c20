"""Experiment configs, the sequential selection loop, persistence, summaries.

Oracle strategy: bit-exact replay determinism, trace/CSV round trips, and
hand-checkable small runs (full-budget random labeling, first scored pick of
a constant task, cluster-discovery order).
"""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maximin_al import harness, kernel, scoring
from maximin_al.acceptance import cluster_contrast_spec, cluster_explore_spec, first_point_spec
from maximin_al.exceptions import IngestionError
from maximin_al.harness import (
    ExperimentConfig,
    ModelConfig,
    _build_task,
    load_csv_dataset,
    run_experiment,
    summarize,
    write_dataset_csv,
)
from maximin_al.kernel import (KernelConfig, KernelInterpolator, LabeledSet, augmented_fit,
                               cross_kernel, fit, kernel_matrix)
from maximin_al.spline import SplineInterpolator, SplineState, fit_spline
from maximin_al.synthetic import ClusterSpec, gen_clusters, gen_threshold_task


def threshold_config(**overrides):
    base = dict(
        task={"kind": "threshold", "n": 128, "k": 2},
        model=ModelConfig("kernel", h=0.1, p=1.0),
        score="function",
        budget=12,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def cluster_task(M=4, h=0.2, count=15):
    D = 13.0 * h * np.log(2 * M)
    centers = [[i * (D + h / 2), 0.0] for i in range(M)]
    return {
        "kind": "clusters",
        "centers": centers,
        "radii": [h / 4] * M,
        "labels": ([1, -1] * M)[:M],
        "counts": [count] * M,
        "p": 2.0,
    }


def _task_points(cfg):
    """The points and oracle labels ``run_experiment`` draws for ``cfg``, in task order."""
    task_ss = np.random.SeedSequence(cfg.seed).spawn(2)[0]
    task = cfg.task
    if task["kind"] == "threshold":
        pool = gen_threshold_task(task["n"], task["k"], task_ss)[1]
    else:
        pool = gen_clusters(ClusterSpec(task["centers"], task["radii"], task["labels"],
                                        task["counts"], task["p"]), task_ss)
    return pool.points, pool.hidden_labels


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_config(score="greedy")
        with pytest.raises(ValueError):
            threshold_config(budget=0)
        with pytest.raises(ValueError):
            threshold_config(seed="0")
        with pytest.raises(ValueError):
            threshold_config(init="middle")
        with pytest.raises(ValueError):
            threshold_config(task={"kind": "mystery"})
        with pytest.raises(ValueError):
            ModelConfig("forest")
        with pytest.raises(ValueError):
            ModelConfig("kernel", h=-1.0)
        with pytest.raises(ValueError):  # spline scores need a labeled hull
            threshold_config(model=ModelConfig("spline"), init="none")

    def test_from_dict_round_trip(self, tmp_path):
        raw = {
            "task": {"kind": "threshold", "n": 64, "k": 3},
            "model": {"kind": "kernel", "h": 0.2, "p": 1},
            "score": "data",
            "budget": 9,
            "seed": 4,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.model.h == 0.2 and cfg.score == "data" and cfg.budget == 9
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert ExperimentConfig.from_json(path) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({
                "task": {"kind": "threshold", "n": 64, "k": 3},
                "model": {"kind": "kernel"},
                "score": "data", "budget": 9, "seed": 4, "bonus": True,
            })

    def test_nan_kernel_parameters_rejected(self):
        # ModelConfig checks h and p as KernelConfig does, so NaN fails at load.
        with pytest.raises(ValueError, match="bandwidth"):
            ModelConfig("kernel", h=float("nan"))
        with pytest.raises(ValueError, match="exponent"):
            ModelConfig("kernel", p=float("nan"))

    def test_unknown_model_key_rejected(self):
        raw = {"task": {"kind": "threshold", "n": 64, "k": 3},
               "model": {"kind": "kernel", "bandwith": 0.5},
               "score": "data", "budget": 9, "seed": 4}
        with pytest.raises(ValueError, match="bandwith"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("model,key", [
        ({"kind": "spline", "h": 0.5, "p": 7}, "'h', 'p'"),
        ({"kind": "spline", "p": 1}, "'p'"),
    ])
    def test_kernel_keys_rejected_on_the_spline(self, model, key):
        # The spline has no bandwidth or order; accepting them would ignore them.
        raw = {"task": {"kind": "threshold", "n": 64, "k": 3}, "model": model,
               "score": "data", "budget": 9, "seed": 4}
        with pytest.raises(ValueError, match=f"unknown keys \\[{key}\\]"):
            ExperimentConfig.from_dict(raw)

    def test_missing_config_key_rejected(self):
        raw = {"task": {"kind": "threshold", "n": 64, "k": 3},
               "model": {"kind": "kernel"}, "score": "data", "budget": 9}
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("task,key", [
        ({"kind": "threshold", "n": 64}, "'k'"),
        ({"kind": "clusters", "centers": [[0.0]], "radii": [0.1], "labels": [1]},
         "'counts'"),
        ({"kind": "csv"}, "'path'"),
    ])
    def test_missing_task_key_rejected_at_load(self, task, key):
        with pytest.raises(ValueError, match=f"missing keys .*{key}"):
            threshold_config(task=task)

    def test_unknown_task_key_rejected(self):
        # A holdout belongs to csv tasks; on a threshold task it would do nothing.
        with pytest.raises(ValueError, match="unknown keys .*'holdout'"):
            threshold_config(task={"kind": "threshold", "n": 64, "k": 3, "holdout": 0.5})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_stop_at_zero_must_be_boolean(self, value):
        with pytest.raises(ValueError, match="stop_at_zero"):
            threshold_config(stop_at_zero=value)

    @pytest.mark.parametrize("field,value", [
        ("budget", 3.0), ("budget", "3"), ("budget", True), ("budget", None),
        ("seed", 1.0), ("seed", "1"), ("seed", True), ("seed", False),
    ])
    def test_non_integer_budget_and_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            threshold_config(**{field: value})

    @pytest.mark.parametrize("key", ["n", "k"])
    @pytest.mark.parametrize("value", [True, 3.0, 3.5, "3", None])
    def test_non_integer_threshold_size_rejected(self, key, value):
        task = {"kind": "threshold", "n": 64, "k": 3, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            threshold_config(task=task)
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            harness.sample_task(task, 0)

    def test_with_seed(self):
        cfg = threshold_config()
        assert cfg.with_seed(9).seed == 9
        assert cfg.seed == 0


class TestRunExperiment:
    def test_deterministic_replay(self):
        for score in ("function", "data", "random"):
            cfg = threshold_config(score=score, budget=10)
            a = run_experiment(cfg)
            b = run_experiment(cfg)
            assert [(s.step, s.index, s.estimated_label, s.true_label)
                    for s in a.steps] == \
                   [(s.step, s.index, s.estimated_label, s.true_label)
                    for s in b.steps]
            sa = [s.score for s in a.steps]
            sb = [s.score for s in b.steps]
            assert np.array_equal(np.array(sa), np.array(sb), equal_nan=True)

    def test_no_index_selected_twice(self):
        record = run_experiment(threshold_config(budget=30, score="data"))
        indices = [s.index for s in record.steps]
        assert len(indices) == len(set(indices)) == 30

    def test_budget_exceeding_pool_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(threshold_config(budget=500))

    def test_full_budget_random_reaches_zero_error(self):
        cfg = threshold_config(task={"kind": "threshold", "n": 40, "k": 2},
                               score="random", budget=40)
        record = run_experiment(cfg)
        assert record.final_error == 0.0
        assert record.queries_to_zero is not None
        assert len(record.steps) == 40

    def test_extremes_init_then_near_midpoint_pick(self):
        # Constant task (k=1): after the two forced extreme labels, the first
        # scored function-norm pick is the pool point nearest the hull middle.
        for seed in (0, 1, 2):
            cfg = threshold_config(task={"kind": "threshold", "n": 256, "k": 1},
                                   seed=seed, budget=3)
            record = run_experiment(cfg)
            idx = [s.index for s in record.steps]
            # reconstruct the pool the run saw
            from maximin_al.synthetic import gen_threshold_task
            task_ss, _ = np.random.SeedSequence(seed).spawn(2)
            _, pool = gen_threshold_task(256, 1, task_ss)
            x = pool.points.ravel()
            assert idx[0] == int(np.argmin(x))
            assert idx[1] == int(np.argmax(x))
            assert np.isnan(record.steps[0].score)
            mid = 0.5 * (x.min() + x.max())
            interior = np.array([i for i in range(256) if i not in idx[:2]])
            want = int(interior[np.argmin(np.abs(x[interior] - mid))])
            assert idx[2] == want

    def test_stop_at_zero(self):
        cfg = threshold_config(budget=60, stop_at_zero=True, score="function",
                               task={"kind": "threshold", "n": 128, "k": 2})
        record = run_experiment(cfg)
        assert record.queries_to_zero == len(record.steps) <= 60
        assert record.steps[-1].train_error == 0.0
        assert all(s.train_error > 0 for s in record.steps[:-1])

    def test_queries_to_zero_matches_error_curve(self):
        record = run_experiment(threshold_config(budget=40, score="function"))
        errors = record.train_errors
        if record.queries_to_zero is not None:
            first = next(i + 1 for i, e in enumerate(errors) if e == 0.0)
            assert record.queries_to_zero == first

    def test_cluster_run_discovers_distinct_balls(self):
        cfg = ExperimentConfig(task=cluster_task(M=4), score="data",
                               model=ModelConfig("kernel", h=0.2, p=2.0),
                               budget=4, seed=1)
        record = run_experiment(cfg)
        assert record.per_cluster_counts == [1, 1, 1, 1]
        assert record.first_cluster_repeat_step is None
        assert record.summary_dict()["first_cluster_repeat_step"] is None

    def test_cluster_repeat_step_recorded(self):
        cfg = ExperimentConfig(task=cluster_task(M=3), score="data",
                               model=ModelConfig("kernel", h=0.2, p=2.0),
                               budget=6, seed=1)
        record = run_experiment(cfg)
        summary = record.summary_dict()
        assert summary["first_cluster_repeat_step"] == 4  # 3 balls, step 4 repeats
        assert sum(record.per_cluster_counts) == 6

    @pytest.mark.parametrize("layout", ["explore-13", "contrast-13", "first-point-5"])
    @pytest.mark.parametrize("score", ["function", "data", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_first_cluster_repeat_step_matches_the_steps(self, layout, score, seed):
        # Recompute the first step whose ball already held a label from the
        # queried points alone; the budget exceeds the ball count, so a repeat
        # always happens.
        spec, h = {"explore-13": (cluster_explore_spec(0.1), 0.1),
                   "contrast-13": (cluster_contrast_spec(0.1), 0.1),
                   "first-point-5": (first_point_spec(0.5), 0.5)}[layout]
        task = {"kind": "clusters", "centers": spec.centers.tolist(),
                "radii": spec.radii.tolist(), "labels": spec.labels.tolist(),
                "counts": spec.counts.tolist(), "p": 2.0}
        cfg = ExperimentConfig(task=task, model=ModelConfig("kernel", h=h, p=2.0),
                               score=score, budget=spec.n_balls + 3, seed=seed)
        points, _ = _task_points(cfg)
        record = run_experiment(cfg)
        seen, want = set(), None
        for step in record.steps:
            ball = int(spec.locate(points[step.index])[0])
            if ball in seen:
                want = step.step
                break
            seen.add(ball)
        assert want is not None
        assert record.first_cluster_repeat_step == want
        assert record.summary_dict()["first_cluster_repeat_step"] == want

    @pytest.mark.parametrize("layout", ["threshold-p1", "clusters-p2"])
    @pytest.mark.parametrize("score", ["function", "data"])
    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_run_matches_fresh_select_next_loop(self, layout, score, seed):
        # The run loop scores from an incremental state; a loop that calls
        # select_next on a fresh pool each step must pick the same indices.
        if layout == "threshold-p1":
            task, model, budget = {"kind": "threshold", "n": 200, "k": 3}, (0.1, 1.0), 25
        else:
            task, model, budget = cluster_task(M=4, h=0.2, count=15), (0.2, 2.0), 20
        cfg = ExperimentConfig(task=task, model=ModelConfig("kernel", *model),
                               score=score, budget=budget, seed=seed)
        points, oracle = _task_points(cfg)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        fitted = KernelInterpolator.empty(KernelConfig(*model), dim=points.shape[1])
        forced = ([int(np.argmin(points[:, 0])), int(np.argmax(points[:, 0]))]
                  if layout == "threshold-p1" else [])
        want = []
        for _ in range(budget):
            pool_idx = np.setdiff1d(np.arange(len(points)), want)
            if forced:
                idx = forced.pop(0)
            else:
                chosen = scoring.select_next(fitted, points[pool_idx],
                                             scoring.ScoreKind(score), rng)
                idx = int(pool_idx[chosen.index])
            fitted = augmented_fit(fitted, points[idx], int(oracle[idx]))
            want.append(idx)
        assert [s.index for s in run_experiment(cfg).steps] == want

    @pytest.mark.parametrize("layout", ["kernel-p1", "spline", "clusters-p2"])
    @pytest.mark.parametrize("score", ["function", "data", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_train_error_matches_task_order_dense_evaluation(self, layout, score, seed):
        # The run takes the training error over the points sorted by their
        # first coordinate, through the model's own predict; replaying its
        # labels and evaluating the kernel sum (or the spline) over the points
        # in task order must count the same errors.
        if layout == "clusters-p2":
            cfg = ExperimentConfig(task=cluster_task(M=4, h=0.2, count=15), score=score,
                                   model=ModelConfig("kernel", h=0.2, p=2.0),
                                   budget=20, seed=seed)
        else:
            model = (ModelConfig("spline") if layout == "spline"
                     else ModelConfig("kernel", h=0.1, p=1.0))
            cfg = threshold_config(task={"kind": "threshold", "n": 200, "k": 3},
                                   model=model, score=score, budget=25, seed=seed)
        points, oracle = _task_points(cfg)
        fitted = KernelInterpolator.empty(KernelConfig(cfg.model.h, cfg.model.p),
                                          dim=points.shape[1])
        labeled = []
        for step in run_experiment(cfg).steps:
            labeled.append(step.index)
            if layout == "spline":
                f = fit_spline(points[labeled, 0], oracle[labeled]).predict(points[:, 0])
            else:
                fitted = augmented_fit(fitted, points[step.index], step.true_label)
                f = kernel_matrix(points, fitted.base.points,
                                  fitted.config) @ fitted.coefficients
            assert step.train_error == np.mean(np.where(f >= 0, 1, -1) != oracle)

    @pytest.mark.parametrize("layout,init", [("kernel-p1", "auto"), ("kernel-p1", "none"),
                                             ("clusters-p2", "none")])
    @pytest.mark.parametrize("score", ["function", "data", "random"])
    def test_1d_p1_scored_runs_are_state_only(self, monkeypatch, layout, init, score):
        # 1-D p = 1 runs with a score read f off the interval state and never
        # fit or evaluate a KernelInterpolator; random runs and d > 1 runs do
        # both.  Either way each step's training error is a fresh fit's.
        if layout == "clusters-p2":
            cfg = ExperimentConfig(task=cluster_task(M=4, h=0.2, count=15), score=score,
                                   model=ModelConfig("kernel", h=0.2, p=2.0),
                                   budget=20, seed=1, init=init)
        else:
            cfg = threshold_config(task={"kind": "threshold", "n": 200, "k": 3},
                                   score=score, budget=25, seed=1, init=init)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "augmented_fit", counted("fit", augmented_fit))
        monkeypatch.setattr(KernelInterpolator, "predict",
                            counted("predict", KernelInterpolator.predict))
        steps = run_experiment(cfg).steps
        monkeypatch.undo()
        state_only = layout == "kernel-p1" and score != "random"
        assert (set(calls) == set()) if state_only else (set(calls) == {"fit", "predict"})
        points, oracle = _task_points(cfg)
        config = KernelConfig(cfg.model.h, cfg.model.p)
        for k, step in enumerate(steps, start=1):
            idx = [s.index for s in steps[:k]]
            f = fit(LabeledSet(points[idx], oracle[idx]), config).predict(points)
            assert step.train_error == np.mean(np.where(f >= 0, 1, -1) != oracle)

    def test_random_picks_at_f_zero_record_plus_one(self):
        # Far-apart balls: in a ball with no label yet, f is within 1e-19 of 0
        # and of either sign, and the estimated label must be +1.
        cfg = ExperimentConfig(task=cluster_task(M=6, h=0.2, count=15), score="random",
                               model=ModelConfig("kernel", h=0.2, p=2.0),
                               budget=30, seed=2)
        points, _ = _task_points(cfg)
        fitted = KernelInterpolator.empty(KernelConfig(0.2, 2.0), dim=2)
        negative_zeros = 0
        for step in run_experiment(cfg).steps:
            f = fitted.predict(points[[step.index]])[0]
            negative_zeros += -1e-12 <= f < 0
            assert step.estimated_label == (1 if f >= -1e-12 else -1)
            fitted = augmented_fit(fitted, points[step.index], step.true_label)
        assert negative_zeros >= 1

    def test_spline_model_runs_threshold_task(self):
        cfg = threshold_config(model=ModelConfig("spline"), budget=15,
                               score="function")
        record = run_experiment(cfg)
        assert len(record.steps) == 15
        assert record.final_error <= record.steps[0].train_error

    def test_spline_rejects_multidimensional_task(self):
        cfg = ExperimentConfig(task=cluster_task(), score="function",
                               model=ModelConfig("spline"), budget=4, seed=0)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_extremes_init_rejects_multidimensional_task(self):
        cfg = ExperimentConfig(task=cluster_task(), score="function",
                               model=ModelConfig("kernel", h=0.2), budget=4,
                               seed=0, init="extremes")
        with pytest.raises(ValueError):
            run_experiment(cfg)


LEARNER_LAYOUTS = {
    "kernel-p1": ({"kind": "threshold", "n": 200, "k": 3}, ModelConfig("kernel", 0.1, 1.0)),
    "kernel-p2": ({"kind": "threshold", "n": 200, "k": 3}, ModelConfig("kernel", 0.1, 2.0)),
    "clusters-p2": (cluster_task(M=4, h=0.2, count=15), ModelConfig("kernel", 0.2, 2.0)),
    "spline": ({"kind": "threshold", "n": 200, "k": 3}, ModelConfig("spline")),
    "clusters-5d": ({"kind": "clusters", "centers": (3.0 * np.eye(5)).tolist(),
                     "radii": [0.125] * 5, "labels": [1, -1, 1, -1, 1], "counts": [20] * 5,
                     "p": 2.0}, ModelConfig("kernel", 0.5, 2.0)),
}


def _local_span_sizes(x: np.ndarray, indices, local: bool) -> list[int]:
    """The number of points a model-backed learner evaluates at each label of
    ``indices``: all of ``x`` at the first label and when the model changes
    everywhere; else the points from the largest labeled position below the
    new one through the smallest above it (no bound where there is none)."""
    sizes, labeled = [], []
    for i in indices:
        below = max((p for p in labeled if p < x[i]), default=-np.inf)
        above = min((p for p in labeled if p > x[i]), default=np.inf)
        sizes.append(int(np.count_nonzero((x >= below) & (x <= above)))
                     if local and labeled else len(x))
        labeled.append(x[i])
    return sizes


@st.composite
def _line_learners(draw):
    """Distinct 1-D points in clusters around up to three centres (negative
    ones too, spans up to 1e4 times the cluster width), their +-1 labels, a
    run's 1-D learner over them and an order to label them in: a random
    one, or outward from the middle, a new extreme on alternating sides."""
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 1e4]))
    centres = draw(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=3))
    offsets = draw(st.lists(st.tuples(st.integers(0, len(centres) - 1),
                                      st.integers(-1000, 1000)), min_size=3, max_size=30))
    x = np.array([centres[c] + scale * (k / 1000) for c, k in offsets])
    assume(len(np.unique(x)) == len(x))
    labels = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=len(x),
                                    max_size=len(x))))
    model, kind = draw(st.sampled_from([
        (ModelConfig("spline"), None),
        (ModelConfig("spline"), scoring.ScoreKind.FUNCTION_NORM),
        (ModelConfig("spline"), scoring.ScoreKind.DATA_NORM),
        (ModelConfig("kernel", scale, 1.0), None)]))
    if draw(st.booleans()):
        labeled = draw(st.permutations(range(len(x))))
    else:
        by_x = np.argsort(x)
        middle = len(x) // 2
        labeled = [int(by_x[middle + (k + 1) // 2 * (1 if k % 2 else -1)])
                   for k in range(len(x) - 1)]
    points = x[:, None]
    order = scoring.sort_order(x)
    learner = harness._learner(model, points, kind, len(x), order, labels)
    return points, labels, learner, labeled


class TestLearnerProtocol:
    """Every learner gives the interpolant at each task point by index (``f``);
    a model-backed learner evaluates its model at every point for its first
    label and, when a label changes the model only between its labeled
    neighbours, on that span alone for the rest."""

    @pytest.mark.parametrize("layout", sorted(LEARNER_LAYOUTS))
    def test_model_learner_f_is_predict_at_every_point(self, layout):
        task, model = LEARNER_LAYOUTS[layout]
        points, oracle, _ = harness.sample_task(task, 0)
        order = scoring.sort_order(points[:, 0])
        learner = harness._learner(model, points, None, 20, order, oracle)
        assert isinstance(learner, harness._ModelLearner)
        assert not learner.f.any()
        for i in np.random.default_rng(0).choice(len(points), 20, replace=False):
            learner.add(int(i), int(oracle[i]))
            want = learner.predict(points)
            assert learner.f.tobytes() == want.tobytes()
            assert learner.n_wrong == np.count_nonzero((want >= 0) != (oracle > 0))

    @pytest.mark.parametrize("kind", list(scoring.ScoreKind))
    def test_interval_state_f_has_the_signs_of_predict(self, kind):
        points, oracle, _ = harness.sample_task({"kind": "threshold", "n": 200, "k": 3}, 0)
        state = harness.scoring_state(ModelConfig("kernel", 0.1, 1.0), points, kind, 20,
                                      oracle=oracle)
        labels = [int(np.argmin(points[:, 0])), int(np.argmax(points[:, 0]))]
        labels += list(np.random.default_rng(1).permutation(len(points)))
        for i in dict.fromkeys(labels[:20]):
            assert np.array_equal(scoring.sign_labels(state.f),
                                  scoring.sign_labels(state.predict(points)))
            state.add(int(i), int(oracle[i]))
        assert np.array_equal(scoring.sign_labels(state.f),
                              scoring.sign_labels(state.predict(points)))

    @settings(max_examples=150, deadline=None)
    @given(_line_learners())
    def test_local_evaluation_equals_predict_at_every_point(self, case):
        # After every label the kept values are predict at every point, bit
        # for bit, and n_wrong is a full recount of them; a scored spline
        # run's learner is its SplineState, whose values are fit_spline's.
        points, labels, learner, labeled = case
        x = points[:, 0]
        for k, i in enumerate(labeled):
            learner.add(int(i), int(labels[i]))
            want = learner.predict(points)
            if isinstance(learner, SplineState):
                done = list(labeled[:k + 1])
                assert want.tobytes() == fit_spline(x[done], labels[done]).predict(x).tobytes()
            assert learner.f.tobytes() == want.tobytes()
            assert learner.n_wrong == np.count_nonzero((want >= 0) != (labels > 0))

    @pytest.mark.parametrize("layout", sorted(LEARNER_LAYOUTS))
    @pytest.mark.parametrize("seed", range(2))
    def test_random_runs_evaluate_the_model_once_per_label(self, monkeypatch, layout, seed):
        # Each label evaluates the model once: at all n points for the first
        # label and for a model a label changes everywhere, else on the span
        # between the label's labeled neighbours.  A step's estimated label is
        # the sign of a fresh fit on the labels before it, at the picked point
        # (0, so +1, before any label).
        task, model = LEARNER_LAYOUTS[layout]
        cfg = ExperimentConfig(task=task, model=model, score="random", budget=20, seed=seed)
        rows = []

        def counted(predict, size):
            def wrapper(self, X, **kwargs):
                rows.append(size(X))
                return predict(self, X, **kwargs)
            return wrapper

        monkeypatch.setattr(KernelInterpolator, "predict",
                            counted(KernelInterpolator.predict, lambda X: len(X)))
        monkeypatch.setattr(SplineInterpolator, "predict",
                            counted(SplineInterpolator.predict, np.size))
        steps = run_experiment(cfg).steps
        monkeypatch.undo()
        points, oracle = _task_points(cfg)
        local = model.kind == "spline" or (points.shape[1] == 1 and model.p == 1)
        assert rows == _local_span_sizes(points[:, 0], [s.index for s in steps], local)
        for k, step in enumerate(steps):
            idx = [s.index for s in steps[:k]]
            if not idx:
                f = 0.0
            elif model.kind == "spline":
                f = fit_spline(points[idx, 0], oracle[idx]).predict(points[step.index, 0])[0]
            else:
                fresh = fit(LabeledSet(points[idx], oracle[idx]), KernelConfig(model.h, model.p))
                f = fresh.predict(points[[step.index]])[0]
            assert step.estimated_label == scoring.sign_labels(f)

    @pytest.mark.parametrize("score", ["function", "data"])
    def test_scored_spline_runs_evaluate_the_spline_once_per_label(self, monkeypatch, score):
        # A scored spline run's SplineState evaluates its spline once per
        # label, on the span a model learner would: all n points for the
        # first label, then from the label's labeled neighbours through each
        # other.  The benchmark takes spline.predict's counts on these calls.
        task, model = LEARNER_LAYOUTS["spline"]
        cfg = ExperimentConfig(task=task, model=model, score=score, budget=20, seed=2)
        rows, predict = [], SplineInterpolator.predict

        def counted(self, x):
            rows.append(np.size(x))
            return predict(self, x)
        monkeypatch.setattr(SplineInterpolator, "predict", counted)
        steps = run_experiment(cfg).steps
        monkeypatch.undo()
        x = _task_points(cfg)[0][:, 0]
        assert rows == _local_span_sizes(x, [s.index for s in steps], True)

    @pytest.mark.parametrize("layout", ["kernel-p2", "clusters-p2", "clusters-5d"])
    def test_scored_dense_learners_keep_the_bits_of_predict(self, layout):
        # A learner whose labels change its kernel model everywhere evaluates
        # it from the kernel columns it keeps: after every label f is predict
        # at every point, bit for bit.  The data-kind state reads the columns
        # from its K, the function-kind one evaluates them, and fed the same
        # labels both hold the same bits.
        task, model = LEARNER_LAYOUTS[layout]
        points, oracle, _ = harness.sample_task(task, 0)
        order = scoring.sort_order(points[:, 0])
        learners = {kind: harness._learner(model, points, kind, 25, order, oracle)
                    for kind in scoring.ScoreKind}
        for i in np.random.default_rng(3).choice(len(points), 25, replace=False):
            for learner in learners.values():
                learner.add(int(i), int(oracle[i]))
                assert learner.f.tobytes() == learner.predict(points).tobytes()
            data = learners[scoring.ScoreKind.DATA_NORM].state
            function = learners[scoring.ScoreKind.FUNCTION_NORM].state
            assert data.f.tobytes() == function.f.tobytes()
            assert data.schur.tobytes() == function.schur.tobytes()
            assert data.norm_sq == function.norm_sq
        random = harness._learner(model, points, None, 1, order, oracle)
        random.add(0, 1)
        with pytest.raises(ValueError, match="at most 1 labels"):
            random.add(1, 1)

    @pytest.mark.parametrize("score", ["function", "data", "random"])
    def test_dense_runs_evaluate_each_kernel_entry_once(self, monkeypatch, score):
        # The data score's K(X, X) is the only kernel it evaluates besides the
        # first label's fit; the function score's state and a random run's
        # learner evaluate one column of n entries per label.
        cfg = ExperimentConfig(task=cluster_task(M=4, h=0.2, count=15), score=score,
                               model=ModelConfig("kernel", h=0.2, p=2.0), budget=20, seed=1)
        entries = []

        def counted(X, Y, config):
            entries.append(len(X) * len(Y))
            return cross_kernel(X, Y, config)

        for module in (harness, kernel, scoring):
            monkeypatch.setattr(module, "cross_kernel", counted)
        run_experiment(cfg)
        monkeypatch.undo()
        n = len(_task_points(cfg)[0])
        assert sum(entries) == (n * n + 1 if score == "data" else 1 + cfg.budget * n)

    def test_random_pick_by_index_draws_as_choice(self):
        # run_experiment draws a random pick as pool[rng.integers(len(pool))]:
        # the same draws, from the same stream, as rng.choice(pool).
        for seed in range(40):
            masks = np.random.default_rng(seed)
            mask = masks.random(int(masks.integers(1, 3000))) < masks.uniform(0.01, 1.0)
            mask[masks.integers(len(mask))] = True
            pool = np.flatnonzero(mask)
            by_index, by_choice = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(100):
                assert pool[by_index.integers(len(pool))] == by_choice.choice(pool)
            assert by_index.random() == by_choice.random()

    def test_dense_learner_refuses_a_buffer_beyond_physical_memory(self):
        points = np.zeros((1000, 2))
        with pytest.raises(MemoryError, match="n = 1000 points needs 800000000000000000 "):
            harness._learner(ModelConfig("kernel", 0.5, 2.0), points, None, 10**14,
                             np.arange(1000), np.ones(1000, dtype=int))


class TestCsvDatasets:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        points = rng.normal(size=(30, 3))
        labels = rng.choice([-1, 1], size=30)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, points, labels)
        got_points, got_labels = load_csv_dataset(path)
        assert np.array_equal(got_points, points)
        assert np.array_equal(got_labels, labels)

    def test_run_on_csv_task(self, tmp_path):
        rng = np.random.default_rng(51)
        x = rng.uniform(size=(60, 2))
        y = np.where(x[:, 0] > 0.5, 1, -1)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, x, y)
        cfg = ExperimentConfig(task={"kind": "csv", "path": str(path)},
                               model=ModelConfig("kernel", h=0.3, p=2.0),
                               score="data", budget=10, seed=2)
        record = run_experiment(cfg)
        assert len(record.steps) == 10
        assert record.task_kind == "csv"

    @pytest.mark.parametrize("model,score", [
        (ModelConfig("kernel", h=0.1, p=1.0), "function"),
        (ModelConfig("kernel", h=0.1, p=1.0), "data"),
        (ModelConfig("kernel", h=0.1, p=1.0), "random"),
        (ModelConfig("kernel", h=0.1, p=2.0), "data"),
        (ModelConfig("spline"), "function"),
    ])
    def test_holdout_split(self, tmp_path, model, score):
        # Each step's test error is that of the model fit from scratch to the
        # labels so far, evaluated at the holdout points.
        rng = np.random.default_rng(52)
        x = rng.uniform(size=(50, 1))
        y = np.where(x[:, 0] > 0.4, 1, -1)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, x, y)
        cfg = ExperimentConfig(task={"kind": "csv", "path": str(path),
                                     "holdout": 0.2},
                               model=model, score=score, budget=10, seed=3)
        record = run_experiment(cfg)
        assert record.test_errors is not None and len(record.test_errors) == 10
        assert "final_test_error" in record.summary_dict()
        points, labels, _, test_points, test_labels = _build_task(
            cfg, np.random.SeedSequence(cfg.seed).spawn(2)[0])
        for k in range(1, 11):
            idx = [s.index for s in record.steps[:k]]
            if model.kind == "spline":
                f = fit_spline(points[idx, 0], labels[idx]).predict(test_points[:, 0])
            else:
                f = fit(LabeledSet(points[idx], labels[idx]),
                        KernelConfig(model.h, model.p)).predict(test_points)
            assert record.test_errors[k - 1] == np.mean(np.where(f >= 0, 1, -1) != test_labels)

    def test_holdout_validation(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(path, np.array([[0.0], [1.0]]), np.array([1, -1]))
        cfg = ExperimentConfig(task={"kind": "csv", "path": str(path),
                                     "holdout": 1.5},
                               model=ModelConfig("kernel"), score="function",
                               budget=1, seed=0)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    @pytest.mark.parametrize("model", [ModelConfig("kernel", h=0.1, p=1.0),
                                       ModelConfig("spline")])
    def test_holdout_with_no_test_row_rejected(self, tmp_path, model):
        # 0.001 of 300 rows rounds to no test row: the test error would be 0 / 0.
        x = np.linspace(0.0, 1.0, 300)[:, None]
        path = tmp_path / "data.csv"
        write_dataset_csv(path, x, np.where(x[:, 0] > 0.4, 1, -1))
        cfg = ExperimentConfig(task={"kind": "csv", "path": str(path), "holdout": 0.001},
                               model=model, score="function", budget=5, seed=0)
        with pytest.raises(ValueError, match=r"holdout 0\.001 of 300 rows leaves no test row"):
            run_experiment(cfg)

    @pytest.mark.parametrize("second_label,agree", [(1, "the same"),
                                                     (-1, "a conflicting")])
    def test_duplicate_points_name_both_rows(self, tmp_path, second_label, agree):
        # Loaded, such a file would fail a run with DuplicatePointError once
        # the twin of a labeled point is scored, whether or not labels agree.
        path = tmp_path / "dup.csv"
        path.write_text(f"f0,f1,label\n0.5,0.5,1\n0.1,0.2,-1\n0.5,0.5,{second_label}\n")
        with pytest.raises(IngestionError, match=f"row 4 repeats the point of row 2 "
                                                 f"with {agree} label") as exc:
            load_csv_dataset(path)
        assert exc.value.row == 4

    @pytest.mark.parametrize("content,row", [
        ("", 0),
        ("a,b,label\n0,0,1\n", 0),
        ("f0,label\n", 1),
        ("f0,label\n0.1,1\n0.2\n", 3),
        ("f0,label\n0.1,1\nno,1\n", 3),
        ("f0,label\n0.1,2\n", 2),
        ("f0,label\nnan,1\n", 2),
    ])
    def test_ingestion_errors_carry_row_numbers(self, tmp_path, content, row):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(IngestionError) as exc:
            load_csv_dataset(path)
        assert exc.value.row == row


class TestPersistence:
    def test_trace_schema_and_round_trip(self, tmp_path):
        record = run_experiment(threshold_config(budget=8))
        path = tmp_path / "trace.csv"
        record.write_trace(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,index,t_u,true_label,score,train_error"
        assert len(lines) == 9
        for line, step in zip(lines[1:], record.steps):
            parts = line.split(",")
            assert int(parts[0]) == step.step
            assert int(parts[1]) == step.index
            assert int(parts[2]) == step.estimated_label
            assert int(parts[3]) == step.true_label
            got_score = float(parts[4])
            assert got_score == step.score or (
                np.isnan(got_score) and np.isnan(step.score))
            assert float(parts[5]) == step.train_error

    def test_replay_is_bit_for_bit_at_one_blas_thread_count(self, tmp_path):
        # A 13-ball data-score run, replayed in fresh processes: the same
        # trace bytes at the same OpenBLAS thread count; at 1 and 2 threads
        # only the scores may round differently (dsymv sums in another order).
        script = (
            "import sys\n"
            "from maximin_al import acceptance, harness\n"
            "spec = acceptance.cluster_explore_spec(0.1)\n"
            "task = {'kind': 'clusters', 'centers': spec.centers.tolist(),\n"
            "        'radii': spec.radii.tolist(), 'labels': spec.labels.tolist(),\n"
            "        'counts': spec.counts.tolist(), 'p': 2.0}\n"
            "model = harness.ModelConfig('kernel', 0.1, 2.0)\n"
            "cfg = harness.ExperimentConfig(task=task, model=model, score='data', budget=39,\n"
            "                               seed=0, init='none')\n"
            "harness.run_experiment(cfg).write_trace(sys.argv[1])\n")
        src = str(Path(harness.__file__).resolve().parents[1])
        traces = {}
        for name, threads in (("one", "1"), ("two", "2"), ("two again", "2")):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
            path = tmp_path / f"{name}.csv"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                           timeout=120)
            traces[name] = path.read_bytes()
        assert traces["two"] == traces["two again"]
        one, two = ([line.split(b",") for line in traces[k].splitlines()] for k in ("one", "two"))
        col = one[0].index(b"score")
        assert len(one) == len(two) == 40
        for a, b in zip(one, two):
            assert a[:col] + a[col + 1:] == b[:col] + b[col + 1:]
        scores = np.array([[float(a[col]), float(b[col])] for a, b in zip(one[1:], two[1:])])
        np.testing.assert_allclose(scores[:, 0], scores[:, 1], rtol=1e-12, atol=0)

    def test_summary_json(self, tmp_path):
        record = run_experiment(ExperimentConfig(
            task=cluster_task(M=3), score="data",
            model=ModelConfig("kernel", h=0.2, p=2.0), budget=3, seed=1))
        path = tmp_path / "summary.json"
        record.write_summary(path)
        got = json.loads(path.read_text())
        assert set(got) >= {"queries_to_zero", "final_error",
                            "per_cluster_counts", "first_cluster_repeat_step"}
        assert got["per_cluster_counts"] == record.per_cluster_counts


class TestSteps:
    """``RunRecord.steps`` keeps typed columns and reads back the records it took."""

    @staticmethod
    def _records(n):
        rng = np.random.default_rng(0)
        return [harness.StepRecord(k + 1, int(rng.integers(1 << 40)), int(rng.choice([-1, 1])),
                                   int(rng.choice([-1, 1])),
                                   float("nan") if k % 3 == 0 else float(rng.normal()),
                                   float(rng.random()))
                for k in range(n)]

    def test_reads_back_what_it_took(self):
        records = self._records(50)
        steps = harness.Steps()
        for s in records:
            steps.append(s)
        assert len(steps) == 50
        assert repr(list(steps)) == repr(records)
        assert repr(list(steps.rows())) == repr([astuple(s) for s in records])
        assert repr(steps[3:40:7]) == repr(records[3:40:7])
        assert repr(steps[-1]) == repr(records[-1])
        with pytest.raises(IndexError):
            steps[50]

    def test_item_assignment_and_bitwise_equality(self):
        a, b = harness.Steps(), harness.Steps()
        for s in self._records(10):
            a.append(s)
            b.append(s)
        assert a == b  # NaN scores included
        b[-1] = replace(b[-1], index=7)
        assert b[9].index == 7 and a != b

    def test_a_step_costs_a_few_dozen_bytes(self):
        assert isinstance(run_experiment(threshold_config(budget=2)).steps, harness.Steps)
        records = self._records(20000)
        tracemalloc.start()
        try:
            steps = harness.Steps()
            for s in records:
                steps.append(s)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(steps) < 40  # 34 bytes of columns plus their growth


class TestSummarize:
    def test_single_record_matches_itself(self):
        record = run_experiment(threshold_config(budget=10))
        summary = summarize([record])
        assert summary["n_runs"] == 1
        assert summary["median_error"] == record.train_errors
        assert summary["queries_to_zero"] == [record.queries_to_zero]

    def test_mixed_task_families_rejected(self):
        a = run_experiment(threshold_config(budget=4))
        b = run_experiment(ExperimentConfig(
            task=cluster_task(M=3), score="data",
            model=ModelConfig("kernel", h=0.2, p=2.0), budget=3, seed=1))
        with pytest.raises(ValueError):
            summarize([a, b])
        with pytest.raises(ValueError):
            summarize([])

    def test_uneven_lengths_padded_with_last_value(self):
        short = run_experiment(threshold_config(
            budget=50, stop_at_zero=True, score="function",
            task={"kind": "threshold", "n": 128, "k": 2}))
        full = run_experiment(threshold_config(budget=50, score="function",
                                               seed=5))
        assert len(short.steps) < 50  # the early stop actually triggered
        summary = summarize([short, full])
        assert len(summary["median_error"]) == len(full.steps)
        tail = summary["median_error"][-1]
        assert tail == np.median([short.train_errors[-1], full.train_errors[-1]])

    def test_median_queries_to_zero_ignores_unreached(self):
        records = [run_experiment(threshold_config(budget=45, seed=s,
                                                   score="function"))
                   for s in range(3)]
        summary = summarize(records)
        reached = [q for q in summary["queries_to_zero"] if q is not None]
        if reached:
            assert summary["median_queries_to_zero"] == np.median(reached)
        assert summary["unreached_runs"] == sum(
            q is None for q in summary["queries_to_zero"])

    def test_cluster_std_reported(self):
        records = [run_experiment(ExperimentConfig(
            task=cluster_task(M=3), score="data",
            model=ModelConfig("kernel", h=0.2, p=2.0), budget=5, seed=s))
            for s in (1, 2)]
        summary = summarize(records)
        assert summary["cluster_count_std"] is not None
        assert summary["cluster_count_std"][0] == pytest.approx(
            np.std(records[0].per_cluster_counts))
