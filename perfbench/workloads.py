"""Benchmark workloads: fixed experiment lists per workload, task regeneration,
and the per-experiment output check.

Every experiment is an ``ExperimentConfig`` run exactly as ``maximin-al sweep``
runs one seed.  Experiment seeds derive from the benchmark's ``--seed``, so the
same seed gives the same tasks, selections and counts.  See README.md for why
each workload exists and which layers it loads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from maximin_al import (ClusterSpec, ConditioningError, DuplicatePointError,
                        ExperimentConfig, KernelConfig, LabeledSet, fit, fit_spline,
                        synthetic)
from maximin_al.acceptance import cluster_explore_spec

KERNEL_1D = {"kind": "kernel", "h": 0.1, "p": 1.0}
SPLINE = {"kind": "spline"}

# Seeds per workload invocation: enough experiments that the label count and
# the list's wall time vary little from one benchmark seed to the next.  Odd
# counts give each configuration's median a single run's value.
SEEDS_PER_RUN = {"bisect-1d": 7, "data-1d": 3, "random-1d": 7, "clusters-nd": 5}

# Labels per warm-up run: two forced extremes and two selections in 1-D.
WARM_UP_LABELS = 4


@dataclass(frozen=True)
class Experiment:
    """One configured run plus the workload-specific parts of its output check."""

    config: ExperimentConfig
    max_queries_to_zero: int | None = None  # zero error must be reached by this step
    distinct_balls: int = 0  # the first picks that must land in distinct balls


@dataclass(frozen=True)
class Task:
    """The points and oracle labels a run sees, regenerated outside the harness."""

    points: np.ndarray
    oracle: np.ndarray
    spec: ClusterSpec | None


def _config(task, model, score, budget, seed, init="auto", stop_at_zero=True):
    return ExperimentConfig.from_dict({
        "task": task, "model": model, "score": score, "budget": budget,
        "seed": seed, "init": init, "stop_at_zero": stop_at_zero})


def _clusters(spec: ClusterSpec) -> dict:
    return {"kind": "clusters", "centers": spec.centers.tolist(),
            "radii": spec.radii.tolist(), "labels": spec.labels.tolist(),
            "counts": spec.counts.tolist(), "p": spec.p}


def _bisect_1d(seeds):
    # Paper's headline regime: budget k(ceil(log2 n) + 4) = 90 for n = 16384, k = 5.
    task = {"kind": "threshold", "n": 16384, "k": 5}
    return [Experiment(_config(task, model, "function", 90, s, "extremes"),
                       max_queries_to_zero=90)
            for s in seeds for model in (KERNEL_1D, SPLINE)]


def _data_1d(seeds):
    task = {"kind": "threshold", "n": 2048, "k": 5}
    return [Experiment(_config(task, model, "data", 140, s))
            for s in seeds for model in (KERNEL_1D, SPLINE)]


def _random_1d(seeds):
    # A fixed budget of n/4 with no early stop gives every seed the same number
    # of labels.  Random draws reach zero error after a median of ~700 labels
    # (250 to 990 on 150 seeds), so with stop_at_zero the run length, and with a
    # larger budget the label count, would swing with the seed.
    task = {"kind": "threshold", "n": 1024, "k": 5}
    return [Experiment(_config(task, model, "random", 256, s, stop_at_zero=False))
            for s in seeds for model in (KERNEL_1D, SPLINE)]


def _clusters_nd(seeds):
    balls13 = cluster_explore_spec(h=0.1)
    balls5 = ClusterSpec(3.0 * np.eye(5), [0.125] * 5, [1, -1, 1, -1, 1], [200] * 5, p=2.0)
    layouts = [(balls13, 0.1, 39), (balls5, 0.5, 40)]
    out = []
    for s in seeds:
        for spec, h, budget in layouts:
            model = {"kind": "kernel", "h": h, "p": 2.0}
            for score in ("data", "function"):
                cfg = _config(_clusters(spec), model, score, budget, s, "none", False)
                explore = spec.n_balls if spec is balls13 and score == "data" else 0
                out.append(Experiment(cfg, distinct_balls=explore))
    return out


_LISTS = {"bisect-1d": _bisect_1d, "data-1d": _data_1d,
             "random-1d": _random_1d, "clusters-nd": _clusters_nd}
NAMES = tuple(_LISTS)


def experiments(workload: str, seed: int) -> list[Experiment]:
    """The workload's fixed experiment list for benchmark seed ``seed``."""
    count = SEEDS_PER_RUN[workload]
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]
    return _LISTS[workload](seeds)


def warm_ups(exps: list[Experiment]) -> list[Experiment]:
    """One short copy of each distinct (task, model, score) in ``exps``.

    The copies keep the full task and stop after a few labels, so they touch
    the same code paths and array sizes as the timed runs; they warm the
    process up before timing and keep the tests short.
    """
    out, seen = [], set()
    for e in exps:
        cfg = e.config
        key = repr(cfg.with_seed(0))
        if key in seen:
            continue
        seen.add(key)
        budget = min(cfg.budget, WARM_UP_LABELS)
        short = ExperimentConfig(cfg.task, cfg.model, cfg.score, budget, cfg.seed,
                                 cfg.init, cfg.stop_at_zero)
        out.append(replace(e, config=short, distinct_balls=min(e.distinct_balls, budget)))
    return out


def make_task(cfg: ExperimentConfig) -> Task:
    """Regenerate the run's task through ``synthetic`` with the harness's seed split.

    ``run_experiment`` draws the task from the first of two ``SeedSequence``
    children of ``cfg.seed``; the output check compares against this copy.
    """
    task_ss = np.random.SeedSequence(cfg.seed).spawn(2)[0]
    task = cfg.task
    if task["kind"] == "threshold":
        _, pool = synthetic.gen_threshold_task(int(task["n"]), int(task["k"]), task_ss)
        return Task(pool.points, pool.hidden_labels, None)
    spec = ClusterSpec(task["centers"], task["radii"], task["labels"],
                       task["counts"], task["p"])
    pool = synthetic.gen_clusters(spec, task_ss)
    return Task(pool.points, pool.hidden_labels, spec)


def queries_to_zero(exp: Experiment, record) -> int:
    """Labels needed for zero training error, budget + 1 when never reached."""
    q = record.queries_to_zero
    return exp.config.budget + 1 if q is None else q


def label_complexity(runs) -> float:
    """Mean over configurations of the median ``queries_to_zero`` over their seeds.

    ``runs`` holds (experiment, record) pairs.  The median keeps a rare early
    zero of the random baseline from moving its configuration's count; the mean
    across configurations keeps a workload that mixes layouts needing ~5 and ~13
    labels off the gap between them.
    """
    by_config = {}
    for exp, record in runs:
        by_config.setdefault(repr(exp.config.with_seed(0)), []).append(
            queries_to_zero(exp, record))
    return float(np.mean([np.median(q) for q in by_config.values()]))


def _refit_error(cfg: ExperimentConfig, task: Task, idx: np.ndarray) -> float:
    labels = task.oracle[idx]
    if cfg.model.kind == "spline":
        pred = fit_spline(task.points[idx, 0], labels).predict(task.points[:, 0])
    else:
        model = fit(LabeledSet(task.points[idx], labels),
                    KernelConfig(bandwidth=cfg.model.h, exponent=cfg.model.p))
        pred = model.predict(task.points)
    return float(np.mean(np.where(pred >= 0, 1, -1) != task.oracle))


def check(exp: Experiment, task: Task, record, trace_path, summary_path) -> list[str]:
    """Problems found in one run's outputs; an empty list means the run is correct."""
    problems = []
    steps = record.steps
    if not steps:
        return ["no steps recorded"]
    idx = np.array([s.index for s in steps])
    n = len(task.points)
    if len(set(idx.tolist())) != len(idx):
        problems.append("queried indices repeat")
    if any(s.true_label != task.oracle[s.index] for s in steps):
        problems.append("trace labels differ from the regenerated task")
    try:
        refit = _refit_error(exp.config, task, idx)
    except (ConditioningError, DuplicatePointError) as err:
        problems.append(f"refit of the final labeled set raised {err!r}")
    else:
        if abs(refit - steps[-1].train_error) > 1.0 / n:
            problems.append(f"refit error {refit} != last trace row "
                            f"{steps[-1].train_error}")
    q = queries_to_zero(exp, record)
    if exp.max_queries_to_zero is not None and q > exp.max_queries_to_zero:
        problems.append(f"queries_to_zero {q} > {exp.max_queries_to_zero}")
    if exp.distinct_balls:
        balls = task.spec.locate(task.points[idx[:exp.distinct_balls]])
        if len(balls) < exp.distinct_balls or len(set(balls.tolist())) < len(balls) \
                or np.any(balls < 0):
            problems.append(f"first {exp.distinct_balls} picks hit balls {balls.tolist()}")
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if [int(r[1]) for r in rows] != idx.tolist():
        problems.append("trace.csv indices differ from the run record")
    with open(summary_path) as fh:
        if json.load(fh)["queries_to_zero"] != record.queries_to_zero:
            problems.append("summary.json queries_to_zero differs from the run record")
    return problems
