"""Tests of the benchmark itself, on small copies of every workload.

Run from the repository root with ``python -m pytest perfbench``.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COMPUTED = ("kernel.entries", "kernel.solve_flops", "kernel.factor_bytes",
            "scoring.candidates", "scoring.n_tied", "spline.hat_pairs",
            "harness.evaluate_points", "laplace1d.calls")


def _small(workload):
    exps = workloads.warm_ups(workloads.experiments(workload, 7))
    return exps, [workloads.make_task(e.config) for e in exps]


def _traced(exps, tasks, out_dir):
    tracer = spans.Tracer()
    rnd = measure.run_round(exps, tasks, out_dir, tracer)
    steps = sum(len(r.steps) for r in rnd.records)
    return rnd, {k: v for k, (v, _) in spans.layer_metrics(tracer.spans, steps).items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_runs_repeat_counts_and_selections(workload, tmp_path):
    exps, tasks = _small(workload)
    untraced = measure.run_round(exps, tasks, tmp_path)
    first, counts = _traced(exps, tasks, tmp_path)
    second, again = _traced(exps, tasks, tmp_path)
    assert first.selections() == untraced.selections() == second.selections()
    for name in COMPUTED:
        assert counts[name] == again[name], name
    assert counts["harness.evaluate_points"] > 0
    assert counts["laplace1d.calls"] == 0


def test_tracer_restores_every_binding(tmp_path):
    exps, tasks = _small("data-1d")
    before = [vars(owner)[attr] for owner, attr, _, _ in spans._bindings()]
    _traced(exps, tasks, tmp_path)
    assert [vars(owner)[attr] for owner, attr, _, _ in spans._bindings()] == before


def test_random_workload_scores_nothing(tmp_path):
    exps, tasks = _small("random-1d")
    _, counts = _traced(exps, tasks, tmp_path)
    assert counts["scoring.candidates"] == 0 and counts["spline.hat_pairs"] == 0
    assert counts["kernel.factor_bytes"] > 0


def test_check_accepts_real_runs_and_rejects_altered_ones(tmp_path):
    exps, tasks = _small("clusters-nd")
    rnd = measure.run_round(exps, tasks, tmp_path)
    i = next(k for k, e in enumerate(exps) if e.distinct_balls)
    exp, task, record = exps[i], tasks[i], rnd.records[i]
    paths = (tmp_path / f"trace-{i}.csv", tmp_path / f"summary-{i}.json")
    assert workloads.check(exp, task, record, *paths) == []

    last = record.steps[-1]
    record.steps[-1] = replace(last, train_error=last.train_error + 2.0 / len(task.points))
    assert any("refit" in p for p in workloads.check(exp, task, record, *paths))
    record.steps[-1] = replace(last, index=record.steps[0].index)
    assert any("repeat" in p for p in workloads.check(exp, task, record, *paths))

    record.steps[-1] = last
    balls = task.spec.locate(task.points)
    queried = {s.index for s in record.steps}
    twin = next(j for j in np.flatnonzero(balls == balls[record.steps[0].index])
                if j not in queried)
    record.steps[1] = replace(record.steps[1], index=int(twin))
    assert any("balls" in p for p in workloads.check(exp, task, record, *paths))
