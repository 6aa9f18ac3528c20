"""Run a fixed set of experiments and print three sha256 digests over what they write and hold.

Usage, from the repository root::

    python tools/trace_gate.py OUT_DIR

Each run writes ``trace.csv`` and ``summary.json`` (a run that raises a
library error writes ``error.txt`` instead) into its own numbered directory
under ``OUT_DIR``.  The full digest is taken over those files in run order;
the second digest over the same files with the ``score`` column of each
``trace.csv`` left out; the third, the value digest, over the bytes of the
learner's ``f`` (the interpolant at every task point) after every label of
every run, in run order.  ``OUT_DIR/digests.txt`` gets one line per run: its
number, its task kind, model, score and seed, and the three sha256 of its
run, so ``diff`` of two such files names the runs that differ.  Two versions
of the library that print the same full digest make the same selections,
with the same estimated labels, scores and errors; two that print the same
second digest differ at most in the rounding of the scores.  The trace holds
only signs, errors and scores, so a model whose values drift in their last
bits keeps both; the value digest shows it.

The script sets ``OPENBLAS_NUM_THREADS=2`` before NumPy loads and prints
the thread count of the loaded OpenBLAS: the full digest holds at one BLAS
thread count only, since the data score's row sums in ``ScoringState.add``
(``dsymv``) round differently with the number of threads.  The runs are:

* the 48-run matrix: threshold n = 1024, k = 5 under the kernel (h = 0.1,
  p = 1) and the spline, budget 70; the 13-ball 2-D layout (h = 0.1, budget
  39) and a 5-ball 5-D layout (h = 0.5, budget 40) with p = 2 and an empty
  start; each with the function, data and random scores, seeds 0-3;
* every benchmark workload's experiment list at benchmark seed 1;
* csv runs with a 20% holdout: 1-D threshold data under the kernel (p = 1)
  and the spline, 2-D 13-ball data under the kernel (p = 2); each score,
  seeds 0-1.
"""

from __future__ import annotations

import hashlib
import os
import sys
from contextlib import contextmanager
from pathlib import Path

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "2"  # before NumPy loads its BLAS

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from maximin_al import ConditioningError, ExperimentConfig, harness  # noqa: E402
from maximin_al.acceptance import cluster_explore_spec  # noqa: E402
from maximin_al.synthetic import ClusterSpec  # noqa: E402

import workloads  # noqa: E402
from measure import _blas_threads  # noqa: E402
from workloads import KERNEL_1D, SPLINE, _clusters  # noqa: E402

SCORES = ("function", "data", "random")


def _config(task, model, score, budget, seed, init="auto") -> ExperimentConfig:
    return workloads._config(task, model, score, budget, seed, init, stop_at_zero=False)


def matrix() -> list[ExperimentConfig]:
    """The 48-run matrix of threshold and cluster runs."""
    threshold = {"kind": "threshold", "n": 1024, "k": 5}
    balls5 = ClusterSpec(3.0 * np.eye(5), [0.125] * 5, [1, -1, 1, -1, 1], [200] * 5, p=2.0)
    layouts = [(_clusters(cluster_explore_spec(0.1)), 0.1, 39), (_clusters(balls5), 0.5, 40)]
    out = []
    for seed in range(4):
        for model in (KERNEL_1D, SPLINE):
            out += [_config(threshold, model, score, 70, seed) for score in SCORES]
        for task, h, budget in layouts:
            model = {"kind": "kernel", "h": h, "p": 2.0}
            out += [_config(task, model, score, budget, seed, "none") for score in SCORES]
    return out


def holdout_runs(data_dir: Path) -> list[ExperimentConfig]:
    """Csv runs with a 20% holdout on 1-D and 2-D data written into ``data_dir``."""
    data_dir.mkdir(parents=True, exist_ok=True)
    line, plane = data_dir / "line.csv", data_dir / "plane.csv"
    points, labels, _ = harness.sample_task({"kind": "threshold", "n": 300, "k": 3}, 0)
    harness.write_dataset_csv(line, points, labels)
    points, labels, _ = harness.sample_task(_clusters(cluster_explore_spec(0.1)), 0)
    harness.write_dataset_csv(plane, points, labels)
    cases = [(line, KERNEL_1D, 40), (line, SPLINE, 40),
             (plane, {"kind": "kernel", "h": 0.1, "p": 2.0}, 39)]
    return [_config({"kind": "csv", "path": str(path), "holdout": 0.2}, model, score,
                    budget, seed)
            for path, model, budget in cases for score in SCORES for seed in range(2)]


def tag(cfg: ExperimentConfig) -> str:
    """The run's task kind, model, score and seed, for ``digests.txt``."""
    m = cfg.model
    model = "spline" if m.kind == "spline" else f"kernel(h={m.h!r},p={m.p!r})"
    return f"{cfg.task['kind']} {model} {cfg.score} seed={cfg.seed}"


def without_scores(data: bytes) -> bytes:
    """A ``trace.csv``'s bytes with its ``score`` column left out."""
    rows = [line.split(b",") for line in data.splitlines(keepends=True)]
    col = rows[0].index(b"score")
    return b"".join(b",".join(row[:col] + row[col + 1:]) for row in rows)


class _HashedLearner:
    """A run's learner that hashes its ``f`` after every ``add``."""

    def __init__(self, learner, sinks):
        self._learner, self._sinks = learner, sinks

    def add(self, i: int, label: int) -> None:
        self._learner.add(i, label)
        data = self._learner.f.tobytes()
        for sink in self._sinks:
            sink.update(data)

    def __getattr__(self, name):
        return getattr(self._learner, name)


@contextmanager
def _values_hashed(sinks):
    """Make every learner ``harness`` builds hash its values into ``sinks``;
    restore ``harness`` after."""
    learner = harness._learner
    harness._learner = lambda *args: _HashedLearner(learner(*args), sinks)
    try:
        yield
    finally:
        harness._learner = learner


def digests(configs: list[ExperimentConfig], out: Path) -> tuple[list[str], list[str]]:
    """Run ``configs`` into numbered directories under ``out``: the full,
    unscored and value digests, and the line of each run for ``digests.txt``."""
    total = [hashlib.sha256() for _ in range(3)]
    lines = []
    for i, cfg in enumerate(configs):
        run_dir = out / f"run{i:03d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        run = [hashlib.sha256() for _ in range(3)]
        try:
            with _values_hashed([total[2], run[2]]):
                record = harness.run_experiment(cfg)
        except (ConditioningError, ValueError) as error:
            files = [run_dir / "error.txt"]
            files[0].write_text(f"{type(error).__name__}: {error}\n")
        else:
            files = [run_dir / "trace.csv", run_dir / "summary.json"]
            record.write_trace(files[0])
            record.write_summary(files[1])
        for path in files:
            data = path.read_bytes()
            unscored = without_scores(data) if path.name == "trace.csv" else data
            for k, part in enumerate((data, unscored)):
                total[k].update(part)
                run[k].update(part)
        lines.append(f"run{i:03d} {tag(cfg)} " + " ".join(h.hexdigest() for h in run) + "\n")
    return [h.hexdigest() for h in total], lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    configs = matrix() + [exp.config for name in workloads.NAMES
                          for exp in workloads.experiments(name, 1)]
    configs += holdout_runs(out / "data")
    (full, unscored, values), lines = digests(configs, out)
    (out / "digests.txt").write_text("".join(lines))
    print(f"{full}  {len(configs)} runs")
    print(f"{unscored}  {len(configs)} runs, without scores")
    print(f"{values}  {len(configs)} runs, the learners' values")
    print(f"OpenBLAS threads: {_blas_threads()[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
