"""Run a fixed set of experiments and print two sha256 digests over what they write.

Usage, from the repository root::

    python tools/trace_gate.py OUT_DIR

Each run writes ``trace.csv`` and ``summary.json`` (a run that raises a
library error writes ``error.txt`` instead) into its own numbered directory
under ``OUT_DIR``.  The full digest is taken over those files in run order;
the second digest over the same files with the ``score`` column of each
``trace.csv`` left out.  ``OUT_DIR/digests.txt`` gets one line per run: its
number, its task kind, model, score and seed, and both sha256 of its files,
so ``diff`` of two such files names the runs that differ.  Two versions of
the library that print the same full digest make the same selections, with
the same estimated labels, scores and errors; two that print the same second
digest differ at most in the rounding of the scores.  The runs are:

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
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from maximin_al import ConditioningError, ExperimentConfig, harness  # noqa: E402
from maximin_al.acceptance import cluster_explore_spec  # noqa: E402
from maximin_al.synthetic import ClusterSpec  # noqa: E402

import workloads  # noqa: E402
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    configs = matrix() + [exp.config for name in workloads.NAMES
                          for exp in workloads.experiments(name, 1)]
    configs += holdout_runs(out / "data")
    digest, unscored, lines = hashlib.sha256(), hashlib.sha256(), []
    for i, cfg in enumerate(configs):
        run_dir = out / f"run{i:03d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            record = harness.run_experiment(cfg)
        except (ConditioningError, ValueError) as error:
            files = [run_dir / "error.txt"]
            files[0].write_text(f"{type(error).__name__}: {error}\n")
        else:
            files = [run_dir / "trace.csv", run_dir / "summary.json"]
            record.write_trace(files[0])
            record.write_summary(files[1])
        run_digest, run_unscored = hashlib.sha256(), hashlib.sha256()
        for path in files:
            data = path.read_bytes()
            digest.update(data)
            run_digest.update(data)
            if path.name == "trace.csv":
                data = without_scores(data)
            unscored.update(data)
            run_unscored.update(data)
        lines.append(f"run{i:03d} {tag(cfg)} {run_digest.hexdigest()} "
                     f"{run_unscored.hexdigest()}\n")
    (out / "digests.txt").write_text("".join(lines))
    print(f"{digest.hexdigest()}  {len(configs)} runs")
    print(f"{unscored.hexdigest()}  {len(configs)} runs, without scores")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
