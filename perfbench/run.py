"""Benchmark for maximin-al: run one workload's experiment list and report metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bisect-1d --seed 1 --seconds 30 --trace 0

Set-up imports ``maximin_al`` from ``src/``, regenerates every task through
``synthetic`` and warms up on short copies of the experiments.  The timed part
then repeats the workload's fixed experiment list, each experiment doing what
``maximin-al sweep`` does per seed (``run_experiment``, ``write_trace``,
``write_summary``), until ``--seconds`` have passed.  Every run's output is
checked (see ``workloads.check``).  With ``--trace 1`` untraced and traced
rounds alternate; the traced rounds give the per-layer metrics and must make
exactly the selections of the untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics untraced, the
per-layer metrics traced.  The lines before it give the environment and every
metric in readable form.  Single process; NumPy's BLAS keeps its default
thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "maximin_al" / "__init__.py").is_file():
        print(f"perfbench: no maximin_al package under {SRC}", file=sys.stderr)
        return 2
    load_1m = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import maximin_al
    import_s = time.perf_counter() - started
    if Path(maximin_al.__file__).resolve().parent != SRC / "maximin_al":
        print(f"perfbench: imported maximin_al from {maximin_al.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # The benchmark's own modules import NumPy, so they load after the timed import.
    import measure
    return measure.run(args, import_s, load_1m, ROOT / ".perfbench_out")


if __name__ == "__main__":
    sys.exit(main())
