"""Command-line harness: run experiments, sweep seeds, check guarantees, generate data.

Subcommands
-----------
run    Execute one configured experiment, writing trace.csv and summary.json.
sweep  Re-run one config across a seed range, writing per-seed traces and a
       combined summary.json.
check  Run a behavioral check suite, printing each check's result and elapsed
       time; exits nonzero if any check fails.
gen    Sample a synthetic task to a CSV dataset (f0..f{d-1},label schema).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import acceptance
from .harness import (ExperimentConfig, _check_object, _write_json, run_experiment,
                      sample_task, summarize, write_dataset_csv)


def _parse_seed_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SystemExit(f"--seeds expects 'a..b' (inclusive), got {text!r}")
    if hi < lo:
        raise SystemExit(f"--seeds range is empty: {text!r}")
    return range(lo, hi + 1)


@contextmanager
def _one_error_line():
    """Report a malformed config or spec, or a run that its task cannot hold
    (ValueError), or a file that cannot be read or written (OSError), in one
    line with exit status 2, as argparse reports a bad flag."""
    try:
        yield
    except (ValueError, OSError) as error:
        print(f"maximin-al: error: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _check_out_dir(out: Path) -> None:
    """Raise the OSError that making the directory ``out`` and writing into it
    would, without making it: a config that fails later leaves no directory,
    and a bad ``--out`` is reported before any run."""
    base = out
    while not base.exists():
        base = base.parent
    if not base.is_dir():
        code = errno.EEXIST if base == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(base))
    if not os.access(base, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(base))


def _cmd_run(args) -> int:
    out = Path(args.out)
    with _one_error_line():
        config = ExperimentConfig.from_json(args.config)
        _check_out_dir(out)
        record = run_experiment(config)
        out.mkdir(parents=True, exist_ok=True)
        record.write_trace(out / "trace.csv")
        record.write_summary(out / "summary.json")
    print(f"wrote {out / 'trace.csv'} ({len(record.steps)} steps), "
          f"queries_to_zero={record.queries_to_zero}, "
          f"final_error={record.final_error:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    out = Path(args.out)
    records = []
    with _one_error_line():
        base = ExperimentConfig.from_json(args.config)
        seeds = _parse_seed_range(args.seeds)
        _check_out_dir(out)
        for seed in seeds:
            record = run_experiment(base.with_seed(seed))
            out.mkdir(parents=True, exist_ok=True)
            record.write_trace(out / f"trace_seed{seed}.csv")
            records.append(record)
        summary = summarize(records)
        _write_json(out / "summary.json", summary)
    print(f"swept {len(records)} seeds; median queries_to_zero="
          f"{summary['median_queries_to_zero']}")
    return 0


def _cmd_check(args) -> int:
    passed = True
    for check in acceptance.SUITES[args.suite]:
        started = time.perf_counter()
        result = check(args.seed)
        print(f"{result.line()} [{time.perf_counter() - started:.2f} s]", flush=True)
        passed = passed and result.passed
    return 0 if passed else 1


def _cmd_gen(args) -> int:
    with _one_error_line():
        spec = _check_object("spec", json.loads(Path(args.spec).read_text()))
        points, labels, _ = sample_task({**spec, "kind": args.task}, args.seed)
        write_dataset_csv(args.out, points, labels)
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maximin-al", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True, help="path to config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one config across seeds")
    p_sweep.add_argument("--config", required=True, help="path to config JSON")
    p_sweep.add_argument("--seeds", required=True, help="inclusive range, e.g. 0..9")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="run a behavioral check suite")
    p_check.add_argument("--suite", required=True, choices=sorted(acceptance.SUITES))
    p_check.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p_gen.add_argument("--task", required=True, choices=("threshold", "clusters"))
    p_gen.add_argument("--spec", required=True, help="path to task spec JSON")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
