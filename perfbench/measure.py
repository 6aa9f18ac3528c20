"""Set-up, timed rounds, output checks and the printed result of one benchmark run."""

from __future__ import annotations

import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

from maximin_al import ConditioningError, DuplicatePointError, harness

import spans
import workloads

SETUP_REPEATS = 5


def _blas_threads():
    """(library file, thread count) of the OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return Path(path).name, fn()
    return None, None


def environment(load_1m: float) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        lib, threads = _blas_threads()
    except OSError:
        lib, threads = None, None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_library": lib,
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "load_1m": load_1m}


def _ran(record) -> bool:
    """False when the run raised a library error instead of returning a record."""
    return hasattr(record, "steps")


class Round:
    """One pass over the experiment list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.records = []   # RunRecord, or the library error the run raised
        self.seconds = []   # per experiment
        self.wall = 0.0

    def selections(self) -> list:
        return [tuple(s.index for s in r.steps) if _ran(r) else repr(r)
                for r in self.records]


def run_round(exps, tasks, out_dir: Path, tracer=None) -> Round:
    """Run and write every experiment once, as ``maximin-al sweep`` does per seed."""
    rnd = Round(tracer is not None)
    started = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        for i, (exp, task) in enumerate(zip(exps, tasks)):
            t0 = time.perf_counter()
            trace_path, summary_path = out_dir / f"trace-{i}.csv", out_dir / f"summary-{i}.json"
            try:
                with tracer.span(spans.RUN, len(task.points)) if tracer else nullcontext():
                    record = harness.run_experiment(exp.config)
                with tracer.span(spans.WRITE) if tracer else nullcontext() as span:
                    record.write_trace(trace_path)
                    record.write_summary(summary_path)
                if span is not None:
                    span.work = trace_path.stat().st_size + summary_path.stat().st_size
            except (DuplicatePointError, ConditioningError) as err:
                record = err
            rnd.seconds.append(time.perf_counter() - t0)
            rnd.records.append(record)
    rnd.wall = time.perf_counter() - started
    return rnd


def timed_rounds(exps, tasks, out_dir: Path, seconds: float, tracer=None) -> list[Round]:
    """Timed rounds until ``seconds`` pass, at least one of each mode in use.

    With a tracer, untraced and traced rounds alternate, starting untraced.
    """
    rounds = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(exps, tasks, out_dir, tracer if traced else None))
        following = tracer is not None and len(rounds) % 2 == 1
        same_mode = [r.wall for r in rounds if r.traced == following] or [rounds[-1].wall]
        if len(rounds) >= (2 if tracer else 1) and \
                time.perf_counter() - started + statistics.median(same_mode) > seconds:
            return rounds


def check_rounds(exps, tasks, rounds, out_dir: Path):
    """(problems by experiment, attempted, failed, mismatched) over all rounds.

    The first round's outputs are checked in full; every later round must make
    the same selections.  A run fails if it raised, failed its check or
    selected differently.
    """
    first = rounds[0]
    problems = {}
    for i, (exp, task, record) in enumerate(zip(exps, tasks, first.records)):
        if _ran(record):
            found = workloads.check(exp, task, record, out_dir / f"trace-{i}.csv",
                                    out_dir / f"summary-{i}.json")
            if found:
                problems[i] = found
    expected = first.selections()
    attempted = failed = mismatched = 0
    for rnd in rounds:
        for i, (want, got) in enumerate(zip(expected, rnd.selections())):
            attempted += 1
            mismatched += want != got
            failed += (not _ran(rnd.records[i])) or want != got or i in problems
    return problems, attempted, failed, mismatched


def run(args, import_s: float, load_1m: float, out_root: Path) -> int:
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    env = environment(load_1m)
    exps = workloads.experiments(args.workload, args.seed)
    warm = workloads.warm_ups(exps)
    tracer = spans.Tracer() if args.trace else None

    out_dir = out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            tasks = [workloads.make_task(e.config) for e in exps]
            run_round(warm, [workloads.make_task(e.config) for e in warm], out_dir)
            setup.append(time.perf_counter() - t0)
        rounds = timed_rounds(exps, tasks, out_dir, args.seconds, tracer)
        problems, attempted, failed, mismatched = check_rounds(exps, tasks, rounds, out_dir)
        if tracer is not None:
            tracer.write(out_root / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    first = rounds[0]
    ran = [(e, r) for e, r in zip(exps, first.records) if _ran(r)]
    steps = sum(len(r.steps) for _, r in ran)
    untraced = [r for r in rounds if not r.traced]
    wall_s = statistics.median(r.wall for r in untraced)
    end_to_end = {
        "setup_s": (import_s + statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "step_ms": (1e3 * wall_s / max(steps, 1), "ms"),
        "queries_to_zero": (workloads.label_complexity(ran) if ran else 0.0, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    readable = dict(end_to_end)
    readable["final_error"] = (statistics.fmean(r.final_error for _, r in ran)
                               if ran else float("nan"), "1")
    readable["failed_frac"] = (failed / attempted, "1")

    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {len(exps)} experiments, "
          f"{steps} steps per round, {len(untraced)} untraced and "
          f"{len(rounds) - len(untraced)} traced rounds")
    print("  round_s " + " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in rounds))
    by_kind = {}
    for i, (exp, record) in enumerate(zip(exps, first.records)):
        if _ran(record):
            total = by_kind.setdefault(f"{exp.config.model.kind}/{exp.config.score}", [0.0, 0])
            total[0] += statistics.median(r.seconds[i] for r in untraced)
            total[1] += len(record.steps)
    for key, (secs, n) in sorted(by_kind.items()):
        print(f"  step_ms[{key}] {1e3 * secs / n:.4g} ms over {n} steps")
    for name, (value, unit) in readable.items():
        print(f"  {name} {value:.6g} {unit}")
    for i, found in sorted(problems.items()):
        print(f"  check failed, experiment {i} (seed {exps[i].config.seed}): "
              + "; ".join(found))
    if mismatched:
        print(f"  {mismatched} runs selected differently from the first round")

    metrics = end_to_end
    if tracer is not None:
        traced = [r for r in rounds if r.traced]
        metrics = spans.layer_metrics(tracer.spans, max(steps * len(traced), 1))
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall for r in traced) / wall_s - 1.0, "1")
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
