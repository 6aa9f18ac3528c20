"""Run the benchmark in this tree, paired with another revision, and write BENCH_<tag>.json.

Usage, from the repository root::

    python tools/bench.py --tag T --against REV [--workload W ...]
                          [--pairs N] [--seed S] [--seconds X] [--phases] [--out PATH]

Each of the N pairs runs ``perfbench/run.py --workload W --seed S --seconds X``
in a subprocess once in a copy of this tree and once in REV, each unpacked
once into a temporary directory before the first run: REV by
``git archive REV | tar -x``, this tree as its working files at that moment
(tracked files with their uncommitted edits, and untracked files git does not
ignore), so an edit made during the run reaches neither side.  Nothing is
written to ``.git``.  The tree that runs first alternates from pair to pair.
Each run's last output line, a JSON object, is stored as it is.

For every workload (by default each one ``BENCHMARK.json`` lists) and each of
its end-to-end metrics the file gives the change's median and interquartile
range, the parent's, the number of pairs the change wins
(strictly better, in the metric's direction) and whether the ten-pair rule
holds: at least 9 wins in 10 pairs (the same share of N) and a median gap, in
the better direction, wider than the parent's interquartile range.  The file
also records both revisions (``dirty`` when the copy's ``src`` or
``perfbench`` files differ from HEAD's), the load average before the first
run and the environment the first run prints (Python, NumPy, SciPy, the BLAS
and its thread count, CPU count).  Writes ``BENCH_T.json`` at the repository
root unless ``--out`` names another path.

With ``--phases`` each tree also splits the steps of the workload's seed-1
list into phases in every pair, right after its end-to-end run, and the file
gives each phase's median and interquartile range over the pairs per tree;
the tool exits with status 1 if any split's selections differ.  A split runs
in a subprocess that imports that tree's library.  It runs
the list once as it is, then twice with timers around what
``harness._learner`` returns (``add``, ``select`` and ``n_wrong``), around
``scoring._draw`` (the one tie-breaking argmax, which ``pick`` and the 1-D
states call) and around ``cross_kernel`` where ``kernel``, ``scoring`` and
``harness`` look it up (a tree whose ``harness`` has no such name is timed
without it); the timed rounds must select the points the first one selects.  The
last timed round gives ms per step, each call's time less that of the timed
calls inside it (:data:`PHASES`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
# Wins needed, as a share of the pairs: 9 of 10.
WIN_SHARE = 0.9
# The phases of a step, each in ms per step, and what each one times.
PHASES = {
    "update": "the learner's add, less kernel evaluations inside it; the fitted "
              "model's growth and evaluation, and the 1-D states' scoring of the "
              "split interval, happen there",
    "kernel": "cross_kernel, wherever it is called",
    "selection": "scoring._draw, the tie-breaking argmax",
    "scoring": "the learner's select, less selection and kernel evaluations",
    "error": "the learner's n_wrong",
    "other": "the rest of run_experiment: the step's bookkeeping and the timers",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--phases", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def _git(*args: str) -> str | None:
    """The output of a git command in this tree; None outside a git checkout."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def unpack(rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` into ``dest`` by ``git archive | tar -x``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def snapshot(dest: Path) -> bool:
    """Copy this tree's working files into ``dest``: the tracked ones as they
    are on disk, and the untracked ones git does not ignore.  Returns whether
    the copied ``src`` and ``perfbench`` files differ from HEAD's."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    names = sorted({n for n in listed.split("\0") if n and (ROOT / n).is_file()})
    for name in names:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)
    ran = [n for n in names if n.split("/")[0] in ("src", "perfbench")]
    hashed = subprocess.run(["git", "hash-object", "--stdin-paths"], cwd=ROOT,
                            input="\n".join(str(dest / n) for n in ran), capture_output=True,
                            text=True, check=True).stdout.split()
    committed = [line.split(None, 3)[2:] for line in
                 _git("ls-tree", "-r", "HEAD", "--", "src", "perfbench").splitlines()]
    return {n: h for n, h in zip(ran, hashed)} != {n: h for h, n in committed}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The environment line and the last output line of one benchmark run in
    ``tree``, parsed."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("env "))
    return json.loads(env[len("env "):]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and interquartile range of ``values``."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": [float(q1), float(q3)]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The change's wins over the parent, pair by pair, and the ten-pair rule."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    gap = sign * (before["median"] - after["median"])
    width = before["iqr"][1] - before["iqr"][0]
    return {"wins": int(wins), "pairs": len(parent),
            "rule_holds": bool(wins >= math.ceil(WIN_SHARE * len(parent)) and gap > width)}


def revisions(against: str, dirty: bool) -> dict:
    """This tree's commit, whether the copied files the benchmark runs differ
    from it, and REV's commit."""
    return {"head": _git("rev-parse", "HEAD"), "dirty": dirty,
            "against": _git("rev-parse", against)}


def summarize_phases(splits: dict[str, list[dict]]) -> dict:
    """Per tree: each phase's (and ``step_ms``'s) median and IQR over its
    splits, its steps, and whether every split repeated the selections."""
    return {tree: {"splits": len(rows), "steps": rows[0]["steps"],
                   **{k: spread([r[k] for r in rows]) for k in ("step_ms", *PHASES)},
                   "selections_match": all(r["selections_match"] for r in rows)}
            for tree, rows in splits.items()}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric: each tree's median and IQR, and the comparison."""
    out = {}
    for name, better in BETTER.items():
        values = {tree: [r["metrics"][name]["value"] for r in rs] for tree, rs in runs.items()}
        row = {"better": better, "unit": runs["change"][0]["metrics"][name]["unit"]}
        row.update({tree: spread(v) for tree, v in values.items()})
        row.update(compare(values["parent"], values["change"], better))
        out[name] = row
    return out


class _Clock:
    """Seconds per phase, each timed call's less that of the timed calls inside it."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._inner = []  # time of the timed calls inside each open one

    def time(self, phase: str, fn, *args):
        self._inner.append(0.0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            self.seconds[phase] += elapsed - self._inner.pop()
            if self._inner:
                self._inner[-1] += elapsed

    def wrap(self, phase: str, fn):
        return functools.wraps(fn)(lambda *args: self.time(phase, fn, *args))


class _TimedLearner:
    """A run's learner with ``add``, ``select`` and ``n_wrong`` timed."""

    def __init__(self, learner, clock: _Clock):
        self._learner, self._clock = learner, clock

    def add(self, i: int, label: int) -> None:
        self._clock.time("update", self._learner.add, i, label)

    def select(self, rng):
        return self._clock.time("scoring", self._learner.select, rng)

    @property
    def n_wrong(self) -> int:
        return self._clock.time("error", getattr, self._learner, "n_wrong")

    def __getattr__(self, name):
        return getattr(self._learner, name)


@contextmanager
def _timers(clock: _Clock):
    """Install the phase timers in the imported library, and restore it after."""
    from maximin_al import harness, kernel, scoring

    learner = harness._learner
    bindings = [(harness, "_learner", lambda *args: _TimedLearner(learner(*args), clock)),
                (scoring, "_draw", clock.wrap("selection", scoring._draw))]
    bindings += [(owner, "cross_kernel", clock.wrap("kernel", owner.cross_kernel))
                 for owner in (kernel, scoring, harness) if getattr(owner, "cross_kernel", None)]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in bindings]
    try:
        for owner, name, timed in bindings:
            setattr(owner, name, timed)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def phase_split(configs) -> dict:
    """ms per step of each phase over the runs of ``configs``: the last of
    two timed rounds after one untimed round, whose selections each timed
    round must repeat (``selections_match``)."""
    from maximin_al import harness

    def selections(records):
        return [[s.index for s in r.steps] for r in records]

    reference = selections([harness.run_experiment(c) for c in configs])
    match = True
    for _ in range(2):
        clock = _Clock()
        with _timers(clock):
            start = perf_counter()
            records = [harness.run_experiment(c) for c in configs]
            total = perf_counter() - start
        match &= selections(records) == reference
    steps = sum(len(r.steps) for r in records)
    clock.seconds["other"] = total - sum(clock.seconds.values())
    return {"steps": steps, "step_ms": 1e3 * total / steps,
            **{phase: 1e3 * s / steps for phase, s in clock.seconds.items()},
            "selections_match": match}


def tree_phases(tree: str, workload: str) -> dict:
    """:func:`phase_split` of ``workload``'s list at benchmark seed 1, with
    the library and the benchmark of ``tree``."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import maximin_al
    import workloads

    assert Path(maximin_al.__file__).resolve().is_relative_to(Path(tree).resolve())
    return phase_split([e.config for e in workloads.experiments(workload, 1)])


def run_phases(tree: Path, workload: str, tools: Path) -> dict:
    """:func:`tree_phases` of ``tree`` in a subprocess, with the ``bench``
    module in ``tools``."""
    code = (f"import json, sys; sys.path.insert(0, {str(tools)!r}); import bench; "
            f"print(json.dumps(bench.tree_phases({str(tree)!r}, {workload!r})))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    match = True
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": Path(tmp) / "change", "parent": Path(tmp) / "parent"}
        for path in trees.values():
            path.mkdir()
        dirty = snapshot(trees["change"])
        unpack(args.against, trees["parent"])
        result = {"tag": args.tag, "revisions": revisions(args.against, dirty),
                  "load_1m": os.getloadavg()[0], "environment": None,
                  "pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
                  "workloads": {}}
        if args.phases:
            result["phases"] = {"unit": "ms per step", "list": "the workload's benchmark seed 1",
                                "per_tree": "median and IQR over one split per pair",
                                **PHASES}
        for workload in workloads:
            runs = {tree: [] for tree in trees}
            splits = {tree: [] for tree in trees}
            for k in range(args.pairs):
                names = list(trees) if k % 2 == 0 else list(reversed(trees))
                for tree in names:
                    env, last = run_once(trees[tree], workload, args.seed, args.seconds)
                    result["environment"] = result["environment"] or env
                    runs[tree].append(last)
                    if args.phases:
                        splits[tree].append(
                            run_phases(trees[tree], workload, trees["change"] / "tools"))
            result["workloads"][workload] = {"metrics": summarize(runs), "runs": runs}
            if args.phases:
                phases = summarize_phases(splits)
                result["workloads"][workload]["phases"] = phases
                for tree, row in phases.items():
                    match &= row["selections_match"]
                    print(f"{workload} phases ({tree}, medians): " + ", ".join(
                        f"{k} {row[k]['median']:.4g}" for k in ("step_ms", *PHASES))
                        + ("" if row["selections_match"] else ", SELECTIONS DIFFER"),
                        flush=True)
            for name, row in result["workloads"][workload]["metrics"].items():
                print(f"{workload} {name}: change {row['change']['median']:.6g}, parent "
                      f"{row['parent']['median']:.6g} (IQR {row['parent']['iqr'][0]:.6g}-"
                      f"{row['parent']['iqr'][1]:.6g}), {row['wins']}/{row['pairs']} wins, "
                      f"rule {'holds' if row['rule_holds'] else 'fails'}", flush=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
