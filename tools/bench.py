"""Run the benchmark in this tree, paired with another revision, and write BENCH_<tag>.json.

Usage, from the repository root::

    python tools/bench.py --tag T --against REV [--workload W ...]
                          [--pairs N] [--seed S] [--seconds X] [--out PATH]

Each of the N pairs runs ``perfbench/run.py --workload W --seed S --seconds X``
in a subprocess once in this tree and once in REV, which
``git archive REV | tar -x`` unpacks into a temporary directory (nothing is
written to ``.git``).  The tree that runs first alternates from pair to pair.
Each run's last output line, a JSON object, is stored as it is.

For every workload (by default each one ``BENCHMARK.json`` lists) and each of
its end-to-end metrics the file gives the change's median and interquartile
range, the parent's, the number of pairs the change wins
(strictly better, in the metric's direction) and whether the ten-pair rule
holds: at least 9 wins in 10 pairs (the same share of N) and a median gap, in
the better direction, wider than the parent's interquartile range.  The file
also records both revisions, the load average before the first run and the
environment the first run prints (Python, NumPy, SciPy, the BLAS and its
thread count, CPU count).  Writes ``BENCH_T.json`` at the repository root
unless ``--out`` names another path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
# Wins needed, as a share of the pairs: 9 of 10.
WIN_SHARE = 0.9


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
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


def revisions(against: str) -> dict:
    """This tree's commit, whether the files the benchmark runs differ from
    it, and REV's commit."""
    return {"head": _git("rev-parse", "HEAD"),
            "dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
            "against": _git("rev-parse", against)}


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


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    result = {"tag": args.tag, "revisions": revisions(args.against),
              "load_1m": os.getloadavg()[0], "environment": None,
              "pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": ROOT, "parent": Path(tmp)}
        unpack(args.against, trees["parent"])
        for workload in workloads:
            runs = {tree: [] for tree in trees}
            for k in range(args.pairs):
                names = list(trees) if k % 2 == 0 else list(reversed(trees))
                for tree in names:
                    env, last = run_once(trees[tree], workload, args.seed, args.seconds)
                    result["environment"] = result["environment"] or env
                    runs[tree].append(last)
            result["workloads"][workload] = {"metrics": summarize(runs), "runs": runs}
            for name, row in result["workloads"][workload]["metrics"].items():
                print(f"{workload} {name}: change {row['change']['median']:.6g}, parent "
                      f"{row['parent']['median']:.6g} (IQR {row['parent']['iqr'][0]:.6g}-"
                      f"{row['parent']['iqr'][1]:.6g}), {row['wins']}/{row['pairs']} wins, "
                      f"rule {'holds' if row['rule_holds'] else 'fails'}", flush=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
