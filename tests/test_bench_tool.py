"""``tools/bench.py``: the paired-run rule, the copy of the working tree, a
short run of the tool itself and its phase split."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench  # noqa: E402

METRICS = {"setup_s", "wall_s", "step_ms", "queries_to_zero", "peak_rss_mb"}


def test_rule_needs_nine_wins_in_ten_and_a_gap_wider_than_the_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    # The parent's IQR is 11-13; a median 3 lower wins every pair.
    assert bench.compare(parent, [p - 3.0 for p in parent], "lower") == \
        {"wins": 10, "pairs": 10, "rule_holds": True}
    # A gap of 1.5 is narrower than the IQR of 2.
    assert not bench.compare(parent, [p - 1.5 for p in parent], "lower")["rule_holds"]
    # Eight wins are too few, however wide the gap.
    change = [p - 5.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    assert bench.compare(parent, change, "lower")["wins"] == 8
    assert not bench.compare(parent, change, "lower")["rule_holds"]
    # Higher is better: the same numbers, read the other way.
    assert bench.compare(parent, [p + 3.0 for p in parent], "higher")["rule_holds"]
    assert bench.compare(parent, parent, "lower")["wins"] == 0


def test_snapshot_copies_the_working_files_once(tmp_path, monkeypatch):
    repo, copy, clean = tmp_path / "repo", tmp_path / "copy", tmp_path / "clean"

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    for name, text in {"src/a.py": "a = 1\n", "perfbench/b.py": "b = 1\n",
                       "gone.txt": "x\n", ".gitignore": "ignored.txt\n"}.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    monkeypatch.setattr(bench, "ROOT", repo)
    clean.mkdir()
    assert bench.snapshot(clean) is False
    assert (clean / "src" / "a.py").read_text() == "a = 1\n"
    # An uncommitted edit and an untracked file reach the copy; an ignored
    # file and a deleted one do not.
    (repo / "src" / "a.py").write_text("a = 2\n")
    (repo / "src" / "new.py").write_text("new = 1\n")
    (repo / "ignored.txt").write_text("x\n")
    (repo / "gone.txt").unlink()
    copy.mkdir()
    assert bench.snapshot(copy) is True
    assert (copy / "src" / "a.py").read_text() == "a = 2\n"
    assert (copy / "src" / "new.py").read_text() == "new = 1\n"
    assert (copy / "perfbench" / "b.py").read_text() == "b = 1\n"
    assert not (copy / "ignored.txt").exists() and not (copy / "gone.txt").exists()
    # A later edit does not.
    (repo / "src" / "a.py").write_text("a = 3\n")
    assert (copy / "src" / "a.py").read_text() == "a = 2\n"


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_paired_run_against_head_compares_both_trees(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), "--tag", "smoke",
                    "--against", "HEAD", "--workload", "random-1d", "--pairs", "2",
                    "--seconds", "0.5", "--phases", "--out", str(out)],
                   check=True, capture_output=True)
    result = json.loads(out.read_text())
    assert {"tag", "revisions", "environment", "pairs", "seed", "seconds",
            "workloads"} <= set(result)
    assert result["revisions"]["against"] is not None
    assert "blas_threads" in result["environment"]
    workload = result["workloads"]["random-1d"]
    assert set(workload["metrics"]) == METRICS
    assert set(workload["runs"]) == {"change", "parent"}
    for row in workload["metrics"].values():
        assert {"better", "unit", "change", "parent", "wins", "pairs", "rule_holds"} <= set(row)
        assert row["pairs"] == 2
    assert workload["runs"]["change"][0]["correct"]
    assert set(result["phases"]) >= set(bench.PHASES)
    # One split per pair and tree, summarized by its median and IQR per phase.
    for tree in ("change", "parent"):
        phases = workload["phases"][tree]
        assert phases["selections_match"] and phases["steps"] > 0 and phases["splits"] == 2
        for phase in ("step_ms", *bench.PHASES):
            q1, q3 = phases[phase]["iqr"]
            assert q1 <= phases[phase]["median"] <= q3


@pytest.mark.parametrize("workload", ["bisect-1d", "data-1d", "random-1d", "clusters-nd"])
def test_phase_split_repeats_the_selections_and_restores_the_library(workload):
    from maximin_al import harness, kernel, scoring

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    before = [harness._learner, scoring._draw, kernel.cross_kernel, scoring.cross_kernel,
              harness.cross_kernel]
    configs = [e.config for e in workloads.warm_ups(workloads.experiments(workload, 1))]
    phases = bench.phase_split(configs)
    assert [harness._learner, scoring._draw, kernel.cross_kernel, scoring.cross_kernel,
            harness.cross_kernel] == before
    assert phases["selections_match"]
    assert phases["steps"] == sum(c.budget for c in configs)
    assert all(phases[p] >= 0 for p in bench.PHASES if p != "other")
    timed = {"random-1d": ("update", "error"), "clusters-nd": ("kernel", "selection")}
    assert all(phases[p] > 0 for p in timed.get(workload, ("update", "selection", "scoring")))
