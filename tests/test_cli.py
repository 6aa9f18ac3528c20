"""Command-line interface: subcommands, artifacts on disk, and exit codes."""

import csv
import json
import re
import shutil
import subprocess

import numpy as np
import pytest

from maximin_al import acceptance, cli
from maximin_al.cli import _parse_seed_range, main
from maximin_al.harness import load_csv_dataset, write_dataset_csv
from maximin_al.synthetic import ClusterSpec, gen_clusters, gen_threshold_task


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_config(tmp_path, **overrides):
    payload = {
        "task": {"kind": "threshold", "n": 64, "k": 2},
        "model": {"kind": "kernel", "h": 0.1, "p": 1.0},
        "score": "function",
        "budget": 8,
        "seed": 3,
    }
    payload.update(overrides)
    return write_json(tmp_path / "config.json", payload)


def assert_one_error_line(capsys, argv, match):
    """``main(argv)`` exits with status 2 and one stderr line matching ``match``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("maximin-al: error: ") and err.count("\n") == 1
    assert re.search(match, err)


class TestSeedRange:
    def test_inclusive_range(self):
        assert _parse_seed_range("2..5") == range(2, 6)
        assert _parse_seed_range("0..0") == range(0, 1)

    @pytest.mark.parametrize("text", ["abc", "3", "1..2..3", "a..b"])
    def test_malformed(self, text):
        with pytest.raises(SystemExit):
            _parse_seed_range(text)

    def test_empty_range(self):
        with pytest.raises(SystemExit):
            _parse_seed_range("5..1")


class TestGen:
    def test_threshold_csv_matches_direct_sampling(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"n": 50, "k": 3})
        out = tmp_path / "data.csv"
        rc = main(["gen", "--task", "threshold", "--spec", spec,
                   "--out", str(out), "--seed", "4"])
        assert rc == 0
        points, labels = load_csv_dataset(out)
        _, pool = gen_threshold_task(50, 3, 4)
        np.testing.assert_array_equal(points, pool.points)
        np.testing.assert_array_equal(labels, pool.hidden_labels)

    def test_clusters_csv_row_count_and_labels(self, tmp_path):
        raw = {
            "centers": [[0.0, 0.0], [6.0, 0.0]],
            "radii": [0.5, 0.25],
            "labels": [1, -1],
            "counts": [12, 7],
        }
        spec_path = write_json(tmp_path / "spec.json", raw)
        out = tmp_path / "clusters.csv"
        rc = main(["gen", "--task", "clusters", "--spec", spec_path,
                   "--out", str(out), "--seed", "9"])
        assert rc == 0
        points, labels = load_csv_dataset(out)
        assert points.shape == (19, 2)
        spec = ClusterSpec(raw["centers"], raw["radii"], raw["labels"], raw["counts"])
        balls = spec.locate(points)
        assert np.all(balls >= 0)
        np.testing.assert_array_equal(labels, np.asarray(raw["labels"])[balls])

    def test_clusters_csv_matches_direct_sampling(self, tmp_path):
        raw = {"centers": [[0.0, 0.0], [6.0, 0.0]], "radii": [0.5, 0.25],
               "labels": [1, -1], "counts": [12, 7], "p": 1.0}
        spec_path = write_json(tmp_path / "spec.json", raw)
        out = tmp_path / "clusters.csv"
        assert main(["gen", "--task", "clusters", "--spec", spec_path,
                     "--out", str(out), "--seed", "9"]) == 0
        points, labels = load_csv_dataset(out)
        pool = gen_clusters(ClusterSpec(raw["centers"], raw["radii"], raw["labels"],
                                        raw["counts"], raw["p"]), 9)
        np.testing.assert_array_equal(points, pool.points)
        np.testing.assert_array_equal(labels, pool.hidden_labels)

    @pytest.mark.parametrize("task,spec,match", [
        ("threshold", {"n": 50}, "missing keys .*'k'"),
        ("clusters", {"centers": [[0.0]], "radii": [0.1], "labels": [1]},
         "missing keys .*'counts'"),
        ("threshold", {"n": 50, "k": 3, "holdout": 0.2}, "unknown keys .*'holdout'"),
        ("threshold", [1], r"spec must be a JSON object, got \[1\]"),
        ("threshold", {"n": 50.9, "k": True}, "n must be an integer, got 50.9"),
        ("threshold", {"n": 50, "k": True}, "k must be an integer, got True"),
        ("threshold", {"n": "50", "k": 2}, "n must be an integer, got '50'"),
        ("threshold", {"n": 50, "k": 2.0}, r"k must be an integer, got 2\.0"),
        ("threshold", None, r"No such file or directory: .*spec\.json"),
    ])
    def test_malformed_spec_names_the_key(self, tmp_path, capsys, task, spec, match):
        # A spec of None is a spec file that does not exist.
        spec_path = str(tmp_path / "spec.json")
        if spec is not None:
            write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "data.csv"
        assert_one_error_line(capsys, ["gen", "--task", task, "--spec", spec_path,
                                       "--out", str(out)], match)
        assert not out.exists()

    def test_output_in_a_missing_directory_is_one_error_line(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"n": 50, "k": 3})
        out = tmp_path / "no" / "dir" / "x.csv"
        assert_one_error_line(capsys, ["gen", "--task", "threshold", "--spec", spec,
                                       "--out", str(out)],
                              r"No such file or directory: .*no/dir/x\.csv")


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        config = run_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", config, "--out", str(out)])
        assert rc == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "index", "t_u", "true_label", "score", "train_error"]
        assert len(rows) == 1 + 8
        summary = json.loads((out / "summary.json").read_text())
        assert {"queries_to_zero", "final_error"} <= set(summary)
        assert "wrote" in capsys.readouterr().out

    def test_creates_missing_output_directory(self, tmp_path):
        config = run_config(tmp_path)
        out = tmp_path / "a" / "b"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]])
@pytest.mark.parametrize("overrides,match", [
    ({"model": {"kind": "spline", "h": 0.5}}, "unknown keys .*'h'"),
    ({"task": {"kind": "threshold", "n": 64}}, "missing keys .*'k'"),
    ({"score": "best"}, "score must be one of"),
    ({"task": "threshold"}, "task must be a JSON object, got 'threshold'"),
    ({"model": "kernel"}, "model must be a JSON object, got 'kernel'"),
    ({"model": {"kind": "kernel", "h": "0.1"}}, "bandwidth must be a real number, got '0.1'"),
    ({"model": {"kind": "kernel", "h": 0.1, "p": True}},
     "exponent must be a real number, got True"),
    ({"task": {"kind": "threshold", "n": 64.5, "k": 2}}, "n must be an integer, got 64.5"),
    ({"task": {"kind": "threshold", "n": 64, "k": "2"}}, "k must be an integer, got '2'"),
    ({"task": {"kind": "threshold", "n": False, "k": 2}}, "n must be an integer, got False"),
    (None, r"No such file or directory: .*missing\.json"),
])
def test_malformed_config_is_one_error_line(tmp_path, capsys, command, overrides, match):
    # Overrides of None stand for a config file that does not exist.
    config = (str(tmp_path / "missing.json") if overrides is None
              else run_config(tmp_path, **overrides))
    out = tmp_path / "out"
    assert_one_error_line(capsys, [*command, "--config", config, "--out", str(out)], match)
    assert not out.exists()


CLUSTERS = {"kind": "clusters", "centers": [[0.0, 0.0], [1.0, 1.0]], "radii": [0.1, 0.1],
            "labels": [1, -1], "counts": [5, 5]}


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]])
@pytest.mark.parametrize("overrides,match", [
    ({"budget": 100}, "budget 100 exceeds pool size 64"),
    ({"task": {"kind": "csv", "holdout": 1.5}}, r"holdout must be in \[0, 1\), got 1\.5"),
    ({"task": {"kind": "csv", "holdout": 0.001}},
     r"holdout 0\.001 of 300 rows leaves no test row"),
    ({"task": CLUSTERS, "model": {"kind": "spline"}}, "the spline model is 1-D only"),
    ({"task": CLUSTERS, "init": "extremes"}, "extremes initialization requires a 1-D task"),
    ({"task": {"kind": "csv", "path": "no/such/data.csv"}},
     r"No such file or directory: 'no/such/data\.csv'"),
])
def test_config_its_task_cannot_run_is_one_error_line(tmp_path, capsys, command, overrides,
                                                      match):
    # Valid configs that fail only once the task is built; a csv task without
    # a path reads a 300-row file written here.
    task = overrides.get("task", {})
    if task.get("kind") == "csv" and "path" not in task:
        x = np.linspace(0.0, 1.0, 300)[:, None]
        write_dataset_csv(tmp_path / "data.csv", x, np.where(x[:, 0] > 0.4, 1, -1))
        overrides = {"task": {**overrides["task"], "path": str(tmp_path / "data.csv")}}
    config = run_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert_one_error_line(capsys, [*command, "--config", config, "--out", str(out)], match)
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]])
def test_output_path_that_is_a_file_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # --out is a file, or lies below one: reported before any run starts.
    def no_run(config):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    out = tmp_path / "out"
    out.write_text("kept\n")
    for below, match in (("", r"File exists: .*out'"), ("sub/dir", r"Not a directory: .*out'")):
        assert_one_error_line(capsys, [*command, "--config", run_config(tmp_path),
                                       "--out", str(out / below)], match)
    assert out.read_text() == "kept\n"


class TestSweep:
    def test_per_seed_traces_and_combined_summary(self, tmp_path, capsys):
        config = run_config(tmp_path)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", config, "--seeds", "0..2", "--out", str(out)])
        assert rc == 0
        for seed in range(3):
            assert (out / f"trace_seed{seed}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_runs"] == 3
        assert len(summary["median_error"]) == 8
        assert "swept 3 seeds" in capsys.readouterr().out

    def test_bad_seed_range_exits(self, tmp_path):
        config = run_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", config, "--seeds", "7..2",
                  "--out", str(tmp_path / "x")])


class TestCheck:
    def test_identities_suite_passes(self, capsys):
        rc = main(["check", "--suite", "identities", "--seed", "0"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert rc == 0
        assert len(lines) == len(acceptance.SUITES["identities"])
        assert all(line.startswith("PASS") for line in lines)

    def test_failing_suite_exits_nonzero(self, capsys, monkeypatch):
        # A suite holding a failing check must make the CLI exit nonzero.
        def failing_check(base_seed=0):
            return acceptance.CheckResult("always fails", False, "forced")

        monkeypatch.setitem(acceptance.SUITES, "clusters", (failing_check,))
        rc = main(["check", "--suite", "clusters", "--seed", "0"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert rc == 1
        assert any(line.startswith("FAIL") for line in lines)

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--suite", "nonsense"])


class TestEntryPoint:
    def test_installed_script_generates_data(self, tmp_path):
        exe = shutil.which("maximin-al")
        assert exe is not None, "console script not installed"
        spec = write_json(tmp_path / "spec.json", {"n": 10, "k": 1})
        out = tmp_path / "tiny.csv"
        proc = subprocess.run(
            [exe, "gen", "--task", "threshold", "--spec", spec,
             "--out", str(out), "--seed", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        points, labels = load_csv_dataset(out)
        assert len(points) == 10
        assert set(labels) <= {-1, 1}
