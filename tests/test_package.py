"""The package's public surface, its logger and the README's quick start."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import maximin_al


def test_every_export_resolves():
    missing = [name for name in maximin_al.__all__ if not hasattr(maximin_al, name)]
    assert missing == []


def test_package_logger_prints_nothing_by_default():
    # A fresh interpreter with no logging configured: without the package's
    # NullHandler, Python's last-resort handler would print the warning.
    code = ("import logging, maximin_al\n"
            "logging.getLogger('maximin_al').warning('unseen')\n")
    src = Path(maximin_al.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "" and done.stderr == ""


def test_readme_quick_start_runs_and_brackets_the_boundary(capsys):
    # The README's first python block, run as written: it must query a point
    # on each side of the 0.37 boundary, within 0.015 of it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    queried = ast.literal_eval(capsys.readouterr().out.strip().splitlines()[-1])
    assert any(0.355 <= x < 0.37 for x in queried)
    assert any(0.37 <= x <= 0.385 for x in queried)


def test_src_lines_total_is_wc_l():
    # tools/src_lines.py's physical total is what `wc -l` prints for the
    # library's modules, and its code lines are fewer.
    root = Path(__file__).resolve().parents[1]
    modules = sorted(str(p) for p in (root / "src" / "maximin_al").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *modules], capture_output=True, text=True, check=True)
    counted = subprocess.run([sys.executable, str(root / "tools" / "src_lines.py")],
                             capture_output=True, text=True, check=True)
    physical, code, name = counted.stdout.splitlines()[-1].split()
    assert name == "total" and int(physical) == int(wc.stdout.split()[-2])
    assert 0 < int(code) < int(physical)
