"""``tools/trace_gate.py``: the value digest sees a change in the learners'
values that keeps every sign, which the two trace digests cannot."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import trace_gate  # noqa: E402

from maximin_al import harness  # noqa: E402


def test_a_one_ulp_change_in_the_values_moves_only_the_value_digest(tmp_path, monkeypatch):
    # Seed 0 of the matrix: the threshold task under the kernel and the
    # spline, and the 13-ball layout, each with the three scores.
    configs = trace_gate.matrix()[:9]
    learner = harness._learner
    before, lines = trace_gate.digests(configs, tmp_path / "before")
    assert harness._learner is learner
    add = harness._ModelLearner.add

    def add_one_ulp_from_zero(self, i, label):
        add(self, i, label)
        v = self._values
        v[:] = np.where(v >= 0, np.nextafter(v, np.inf), np.nextafter(v, -np.inf))
    monkeypatch.setattr(harness._ModelLearner, "add", add_one_ulp_from_zero)
    after, planted = trace_gate.digests(configs, tmp_path / "after")
    assert after[:2] == before[:2] and after[2] != before[2]
    moved = 0
    for old, new in zip(lines, planted):
        old, new = old.split(), new.split()
        assert old[:-1] == new[:-1]
        moved += old[-1] != new[-1]
    # Every run but the two scored 1-D p = 1 kernel runs, whose learner is
    # their IntervalState, keeps a model beside its state.
    assert moved == 7
