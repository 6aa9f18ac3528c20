"""End-to-end behavioral guarantees of the library, one check per test.

Each test runs one named check from :mod:`maximin_al.acceptance`, prints its
single PASS/FAIL line (visible with ``pytest -s`` or in failure output), and
asserts the verdict. The checks pin the kernel and spline learners to their
closed-form predictions, the guarantee regimes, and the active-vs-random
label-complexity gap, at fixed seeds and tolerances. Every identity and
spline check scores on the state a run scores from, so a defect planted in a
state fails them.
"""

import numpy as np
import pytest

from maximin_al import acceptance
from maximin_al.harness import ModelConfig, _learner
from maximin_al.scoring import IntervalState, ScoreKind, ScoringState, SortedIntervals
from maximin_al.spline import SplineState


def _run(check, *args):
    result = check(0, *args)
    print(result.line())
    assert result.passed, result.detail


def test_bisection_label_complexity():
    _run(acceptance.check_bisection_label_complexity)


def test_midpoint_closed_forms():
    _run(acceptance.check_midpoint_closed_forms)


def test_rank_one_identity():
    _run(acceptance.check_rank_one_identity)


def test_first_point_in_largest_ball():
    _run(acceptance.check_first_point_largest_ball)


def test_cluster_exploration_contrast():
    # The data half runs on two layouts: the cluster_explore theorem's
    # (D = 13 h ln 26), where it is guaranteed, and D = h, where it is
    # measured. The function half runs at D = h only: at D = 13 h ln 26 the
    # cross-ball kernels are ~4e-19, an unlabeled ball raises the norm by 1
    # and a labeled one by at most 0.245, so the function score must visit
    # every ball there (pinned in tests/test_scoring.py).
    _run(acceptance.check_cluster_exploration)


def test_spline_score_properties():
    _run(acceptance.check_spline_properties)


def test_spline_data_norm_value():
    _run(acceptance.check_spline_data_norm_value)


def test_zero_crossing_maximizer():
    _run(acceptance.check_zero_crossing)


def test_active_vs_random_dominance(tmp_path):
    _run(acceptance.check_active_vs_random, tmp_path)


def test_rank_one_identity_fails_without_the_schur_downdate(monkeypatch):
    # A ScoringState whose add leaves S at its old values.
    add = ScoringState.add

    def add_without_downdate(self, i, label):
        schur = self.schur.copy()
        add(self, i, label)
        self.schur[:] = schur
    monkeypatch.setattr(ScoringState, "add", add_without_downdate)
    assert not acceptance.check_rank_one_identity(0).passed


def test_midpoint_closed_forms_fail_on_a_wrong_interval_schur(monkeypatch):
    # An IntervalState whose fill gets S wrong by one part in a million.
    fill = IntervalState._fill

    def fill_with_wrong_schur(self, lo, hi):
        fill(self, lo, hi)
        self._s[lo + 1:hi] *= 1.0 + 1e-6
    monkeypatch.setattr(IntervalState, "_fill", fill_with_wrong_schur)
    assert not acceptance.check_midpoint_closed_forms(0).passed


def test_spline_data_norm_value_fails_on_a_wrong_hat_sum(monkeypatch):
    # A SplineState whose fill gets the hat sums wrong by one part in a million.
    fill = SplineState._fill

    def fill_with_wrong_hat(self, lo, hi):
        fill(self, lo, hi)
        self._hat[lo + 1:hi] *= 1.0 + 1e-6
    monkeypatch.setattr(SplineState, "_fill", fill_with_wrong_hat)
    assert not acceptance.check_spline_data_norm_value(0).passed


def test_spline_properties_fail_on_a_wrong_roughness_delta(monkeypatch):
    # A SplineState whose fill adds 1e-6 to the roughness change of a +1
    # label: between two +1 labels the function score leaves the roughness.
    fill = SplineState._fill

    def fill_with_wrong_delta(self, lo, hi):
        fill(self, lo, hi)
        self._dplus[lo + 1:hi] += 1e-6
    monkeypatch.setattr(SplineState, "_fill", fill_with_wrong_delta)
    result = acceptance.check_spline_properties(0)
    assert not result.passed and "F-const=0" not in result.detail


@pytest.mark.parametrize("dim,model,state", [
    (1, ModelConfig("kernel", h=0.1, p=1.0), IntervalState),
    (1, ModelConfig("kernel", h=0.1, p=2.0), ScoringState),
    (2, ModelConfig("kernel", h=0.1, p=1.0), ScoringState),
    (2, ModelConfig("kernel", h=0.1, p=2.0), ScoringState),
    (1, ModelConfig("spline"), SplineState),
])
@pytest.mark.parametrize("kind", list(ScoreKind))
def test_checks_score_on_the_state_a_run_scores_from(dim, model, state, kind):
    points = np.random.default_rng(3).uniform(size=(6, dim))
    learner = _learner(model, points, kind, 3, np.argsort(points[:, 0], kind="stable"),
                       np.ones(6, dtype=int))
    run_state = learner if isinstance(learner, SortedIntervals) else learner.state
    assert type(run_state) is type(acceptance._state(points, model, [], kind)) is state
