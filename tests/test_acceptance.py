"""End-to-end behavioral guarantees of the library, one check per test.

Each test runs one named check from :mod:`maximin_al.acceptance`, prints its
single PASS/FAIL line (visible with ``pytest -s`` or in failure output), and
asserts the verdict. The checks pin the kernel and spline learners to their
closed-form predictions, the guarantee regimes, and the active-vs-random
label-complexity gap, at fixed seeds and tolerances.
"""

import pytest

from maximin_al import acceptance


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
