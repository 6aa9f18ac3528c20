"""The 1-D states over any finite coordinates: finite results or one named error.

A fixed layout is mapped by x -> a + b x, with b from 1e-300 to 1e300 and
|a| up to 1e300, keeping only maps whose images stay distinct.  Every call of
``SplineState`` and ``IntervalState`` (h = 0.1, p = 1) either returns finite
values or raises a named error with its message, and nothing warns.  The
spline's data score is a mean of squared hat values, ratios of distances, so
on b x it equals the score on x up to rounding.
"""

import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maximin_al.exceptions import DuplicatePointError, OutOfRangeError
from maximin_al.kernel import KernelConfig
from maximin_al.scoring import IntervalState, ScoreKind
from maximin_al.spline import SplineState

# No point is the midpoint of two others, so no estimated label is a tie.
LAYOUT = np.array([0.0, 0.137, 0.291, 0.46, 0.733, 0.81, 0.949, 1.3])
LABELS = [1, 1, -1, -1, 1, 1, -1, -1]
ORDER = [0, 7, 3, 5, 1, 6, 2, 4]  # the two ends first, so the hull is labeled from step 2
NAMED = (DuplicatePointError, OutOfRangeError, ValueError)

scales = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
offsets = st.one_of(st.just(0.0), st.floats(-1e300, 1e300),
                    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))
                    .map(lambda t: t[0] * 10.0 ** t[1]))


def run(state, value) -> list:
    """Per label in ``ORDER``: the scores, labels and pick before it, each
    replaced by its error's type where the call raised a named error.  A
    rejected label ends the run.  ``value`` reads the state's own number
    (roughness or norm), which must stay finite after every label."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in ORDER:
            for call in (state.scores, lambda: state.select(np.random.default_rng(0))):
                try:
                    got = call()
                except NAMED as err:
                    assert str(err)
                    out.append(type(err))
                    continue
                if isinstance(got, tuple):
                    assert np.isfinite(got[0]).all()
                else:
                    assert np.isfinite(got.score)
                out.append(got)
            try:
                state.add(i, LABELS[i])
            except NAMED as err:
                assert str(err)
                break
            assert np.isfinite(value(state))
    return out


def images(a: float, b: float) -> np.ndarray:
    x = a + b * LAYOUT
    assume(len(np.unique(x)) == len(x))
    return x


@settings(max_examples=150, deadline=None)
@given(scales, offsets)
@example(1e200, 0.0)
@example(1e-200, 0.0)
def test_every_call_is_finite_or_a_named_error(b, a):
    x = images(a, b)
    for kind in ScoreKind:
        run(SplineState(x, kind), lambda s: s.weight_norm)
        run(IntervalState(x[:, None], KernelConfig(0.1, 1.0), kind), lambda s: s.norm_sq)


@settings(max_examples=150, deadline=None)
@given(scales)
@example(1e200)
@example(1e-200)
def test_spline_data_scores_do_not_depend_on_the_scale(b):
    # (u - x_j)^2 would overflow from b of about 1e154 and underflow to a
    # "duplicate" below about 1e-160; the ratios of distances do neither.
    want = run(SplineState(LAYOUT, ScoreKind.DATA_NORM), lambda s: s.weight_norm)
    got = run(SplineState(images(0.0, b), ScoreKind.DATA_NORM), lambda s: s.weight_norm)
    assert len(got) == len(want) == 2 * len(ORDER)
    for g, w in zip(got, want):
        if isinstance(w, type) or isinstance(g, type):
            assert g is w
        elif isinstance(w, tuple):
            np.testing.assert_allclose(g[0], w[0], rtol=1e-12, atol=0)
            assert np.array_equal(g[1], w[1])
        else:
            assert (g.index, g.label) == (w.index, w.label)
            np.testing.assert_allclose(g.score, w.score, rtol=1e-12, atol=0)
