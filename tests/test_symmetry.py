"""Exact symmetries of the scoring states, which need no reference to check.

Negating every label negates the interpolant exactly (each state is linear
in the labels, and rounding is symmetric about 0), and leaves every score,
and so every pick, unchanged bit for bit.  A mistake that a fast path shares
with its reference, such as a sign that leaks into a score, breaks the
symmetry even where the two agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin_al.exceptions import DuplicatePointError, OutOfRangeError
from maximin_al.kernel import KernelConfig
from maximin_al.scoring import TIE_TOLERANCE, IntervalState, ScoreKind, ScoringState
from maximin_al.spline import SplineState

PICKS = 12


def make(model: str, points: np.ndarray, kind: ScoreKind):
    """The state of ``model`` over the first coordinate of ``points`` (1-D
    states) or all three (``ScoringState``)."""
    if model == "interval":
        return IntervalState(points[:, :1], KernelConfig(0.1, 1.0), kind)
    if model == "spline":
        return SplineState(points[:, 0], kind)
    return ScoringState(points, KernelConfig(0.5, float(model[-1])), kind)


def outcome(call):
    """The call's result, or the type of the named error it raised."""
    try:
        return call()
    except (DuplicatePointError, OutOfRangeError) as err:
        return type(err)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["interval", "spline", "scoring-p1", "scoring-p2"]),
       st.sampled_from(list(ScoreKind)), st.integers(PICKS + 2, 40), st.integers(0, 2**32 - 1))
def test_negated_labels_negate_f_and_keep_scores_and_picks(model, kind, n, seed):
    # Estimated labels negate too, except where |f| <= 1e-12, where both read +1.
    rng = np.random.default_rng(seed)
    points, oracle = rng.uniform(size=(n, 3)), rng.choice([-1, 1], size=n)
    state, flipped = make(model, points, kind), make(model, points, kind)
    labeled = []
    for step in range(PICKS):
        assert (flipped.f == -state.f).all()  # == so that +0 and -0 agree
        want, got = outcome(state.scores), outcome(flipped.scores)
        if isinstance(want, type):
            assert got is want
        else:
            assert got[0].tobytes() == want[0].tobytes()
            exempt = np.abs(np.delete(state.f, labeled)) <= TIE_TOLERANCE
            assert (got[1] == -want[1])[~exempt].all()
        want, got = (outcome(lambda s=s: s.select(np.random.default_rng(step)))
                     for s in (state, flipped))
        if isinstance(want, type):
            assert got is want
        else:
            assert (got.index, got.score) == (want.index, want.score)
            assert got.label == -want.label or abs(state.f[want.index]) <= TIE_TOLERANCE
        # The two ends first, as 1-D runs label them, so the spline has a hull.
        if step < 2:
            i = int((np.argmin if step == 0 else np.argmax)(points[:, 0]))
        elif isinstance(want, type):
            return
        else:
            i = want.index
        if i in labeled:
            return
        added = outcome(lambda: state.add(i, int(oracle[i])))
        if isinstance(added, type):
            assert outcome(lambda: flipped.add(i, -int(oracle[i]))) is added
            return
        flipped.add(i, -int(oracle[i]))
        labeled.append(i)
