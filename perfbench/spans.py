"""Spans around the library's public functions and the per-layer metrics built from them.

``Tracer.installed()`` replaces each public function at the name its callers
use (module attributes and class methods) with a wrapper that records a span:
name, parent, start, end and the time its children cover.  Work counts are
computed from argument shapes, so they repeat exactly for the same inputs.
Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import csv
import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from maximin_al import harness, kernel, laplace1d, scoring, spline

RUN = "harness.run_experiment"
WRITE = "harness.write"

# The layer a kernel evaluation serves, by its nearest ancestor of these names.
_PHASES = {"kernel.predict": "evaluate", "scoring.score_pool": "score",
           "kernel.fit": "update", "kernel.augmented_fit": "update"}


class Span:
    __slots__ = ("index", "name", "parent", "start", "end", "child", "work",
                 "aux", "tied")

    def __init__(self, index: int, name: str, parent: int, work: int = 0):
        self.index, self.name, self.parent = index, name, parent
        self.start = self.end = self.child = 0.0
        self.work = work  # rows, entries or candidates, by span kind
        self.aux = 0      # flops, factor bytes or hat pairs, by span kind
        self.tied = 0     # size of the top-score tie set (score spans)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _rows(X) -> int:
    return len(X) if np.ndim(X) == 2 else 1


def _tied(scores) -> int:
    return int(np.count_nonzero(scores >= np.max(scores) - scoring.TIE_TOLERANCE))


def _count_entries(span, args, out):
    span.work = _rows(args[0]) * _rows(args[1])


def _count_rows(span, args, out):
    span.work = _rows(args[1])


def _count_points(span, args, out):
    span.work = int(np.size(args[1]))


def _count_solves(triangular: int):
    def count(span, args, out):
        model, B = args[0], args[1]
        cols = B.shape[1] if np.ndim(B) == 2 else 1
        span.aux = triangular * len(model) ** 2 * cols
    return count


def _count_factor(span, args, out):
    span.aux = 8 * (len(args[0]) + 1) ** 2


def _count_pool(span, args, out):
    span.work = len(args[1])
    span.tied = _tied(out[0])


def _count_spline_pool(span, args, out):
    us = args[1]
    density = args[3] if len(args) > 3 else None
    span.work = int(np.size(us))
    span.aux = span.work * len(getattr(density, "points", ()))
    span.tied = _tied(out[0])


def _bindings():
    """(owner, attribute, span name, count) for every traced call site."""
    K, S = kernel.KernelInterpolator, spline.SplineInterpolator
    out = [
        (kernel, "kernel_matrix", "kernel.kernel_matrix", _count_entries),
        (scoring, "kernel_matrix", "kernel.kernel_matrix", _count_entries),
        (kernel, "fit", "kernel.fit", None),
        (harness, "augmented_fit", "kernel.augmented_fit", _count_factor),
        (K, "predict", "kernel.predict", _count_rows),
        (K, "solve", "kernel.solve", _count_solves(2)),
        (K, "half_solve", "kernel.half_solve", _count_solves(1)),
        (scoring, "score_pool", "scoring.score_pool", _count_pool),
        (scoring, "select_next", "scoring.select_next", None),
        (spline, "fit_spline", "spline.fit_spline", None),
        (spline, "spline_score_pool", "spline.spline_score_pool", _count_spline_pool),
        (spline, "spline_select_next", "spline.spline_select_next", None),
        (S, "predict", "spline.predict", _count_points),
        (harness, "gen_threshold_task", "synthetic.gen_threshold_task", None),
        (harness, "gen_clusters", "synthetic.gen_clusters", None),
    ]
    for name, fn in vars(laplace1d).items():
        if inspect.isfunction(fn) and fn.__module__ == laplace1d.__name__ \
                and not name.startswith("_"):
            out.append((laplace1d, name, f"laplace1d.{name}", None))
    return out


class Tracer:
    """Collects spans while installed; one tracer serves one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, work: int = 0) -> Span:
        parent = self._stack[-1].index if self._stack else -1
        span = Span(len(self.spans), name, parent, work)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, entered: float) -> None:
        self._stack.pop()
        if self._stack:
            # Charge the child's duration and this wrapper's bookkeeping to the
            # parent's children, so the parent's self time excludes both.
            self._stack[-1].child += perf_counter() - entered

    @contextmanager
    def span(self, name: str, work: int = 0):
        """A span opened by the benchmark itself around a call into the library."""
        entered = perf_counter()
        span = self._open(name, work)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._close(entered)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            span = self._open(name)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                span.end = perf_counter()
                if count is not None:
                    count(span, args, out)
                return out
            finally:
                if not span.end:
                    span.end = perf_counter()
                self._close(entered)
        return traced

    @contextmanager
    def installed(self):
        """Trace every binding in ``_bindings`` for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in _bindings():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Save every span as one CSV row."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "dur_ms", "self_ms",
                          "work", "aux", "tied"])
            t0 = self.spans[0].start if self.spans else 0.0
            for s in self.spans:
                out.writerow([s.index, s.parent, s.name, f"{s.start - t0:.6f}",
                              f"{1e3 * (s.end - s.start):.4f}",
                              f"{1e3 * s.self_time:.4f}", s.work, s.aux, s.tied])


def _phase(spans: list[Span], span: Span) -> str:
    parent = span.parent
    while parent >= 0:
        phase = _PHASES.get(spans[parent].name)
        if phase:
            return phase
        parent = spans[parent].parent
    raise ValueError(f"kernel evaluation {span.index} has no calling phase")


def layer_metrics(spans: list[Span], steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), per active-learning step.

    ``steps`` is the number of steps the traced runs took.  Exceptions:
    ``harness.trace_bytes`` is per experiment, ``synthetic.gen_ms`` per call and
    ``scoring.n_tied`` a mean per scoring call.  Times are self times in ms
    except ``harness.evaluate_ms`` (inclusive).  Work counts come from argument
    shapes.
    """
    self_ms: dict[str, float] = {}
    work: dict[str, int] = {}
    aux: dict[str, int] = {}
    calls: dict[str, int] = {}
    eval_ms = {"evaluate": 0.0, "score": 0.0, "update": 0.0}
    evaluate_ms, evaluate_points, tied, selections = 0.0, 0, 0, 0
    for s in spans:
        self_ms[s.name] = self_ms.get(s.name, 0.0) + 1e3 * s.self_time
        work[s.name] = work.get(s.name, 0) + s.work
        aux[s.name] = aux.get(s.name, 0) + s.aux
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "kernel.kernel_matrix":
            eval_ms[_phase(spans, s)] += 1e3 * s.self_time
        elif s.name in ("kernel.predict", "spline.predict") and s.parent >= 0:
            root = spans[s.parent]
            if root.name == RUN and s.work == root.work:
                evaluate_ms += 1e3 * (s.end - s.start)
                evaluate_points += s.work
        elif s.name in ("scoring.score_pool", "spline.spline_score_pool"):
            tied += s.tied
            selections += 1

    def ms(*names):
        return sum(self_ms.get(n, 0.0) for n in names) / steps

    def per_step(table, *names):
        return sum(table.get(n, 0) for n in names) / steps

    gens = ("synthetic.gen_threshold_task", "synthetic.gen_clusters")
    n_gens = sum(calls.get(n, 0) for n in gens)
    laplace_calls = sum(c for n, c in calls.items() if n.startswith("laplace1d."))
    return {
        "kernel.eval_ms": (ms("kernel.kernel_matrix"), "ms"),
        "kernel.eval_ms.evaluate": (eval_ms["evaluate"] / steps, "ms"),
        "kernel.eval_ms.score": (eval_ms["score"] / steps, "ms"),
        "kernel.eval_ms.update": (eval_ms["update"] / steps, "ms"),
        "kernel.entries": (per_step(work, "kernel.kernel_matrix"), "count"),
        "kernel.solve_ms": (ms("kernel.solve", "kernel.half_solve"), "ms"),
        "kernel.solve_flops": (per_step(aux, "kernel.solve", "kernel.half_solve"), "flop"),
        "kernel.update_ms": (ms("kernel.augmented_fit", "kernel.fit"), "ms"),
        "kernel.factor_bytes": (per_step(aux, "kernel.augmented_fit"), "B"),
        "kernel.predict_ms": (ms("kernel.predict"), "ms"),
        "spline.predict_ms": (ms("spline.predict"), "ms"),
        "scoring.score_ms": (ms("scoring.score_pool"), "ms"),
        "scoring.candidates": (per_step(work, "scoring.score_pool"), "count"),
        "scoring.select_ms": (ms("scoring.select_next", "spline.spline_select_next"), "ms"),
        "scoring.n_tied": (tied / selections if selections else 0.0, "count"),
        "spline.score_ms": (ms("spline.spline_score_pool"), "ms"),
        "spline.hat_pairs": (per_step(aux, "spline.spline_score_pool"), "count"),
        "spline.fit_ms": (ms("spline.fit_spline"), "ms"),
        "harness.evaluate_ms": (evaluate_ms / steps, "ms"),
        "harness.evaluate_points": (evaluate_points / steps, "count"),
        "harness.self_ms": (ms(RUN), "ms"),
        "harness.write_ms": (ms(WRITE), "ms"),
        "harness.trace_bytes": (work.get(WRITE, 0) / max(calls.get(WRITE, 0), 1), "B"),
        "synthetic.gen_ms": (sum(self_ms.get(n, 0.0) for n in gens) / max(n_gens, 1), "ms"),
        "laplace1d.calls": (laplace_calls / steps, "count"),
    }
