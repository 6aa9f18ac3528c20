"""Sequential active-learning experiments: configs, runner, traces, summaries.

A run executes ``budget`` rounds of score -> select -> reveal -> refit on a
task's pool, recording per-step selections and the training error (sign
agreement of the current interpolant with the oracle over all task points,
labeled and unlabeled alike).  Everything is deterministic given the config:
the task sample, the tie-breaking stream, and the random baseline all derive
from ``seed`` through independent ``SeedSequence`` children, so replaying a
config at the same BLAS thread count reproduces the trace bit for bit.  At
another count the scores of a data-score ``ScoringState`` run may differ in
their last bits, and every other column stays (see ``ScoringState``).

A run's learner takes labels by point index (``add``), gives the interpolant
at every task point by index (``f``) and at any points (``predict``), counts
the task points whose sign is wrong (``n_wrong``) and picks the next point by
index (``select(rng)``): the protocol of the scoring states, which score their
own unlabeled points from their labels alone.  :func:`scoring_state` picks a
scored run's state.  A 1-D ``p = 1`` kernel run's ``IntervalState`` is its
learner: it selects per labeled interval and counts the wrong signs on the
split interval only; the training error is that count over n, the same
correctly rounded ratio as a mean over all points.  Every other run's learner
keeps a model beside its state (grown by ``augmented_fit``, read from the
``SplineState``, or refit by ``fit_spline`` in a random spline run) and
evaluates it once per label: at every point for the first label and for a
model a label changes everywhere, else only between the label's labeled
neighbours, the one span where a spline or a 1-D ``p = 1`` kernel changes.
A model a label changes everywhere is evaluated from the kernel columns the
learner keeps, one per label, each evaluated once: the ``ScoringState`` hands
over its own, and a random run's learner evaluates it.
``n_wrong`` and ``f`` read those values, bit for bit a full evaluation's,
and the benchmark's per-layer counts are taken on those calls.  A forced or
random pick records the sign of the learner's
``f`` at the point as its estimated label, so ``predict`` serves only a csv
holdout; only random picks build the index array of the unlabeled points.

Config JSON schema; a missing or an unknown key, at any level, is rejected::

    {
      "task":  {"kind": "threshold", "n": 1024, "k": 5}
             | {"kind": "clusters", "centers": [[...], ...], "radii": [...],
                "labels": [...], "counts": [...], "p": 2}
             | {"kind": "csv", "path": "data.csv", "holdout": 0.2},
      "model": {"kind": "kernel", "h": 0.1, "p": 1} | {"kind": "spline"},
      "score": "function" | "data" | "random",
      "budget": 70,
      "seed": 3,
      "init": "auto" | "none" | "extremes",      # optional, default "auto"
      "stop_at_zero": false                        # optional, a boolean
    }

``init: "extremes"`` labels the leftmost and rightmost pool points in the
first rounds (counted against the budget) — the natural bootstrap for 1-D
bisection, and mandatory for the spline model, whose scores are defined only
inside the labeled hull.  ``"auto"`` resolves to extremes for 1-D tasks and
to none otherwise; cluster guarantees need the empty start.

Outputs: ``trace.csv`` with columns ``step,index,t_u,true_label,score,
train_error`` and ``summary.json`` with ``queries_to_zero``, ``final_error``,
and per-cluster counts when the task is a cluster layout.
"""

from __future__ import annotations

import bisect
import csv
import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import scoring, spline
from .exceptions import IngestionError
from .kernel import KernelConfig, KernelInterpolator, augmented_fit, cross_kernel
from .scoring import ScoreKind
from .synthetic import ClusterSpec, gen_clusters, gen_threshold_task

SCORE_CHOICES = ("function", "data", "random")
# The score of a forced or random pick.
_UNSCORED = float("nan")
INIT_CHOICES = ("auto", "none", "extremes")
# The required and the optional keys of each task kind.
TASK_KEYS = {
    "threshold": (("kind", "n", "k"), ()),
    "clusters": (("kind", "centers", "radii", "labels", "counts"), ("p",)),
    "csv": (("kind", "path"), ("holdout",)),
}


def _check_object(what: str, given) -> dict:
    """``given``, if it is a JSON object; else a ValueError naming ``what``."""
    if not isinstance(given, dict):
        raise ValueError(f"{what} must be a JSON object, got {given!r}")
    return given


def _check_keys(what: str, given, required, optional=()) -> None:
    """Reject a non-object, or one that lacks a required key or has an unknown one."""
    missing = sorted(set(required) - set(_check_object(what, given)))
    unknown = sorted(set(given) - set(required) - set(optional))
    if missing or unknown:
        raise ValueError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def _check_int(name: str, value) -> None:
    """Reject a value that is not an integer (a boolean, a float or a string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_task(task: dict, kinds=tuple(TASK_KEYS)) -> None:
    """Reject a non-object task, a kind not in ``kinds``, a missing or unknown key,
    or a threshold task whose ``n`` or ``k`` is not an integer."""
    kind = _check_object("task", task).get("kind")
    if kind not in kinds:
        raise ValueError(f"task kind must be one of {kinds}, got {kind!r}")
    _check_keys(f"{kind} task", task, *TASK_KEYS[kind])
    if kind == "threshold":
        _check_int("n", task["n"])
        _check_int("k", task["k"])


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # "kernel" | "spline"
    h: float = 0.1
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("kernel", "spline"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        KernelConfig(self.h, self.p)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the module docstring for the JSON form."""

    task: dict
    model: ModelConfig
    score: str
    budget: int
    seed: int
    init: str = "auto"
    stop_at_zero: bool = False

    def __post_init__(self):
        if self.score not in SCORE_CHOICES:
            raise ValueError(f"score must be one of {SCORE_CHOICES}, got {self.score!r}")
        if self.init not in INIT_CHOICES:
            raise ValueError(f"init must be one of {INIT_CHOICES}, got {self.init!r}")
        _check_int("budget", self.budget)
        _check_int("seed", self.seed)
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not isinstance(self.stop_at_zero, bool):
            raise ValueError(f"stop_at_zero must be a boolean, got {self.stop_at_zero!r}")
        _check_task(self.task)
        if self.model.kind == "spline" and self.init == "none":
            raise ValueError("the spline model requires extremes initialization")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys("config", raw, ("task", "model", "score", "budget", "seed"),
                    ("init", "stop_at_zero"))
        model = _check_object("model", raw["model"])
        # h and p belong to the kernel; the spline would ignore them.
        _check_keys("model", model, ("kind",),
                    ("h", "p") if model.get("kind") == "kernel" else ())
        return cls(**{**raw, "model": ModelConfig(**model)})

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=int(seed))


@dataclass(slots=True)
class StepRecord:
    step: int
    index: int
    estimated_label: int
    true_label: int
    score: float
    train_error: float


class Steps(Sequence):
    """A run's steps, kept as one typed column per ``StepRecord`` field: 34
    bytes a step, where a list of records holds about 140 (the record, its
    index and its error are objects of their own).  Reading a step builds
    its ``StepRecord``; ``append`` and item assignment take one."""

    __slots__ = ("_columns",)

    def __init__(self):
        # step, index, estimated_label, true_label, score, train_error
        self._columns = tuple(array(code) for code in "qqbbdd")

    def append(self, s: StepRecord) -> None:
        step, index, estimated, true, score, error = self._columns
        step.append(s.step)
        index.append(s.index)
        estimated.append(s.estimated_label)
        true.append(s.true_label)
        score.append(s.score)
        error.append(s.train_error)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return map(StepRecord, *self._columns)

    def rows(self):
        """Each step's fields as a tuple, in ``StepRecord`` order, without
        building the records."""
        return zip(*self._columns)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        return StepRecord(*(column[k] for column in self._columns))

    def __setitem__(self, k: int, s: StepRecord) -> None:
        values = (s.step, s.index, s.estimated_label, s.true_label, s.score, s.train_error)
        for column, value in zip(self._columns, values):
            column[k] = value

    def __eq__(self, other):
        """Equal columns bit for bit, so a NaN score equals itself."""
        if not isinstance(other, Steps):
            return NotImplemented
        return all(a.tobytes() == b.tobytes() for a, b in zip(self._columns, other._columns))

    def __repr__(self) -> str:
        return f"Steps({list(self)!r})"


@dataclass
class RunRecord:
    """Everything observed during one run."""

    config: ExperimentConfig
    task_kind: str
    steps: Steps = field(default_factory=Steps)
    queries_to_zero: int | None = None
    final_error: float = float("nan")
    per_cluster_counts: list[int] | None = None
    first_cluster_repeat_step: int | None = None
    test_errors: list[float] | None = None

    @property
    def train_errors(self) -> list[float]:
        return [s.train_error for s in self.steps]

    def write_trace(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "index", "t_u", "true_label", "score",
                             "train_error"])
            for step, index, estimated, true, score, error in self.steps.rows():
                writer.writerow([step, index, estimated, true, repr(score), repr(error)])

    def summary_dict(self) -> dict:
        out = {
            "queries_to_zero": self.queries_to_zero,
            "final_error": self.final_error,
        }
        if self.per_cluster_counts is not None:
            out["per_cluster_counts"] = self.per_cluster_counts
            out["first_cluster_repeat_step"] = self.first_cluster_repeat_step
        if self.test_errors is not None:
            out["final_test_error"] = self.test_errors[-1]
        return out

    def write_summary(self, path) -> None:
        _write_json(path, self.summary_dict())


def _write_json(path, data: dict) -> None:
    """Write ``data`` as indented JSON with a final newline, as every
    ``summary.json`` is written."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_csv_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``f0..f{d-1},label`` CSV; labels must be +-1, no missing fields.

    Points must be distinct: the interpolant cannot be fit through two labels
    at one point, so a repeated point is reported with both row numbers.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file", row=0) from None
        header = [h.strip() for h in header]
        d = len(header) - 1
        if d < 1 or header[-1] != "label" or header[:-1] != [f"f{i}" for i in range(d)]:
            raise IngestionError(
                f"header must be f0..f{{d-1}},label, got {header}", row=0)
        points, labels, seen = [], [], {}
        for row_num, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise IngestionError(
                    f"expected {d + 1} fields, got {len(row)}", row=row_num)
            try:
                feats = [float(v) for v in row[:-1]]
                label = float(row[-1])
            except ValueError:
                raise IngestionError(f"non-numeric value in {row}", row=row_num) from None
            if not all(np.isfinite(feats)) or label not in (-1.0, 1.0):
                raise IngestionError(
                    f"invalid feature or label in {row}", row=row_num)
            first, first_label = seen.setdefault(tuple(feats), (row_num, label))
            if first != row_num:
                agree = "the same" if first_label == label else "a conflicting"
                raise IngestionError(f"row {row_num} repeats the point of row {first} "
                                     f"with {agree} label", row=row_num)
            points.append(feats)
            labels.append(int(label))
    if not points:
        raise IngestionError("no data rows", row=1)
    return np.asarray(points), np.asarray(labels)


def write_dataset_csv(path, points: np.ndarray, labels: np.ndarray) -> None:
    """Write points and +-1 labels in the ``f0..f{d-1},label`` schema."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(points.shape[1])] + ["label"])
        for x, y in zip(points, labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


def _count_wrong(f: np.ndarray, truth: np.ndarray) -> int:
    """Points whose sign ``f >= 0`` disagrees with ``truth`` (oracle label > 0)."""
    return int(np.count_nonzero((f >= 0) != truth))


def scoring_state(model: ModelConfig, points: np.ndarray, kind: ScoreKind, capacity: int,
                  order: np.ndarray | None = None, oracle: np.ndarray | None = None):
    """The state that scores a run of ``model`` over the n-by-d ``points``: the
    spline's ``SplineState``, the ``IntervalState`` of 1-D points under the
    ``p = 1`` kernel, else a ``ScoringState`` with room for ``capacity`` labels.
    ``order`` (stable, by the first coordinate) and ``oracle`` are optional."""
    if model.kind == "spline":
        return spline.SplineState(points[:, 0], kind, order)
    config = KernelConfig(bandwidth=model.h, exponent=model.p)
    if _local(model, points.shape[1]):
        return scoring.IntervalState(points, config, kind, order, oracle)
    return scoring.ScoringState(points, config, kind, capacity)


def _local(model: ModelConfig, dim: int) -> bool:
    """Whether a label changes the model only between its labeled neighbours:
    true of the spline, and of the kernel of 1-D points with ``p = 1``, which
    is Markov (Hartikainen & Sarkka, 2010)."""
    return model.kind == "spline" or (dim == 1 and model.p == 1)


class _ModelLearner:
    """A learner that evaluates a model beside the run's ``state`` (None for
    random selection), which selects: the kernel grown by ``augmented_fit``
    from the empty model; the spline a scored run's ``SplineState`` holds, or
    a random run's ``fit_spline`` on the labeled points in arrival order.  It
    keeps the model's values at all n task points sorted by the first
    coordinate (``order``); ``n_wrong`` counts from them and ``f`` gathers
    them by index.  Before any label ``f`` is 0.

    The first label evaluates the model at every point.  When a label changes
    the model only between its labeled neighbours (:func:`_local`), the
    learner keeps the labeled ranks sorted and each later label re-evaluates
    the points from the left neighbour's rank through the right one's (the
    pool's end where one is missing).  ``np.interp`` and ``markov_1d`` compute
    each point from the two knots of its interval alone, and the spline's
    boundary pads and ``markov_1d``'s clip bounds move only with a new
    extreme, whose span reaches the pool's end; so the values equal a full
    ``predict`` bit for bit.

    Every other model, a kernel, is evaluated at every point per label, from
    ``K(ordered points, X_L)``, which the learner keeps in one C-order n-by-
    ``budget`` buffer (``8 * n * budget`` bytes, refused beyond the physical
    memory), a column per label: the state's ``add`` returns the new label's
    kernel column, and a random run evaluates it here.  ``augmented_fit``
    takes the label's row from the columns before it.  A kernel entry has the
    same bits in either order of its two points (see ``kernel``), and a
    product with a strided C-order buffer has the bits of one with a fresh
    matrix, so the values equal a full ``predict`` bit for bit."""

    def __init__(self, model: ModelConfig, points: np.ndarray, state, order: np.ndarray,
                 oracle: np.ndarray, budget: int):
        n, local = len(points), _local(model, points.shape[1])
        if not local:
            scoring.require_memory(8 * n * budget, f"a kernel learner over n = {n} points")
        self.points, self.ordered, self.truth = points, points[order], oracle[order] > 0
        self.state, self._spline, self._order = state, model.kind == "spline", order
        self.model = None if self._spline else KernelInterpolator.empty(
            KernelConfig(model.h, model.p), points.shape[1])
        # The model at the ordered points, and each point's place among them.
        self._values, self._rank = np.zeros(n), np.empty(n, dtype=np.intp)
        self._rank[order] = np.arange(n)
        # The labeled ranks, increasing, when a label changes the model locally,
        # between bounds 0 and n: a span reaching one runs to the pool's end.
        # Else the kernel between the ordered points and the labeled ones.
        self._ranks = [0, n] if local else None
        self._cross = None if local else np.empty((n, budget))
        self._labeled, self._labels = [], []  # a random spline run's, in arrival order

    def add(self, i: int, label: int) -> None:
        cross, column = self._cross, None
        if cross is not None and len(self.model) == cross.shape[1]:
            raise ValueError(f"the learner holds at most {cross.shape[1]} labels")
        if not self._spline:
            row = None if cross is None else cross[self._rank[i], :len(self.model)]
            self.model = augmented_fit(self.model, self.points[i], label, row=row)
        elif self.state is None:
            self._labeled.append(i)
            self._labels.append(label)
            self.model = spline.fit_spline(self.points[self._labeled, 0], self._labels)
        if self.state is not None:
            column = self.state.add(i, label)
            if self._spline:
                self.model = self.state.spline
        if cross is None:
            r = int(self._rank[i])
            k = bisect.bisect(self._ranks, r)
            lo, hi = self._ranks[k - 1], self._ranks[k] + 1
            self._ranks.insert(k, r)
            self._values[lo:hi] = self.predict(self.ordered[lo:hi])
            return
        if column is None:
            column = cross_kernel(self.points, self.points[i:i + 1], self.model.config)[:, 0]
        labeled = len(self.model)
        cross[:, labeled - 1] = column[self._order]
        self._values[:] = self.model.predict(self.ordered, cross=cross[:, :labeled])

    def predict(self, points: np.ndarray) -> np.ndarray:
        """The model at the rows of ``points``; the spline's needs a label."""
        return self.model.predict(points[:, 0] if self._spline else points)

    @property
    def f(self) -> np.ndarray:
        """The model at every task point, by index."""
        return self._values[self._rank]

    @property
    def n_wrong(self) -> int:
        return _count_wrong(self._values, self.truth)

    def select(self, rng) -> scoring.ScoredCandidate:
        return self.state.select(rng)


def _learner(model: ModelConfig, points: np.ndarray, kind: ScoreKind | None, budget: int,
             order: np.ndarray, oracle: np.ndarray):
    """The run's learner for score ``kind`` (None for random selection), over the
    task's points, their stable ``order`` by the first coordinate and their
    oracle labels: the run's :func:`scoring_state` when it is an
    :class:`~maximin_al.scoring.IntervalState`, else a :class:`_ModelLearner`
    beside it."""
    state = None if kind is None else scoring_state(model, points, kind, budget, order, oracle)
    if isinstance(state, scoring.IntervalState):
        return state
    return _ModelLearner(model, points, state, order, oracle, budget)


def sample_task(task: dict, seed) -> tuple[np.ndarray, np.ndarray, ClusterSpec | None]:
    """Sample a threshold or clusters task: (points, oracle labels, cluster spec or None)."""
    _check_task(task, ("threshold", "clusters"))
    if task["kind"] == "threshold":
        _, pool = gen_threshold_task(task["n"], task["k"], seed)
        return pool.points, pool.hidden_labels, None
    spec = ClusterSpec(task["centers"], task["radii"], task["labels"],
                       task["counts"], task.get("p", 2.0))
    pool = gen_clusters(spec, seed)
    return pool.points, pool.hidden_labels, spec


def _build_task(cfg: ExperimentConfig, task_seed):
    """Materialize (points, oracle labels, cluster spec, holdout points, holdout labels)."""
    task = cfg.task
    if task["kind"] != "csv":
        return (*sample_task(task, task_seed), None, None)
    points, labels = load_csv_dataset(task["path"])
    holdout = float(task.get("holdout", 0.0))
    if not 0.0 <= holdout < 1.0:
        raise ValueError(f"holdout must be in [0, 1), got {holdout}")
    if holdout == 0.0:
        return points, labels, None, None, None
    rng = np.random.default_rng(task_seed)
    n_test = int(round(holdout * len(points)))
    if n_test == 0:
        raise ValueError(f"holdout {holdout} of {len(points)} rows leaves no test row")
    test = np.zeros(len(points), dtype=bool)
    test[rng.choice(len(points), size=n_test, replace=False)] = True
    return points[~test], labels[~test], None, points[test], labels[test]


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Execute one configured run; see the module docstring for semantics."""
    root = np.random.SeedSequence(cfg.seed)
    task_ss, select_ss = root.spawn(2)
    points, oracle, cluster_spec, test_points, test_labels = _build_task(cfg, task_ss)
    n, dim = points.shape

    if cfg.budget > n:
        raise ValueError(f"budget {cfg.budget} exceeds pool size {n}")

    init = cfg.init
    if init == "auto":
        init = "extremes" if dim == 1 else "none"
    if cfg.model.kind == "spline" and dim != 1:
        raise ValueError("the spline model is 1-D only")
    if init == "extremes" and dim != 1:
        raise ValueError("extremes initialization requires a 1-D task")

    rng = np.random.default_rng(select_ss)
    kind = None if cfg.score == "random" else ScoreKind(cfg.score)
    # The training error is a count, so it is taken over the points sorted by
    # their first coordinate: 1-D models then locate the queries in order.
    # The 1-D states sort by the same order.
    order = scoring.sort_order(points[:, 0])
    learner = _learner(cfg.model, points, kind, cfg.budget, order, oracle)

    record = RunRecord(config=cfg, task_kind=cfg.task["kind"])
    if cluster_spec is not None:
        ball_of = cluster_spec.locate(points)
        record.per_cluster_counts = [0] * cluster_spec.n_balls
    if test_points is not None:
        record.test_errors = []

    # budget <= n, so the pool never runs out.
    unlabeled = np.ones(n, dtype=bool)
    forced = []
    if init == "extremes":
        x = points[:, 0]
        forced = [int(np.argmin(x)), int(np.argmax(x))]
        forced = list(dict.fromkeys(forced))[:cfg.budget]

    for step in range(1, cfg.budget + 1):
        if forced or kind is None:
            if forced:
                idx = forced.pop(0)
            else:  # the draw of rng.choice(pool), by index
                pool = np.flatnonzero(unlabeled)
                idx = int(pool[rng.integers(len(pool))])
            est = int(scoring.sign_labels(learner.f[idx]))
            score_val = _UNSCORED
        else:
            chosen = learner.select(rng)
            idx, est, score_val = chosen.index, chosen.label, chosen.score

        truth = int(oracle[idx])
        learner.add(idx, truth)
        unlabeled[idx] = False

        err = learner.n_wrong / n
        record.steps.append(StepRecord(step, idx, est, truth, score_val, err))
        if record.queries_to_zero is None and err == 0.0:
            record.queries_to_zero = step
        if cluster_spec is not None:
            ball = int(ball_of[idx])
            if ball >= 0:
                record.per_cluster_counts[ball] += 1
                if record.per_cluster_counts[ball] == 2:
                    record.first_cluster_repeat_step = record.first_cluster_repeat_step or step
        if test_points is not None:
            wrong = _count_wrong(learner.predict(test_points), test_labels > 0)
            record.test_errors.append(wrong / len(test_labels))
        if cfg.stop_at_zero and err == 0.0:
            break

    record.final_error = record.steps[-1].train_error if record.steps else float("nan")
    return record


def summarize(records: list[RunRecord]) -> dict:
    """Per-step error quantiles and queries-to-zero across runs, as the
    mapping ``sweep`` writes to ``summary.json``.

    All records must come from the same task family.  Error curves of unequal
    length (early stops) are extended by repeating their last value.
    """
    if not records:
        raise ValueError("no records to summarize")
    kinds = {r.task_kind for r in records}
    if len(kinds) != 1:
        raise ValueError(f"cannot mix task families in one summary: {sorted(kinds)}")
    longest = max(len(r.steps) for r in records)
    curves = np.array([
        r.train_errors + [r.train_errors[-1]] * (longest - len(r.steps))
        for r in records
    ])
    queries = [r.queries_to_zero for r in records]
    reached = [q for q in queries if q is not None]
    out = {
        "task_kind": kinds.pop(),
        "n_runs": len(records),
        "steps": list(range(1, longest + 1)),
        "median_error": np.median(curves, axis=0).tolist(),
        "q25_error": np.quantile(curves, 0.25, axis=0).tolist(),
        "q75_error": np.quantile(curves, 0.75, axis=0).tolist(),
        "queries_to_zero": queries,
        "median_queries_to_zero": float(np.median(reached)) if reached else float("nan"),
        "unreached_runs": len(queries) - len(reached),
    }
    if all(r.per_cluster_counts is not None for r in records):
        out["cluster_count_std"] = [float(np.std(r.per_cluster_counts)) for r in records]
    return out
