"""End-to-end behavioral checks runnable from the CLI (``check --suite ...``).

Each check reproduces one headline guarantee of the selection scores at desk
scale and reports a structured pass/fail.  The same functions back the
acceptance test module, so the CLI and the test suite cannot drift apart.
The kernel checks score and pick on the state a run's learner scores from,
chosen by the run's own rule (:func:`~maximin_al.harness.scoring_state`),
through the calls a run makes, so they test the code that makes every
selection.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spline, synthetic
from .harness import (ExperimentConfig, ModelConfig, load_csv_dataset,
                      run_experiment, scoring_state, write_dataset_csv)
from .kernel import KernelConfig, LabeledSet, fit
from .scoring import ScoreKind


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _run(task, model, score, budget, seed, **kw) -> "object":
    cfg = ExperimentConfig(task=task, model=model, score=score, budget=budget,
                           seed=seed, **kw)
    return run_experiment(cfg)


def _state(points, model: ModelConfig, labels, kind=ScoreKind.FUNCTION_NORM):
    """The state a run of ``model`` scores from, over the rows of ``points``, with
    ``labels`` added at the first of them; it scores the rest, in order."""
    state = scoring_state(model, points, kind, capacity=len(labels))
    for i, y in enumerate(labels):
        state.add(i, int(y))
    return state


def check_bisection_label_complexity(base_seed: int = 0) -> CheckResult:
    """Threshold task (N=1024, k=5): zero training error within k(ceil(log2 N)+4)
    queries for 10/10 seeds, kernel (h=0.1, p=1) and spline models, under 60 s."""
    n, k = 1024, 5
    bound = k * (math.ceil(math.log2(n)) + 4)
    task = {"kind": "threshold", "n": n, "k": k}
    t0 = time.perf_counter()
    results = {}
    for name, model in (("kernel", ModelConfig("kernel", h=0.1, p=1)),
                        ("spline", ModelConfig("spline"))):
        queries = []
        for seed in range(base_seed, base_seed + 10):
            rec = _run(task, model, "function", bound, seed, stop_at_zero=True)
            queries.append(rec.queries_to_zero)
        results[name] = queries
    elapsed = time.perf_counter() - t0
    ok = all(q is not None and q <= bound for qs in results.values() for q in qs)
    ok = ok and elapsed < 60.0
    detail = (f"bound={bound}, kernel={results['kernel']}, "
              f"spline={results['spline']}, elapsed={elapsed:.1f}s")
    return CheckResult("bisection label complexity", ok, detail)


def check_midpoint_closed_forms(base_seed: int = 0) -> CheckResult:
    """Isolated labeled pair: on a 10^4-point grid the function-norm argmax is
    within one step of the midpoint and the max matches the closed form to 1e-9."""
    worst_pos, worst_rel = 0.0, 0.0
    ok = True
    for gap, h in ((0.6, 0.1), (1.0, 0.1), (1.0, 0.25)):
        for same in (False, True):
            x1, x2 = 0.2, 0.2 + gap
            labels = (1, 1) if same else (1, -1)
            grid = np.linspace(x1, x2, 10_000 + 1)[1:-1]
            state = _state(np.r_[x1, x2, grid][:, None], ModelConfig("kernel", h, 1.0),
                           labels)
            scores, _ = state.scores()
            step = gap / 10_000
            mid = 0.5 * (x1 + x2)
            argmax = grid[int(np.argmax(scores))]
            d = math.exp(-gap / h)
            closed = 4.0 / (1.0 + math.sqrt(d)) - 1.0 if same else 4.0 / (1.0 - d) - 1.0
            rel = abs(np.max(scores) - closed) / abs(closed)
            worst_pos = max(worst_pos, abs(argmax - mid) / step)
            worst_rel = max(worst_rel, rel)
            ok = ok and abs(argmax - mid) <= step + 1e-12 and rel <= 1e-9
    detail = f"worst |argmax-mid|={worst_pos:.2f} steps, worst rel err={worst_rel:.2e}"
    return CheckResult("isolated-pair midpoint closed forms", ok, detail)


def check_rank_one_identity(base_seed: int = 0) -> CheckResult:
    """200 random configs (L<=50, d<=5, p in {1,2}): the state's function score
    equals the norm of the refit on the augmented set to 1e-8 relative, labels
    matching."""
    rng = np.random.default_rng(base_seed)
    worst = 0.0
    label_mismatches = 0
    for _ in range(200):
        L = int(rng.integers(1, 51))
        d = int(rng.integers(1, 6))
        p = float(rng.choice([1.0, 2.0]))
        h = float(rng.uniform(0.3, 2.0))
        pts = rng.uniform(0, 1, size=(L + 1, d))
        while len(np.unique(pts, axis=0)) != L + 1:  # pragma: no cover
            pts = rng.uniform(0, 1, size=(L + 1, d))
        labels = rng.choice([-1, 1], size=L)
        config = KernelConfig(h, p)
        scores, est = _state(pts, ModelConfig("kernel", h, p), labels).scores()
        base = LabeledSet(pts[:L], labels)
        refits = {t: fit(base.append(pts[L], t), config) for t in (1, -1)}
        norms = {t: m.norm_sq for t, m in refits.items()}
        best_t = min(norms, key=norms.get)
        rel = abs(scores[0] - norms[best_t]) / abs(norms[best_t])
        worst = max(worst, rel)
        if not math.isclose(norms[1], norms[-1], rel_tol=1e-9):
            label_mismatches += est[0] != best_t
    ok = worst <= 1e-8 and label_mismatches == 0
    detail = f"worst rel err={worst:.2e}, label mismatches={label_mismatches}"
    return CheckResult("rank-one augmentation identity", ok, detail)


def first_point_spec(h: float = 0.5) -> synthetic.ClusterSpec:
    """Five 2-D balls: r1 = h/2, others 0.6*r1, separation 1.2x the guarantee bound."""
    r1 = h / 2
    r2 = 0.6 * r1
    M, dim = 5, 2
    bound = 0.5 * h * (np.log(M) - np.log1p(-(r2 / r1) ** dim))
    D = 1.2 * bound
    side = D + 2 * r1
    R = side / (2 * np.sin(np.pi / M))
    angles = 2 * np.pi * np.arange(M) / M
    centers = R * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    counts = [250, 90, 90, 90, 90]  # proportional to ball volume (r^2)
    return synthetic.ClusterSpec(centers, [r1, r2, r2, r2, r2],
                                 [1, -1, 1, -1, 1], counts, p=2.0)


def check_first_point_largest_ball(base_seed: int = 0) -> CheckResult:
    """With no labels, the data-based score's first pick lands in the largest
    ball for 10/10 seeds (r1=h/2, r2=0.6 r1, d=2, M=5, D=1.2x bound)."""
    h = 0.5
    spec = first_point_spec(h)
    regime = synthetic.validate_theorem_regime(spec, h, "first_point")
    hits = []
    for seed in range(base_seed, base_seed + 10):
        points = synthetic.gen_clusters(spec, seed).points
        state = _state(points, ModelConfig("kernel", h, 2.0), [], ScoreKind.DATA_NORM)
        chosen = state.select(seed)
        hits.append(int(spec.locate(points[chosen.index][None, :])[0]))
    ok = regime.ok and all(b == 0 for b in hits)
    return CheckResult("first pick in largest ball", ok,
                       f"regime ok={regime.ok}, balls={hits}")


def _thirteen_balls(h: float, D: float) -> synthetic.ClusterSpec:
    """Thirteen equal 2-D balls on a 4x4 grid, r = h/4, surface separation D,
    horizontally adjacent balls labeled oppositely."""
    M = 13
    r = h / 4
    grid = [(i, j) for i in range(4) for j in range(4)][:M]
    centers = (D + 2 * r) * np.asarray(grid, dtype=float)
    labels = [1 if i % 2 == 0 else -1 for i in range(M)]
    return synthetic.ClusterSpec(centers, [r] * M, labels, [40] * M, p=2.0)


def cluster_explore_spec(h: float = 0.1) -> synthetic.ClusterSpec:
    """Thirteen equal 2-D balls, r = h/4, separation 13 h ln(2M), mixed labels."""
    return _thirteen_balls(h, 13.0 * h * np.log(2 * 13))


def cluster_contrast_spec(h: float = 0.1) -> synthetic.ClusterSpec:
    """The same 13 balls and labels as :func:`cluster_explore_spec`, moved in
    to surface separation D = h, where cross-ball kernels are not negligible
    and horizontally adjacent balls have opposite labels."""
    return _thirteen_balls(h, h)


def check_cluster_exploration(base_seed: int = 0) -> CheckResult:
    """Data-based score: first 13 picks in 13 distinct balls for 10/10 seeds on
    both layouts; function-norm score: at least one ball left unlabeled in a
    majority of seeds on the contrast layout.

    Separated layout (:func:`cluster_explore_spec`, D = 13 h ln 26): the
    ``cluster_explore`` guarantee covers the data half, so that half is
    guaranteed.  The function half cannot hold there.  Cross-ball kernels are
    at most e^{-D/h} = 26^{-13} ~ 4e-19, so for a candidate u in an unlabeled
    ball f(u) ~ 0 and S_u ~ 1, and the norm rises by (1 - |f(u)|)^2 / S_u = 1.
    In a ball whose one label sits at distance <= 2r from u, with
    c = k(u, x) >= k = e^{-2r/h} = e^{-1/2}, the rise is
    (1 - c)^2 / (1 - c^2) = (1 - c)/(1 + c) <= (1 - k)/(1 + k) ~ 0.245.
    As 1 > 0.245, no ball gets a second label while another has none, so the
    function-norm learner visits all 13 balls in 13 steps whatever the
    tie-break does; ``tests/test_scoring.py`` pins both rises.

    Contrast layout (:func:`cluster_contrast_spec`, D = h): lies outside the
    ``cluster_explore`` guarantee, so both halves are measured, not
    guaranteed.  Labels leak across balls, so an unlabeled ball no longer
    always offers the largest rise, and the function score puts second labels
    in some balls while it leaves others unlabeled.  Seeds 0-29: data picks
    distinct in 30/30 seeds, function score leaves 1-4 balls unlabeled in
    30/30.  The window is narrow: at D/h = 0.75 the data half fails in 8 of
    10 seeds, at D/h = 1.25 the function half holds in 7 of 10, and at
    D/h = 1.5, 2, 3 and 6 in none.
    """
    h = 0.1
    separated, contrast = cluster_explore_spec(h), cluster_contrast_spec(h)
    regime = synthetic.validate_theorem_regime(separated, h, "cluster_explore")
    model = ModelConfig("kernel", h=h, p=2.0)
    seeds = range(base_seed, base_seed + 10)

    def counts(spec, score, seed):
        task = {"kind": "clusters", "centers": spec.centers.tolist(),
                "radii": spec.radii.tolist(), "labels": spec.labels.tolist(),
                "counts": spec.counts.tolist(), "p": 2.0}
        return _run(task, model, score, spec.n_balls, seed).per_cluster_counts

    sep_distinct = sum(max(counts(separated, "data", s)) <= 1 for s in seeds)
    con_distinct = sum(max(counts(contrast, "data", s)) <= 1 for s in seeds)
    fn_unlabeled = [counts(contrast, "function", s).count(0) for s in seeds]
    k = math.exp(-2.0 * separated.radii.max() / h)
    ok = (regime.ok and sep_distinct == 10 and con_distinct == 10
          and sum(u >= 1 for u in fn_unlabeled) > 5)
    detail = (f"separated D={separated.separation / h:.1f}h (regime ok={regime.ok}): "
              f"data distinct={sep_distinct}/10, function score visits every "
              f"ball (cross-ball kernel <= {math.exp(-separated.separation / h):.1e}, "
              f"rise 1 in an unlabeled ball vs <= {(1 - k) / (1 + k):.3f} in a "
              f"labeled one); contrast D={contrast.separation / h:.1f}h (measured, "
              f"outside the theorem): data distinct={con_distinct}/10, function "
              f"unlabeled counts={fn_unlabeled} (need >5 seeds with >=1)")
    return CheckResult("cluster exploration contrast", ok, detail)


def _random_spline_config(rng) -> spline.SplineInterpolator:
    n = int(rng.integers(2, 9))
    pos = np.sort(rng.uniform(0, 1, size=n))
    while np.min(np.diff(pos)) < 1e-3:
        pos = np.sort(rng.uniform(0, 1, size=n))
    return spline.fit_spline(pos, rng.choice([-1, 1], size=n))


def check_spline_properties(base_seed: int = 0) -> CheckResult:
    """All eight spline score properties on 500 random knot configurations:
    midpoint maximality, width-preference directions (narrower for the
    function score, wider for the data score), constancy/vanishing between
    equal labels, and cross-type dominance.  Zero violations allowed."""
    rng = np.random.default_rng(base_seed)
    tol = 1e-9
    violations = {name: 0 for name in
                  ("F-mid", "F-width", "F-const", "F-cross",
                   "D-mid", "D-width", "D-zero", "D-cross")}
    for _ in range(500):
        m = _random_spline_config(rng)
        dens = spline.Uniform1D(m.positions[0], m.positions[-1])
        opp, same = [], []
        for j in range(len(m) - 1):
            xl, xr = m.positions[j], m.positions[j + 1]
            grid = np.linspace(xl, xr, 21)[1:-1]
            grid = np.append(grid, 0.5 * (xl + xr))
            fs, _ = spline.spline_score_pool(m, grid, ScoreKind.FUNCTION_NORM)
            ds, _ = spline.spline_score_pool(m, grid, ScoreKind.DATA_NORM, dens)
            entry = {"width": xr - xl, "f": fs, "d": ds,
                     "f_mid": fs[-1], "d_mid": ds[-1]}
            (same if m.values[j] == m.values[j + 1] else opp).append(entry)
        for e in opp:
            violations["F-mid"] += np.any(e["f"] > e["f_mid"] + tol)
            violations["D-mid"] += np.any(e["d"] > e["d_mid"] + tol)
        for a in opp:
            for b in opp:
                if a["width"] >= b["width"]:
                    violations["F-width"] += a["f_mid"] > b["f_mid"] + tol
                    violations["D-width"] += a["d_mid"] < b["d_mid"] - tol
        for e in same:
            violations["F-const"] += np.any(np.abs(e["f"] - m.weight_norm) > tol)
            violations["D-zero"] += np.any(np.abs(e["d"]) > 1e-12)
            for o in opp:
                violations["F-cross"] += np.any(e["f"][:, None] > o["f"][None, :] + tol)
                violations["D-cross"] += np.any(e["d"][:, None] > o["d"][None, :] + 1e-12)
    total = sum(int(v) for v in violations.values())
    detail = ", ".join(f"{k}={int(v)}" for k, v in violations.items())
    return CheckResult("spline score properties (8)", total == 0, detail)


def check_spline_data_norm_value(base_seed: int = 0) -> CheckResult:
    """Opposite pair at 0 and 1, uniform density: data score at 1/2 equals 1/3."""
    m = spline.fit_spline([0.0, 1.0], [1, -1])
    got = float(spline.spline_score_pool(m, [0.5], ScoreKind.DATA_NORM,
                                         spline.Uniform1D(0.0, 1.0))[0][0])
    err = abs(got - 1.0 / 3.0)
    return CheckResult("spline data score value 1/3", err <= 1e-6,
                       f"got {got:.9f}, |err|={err:.2e}")


def check_zero_crossing(base_seed: int = 0) -> CheckResult:
    """(+1, +1, -1) with separations >= 20 h^(1/p): the function-norm argmax on a
    grid between the opposite pair sits within one step of f's sign change."""
    rng = np.random.default_rng(base_seed)
    worst = 0.0
    ok = True
    for i in range(20):
        p = 1.0 if i % 2 == 0 else 2.0
        # The separation hypothesis fixes delta * h^(-1/p) = 20 for every h, so h
        # is free; pick it so the score scale near the crossing, exp(-g23/(2h)),
        # stays far above float64 ulp(score) and the grid argmax is well defined.
        h = float(rng.uniform(0.05, 0.3)) if p == 1.0 else float(rng.uniform(0.65, 1.0))
        delta = 20.0 * h ** (1.0 / p)
        g12 = delta * float(rng.uniform(1.0, 2.0))
        g23 = delta * float(rng.uniform(1.2, 2.0))
        x1 = float(rng.uniform(-1, 1))
        xs = np.array([x1, x1 + g12, x1 + g12 + g23])
        grid = np.linspace(xs[1] + delta / 2, xs[2] - delta / 2, 2001)
        step = grid[1] - grid[0]
        state = _state(np.r_[xs, grid][:, None], ModelConfig("kernel", h, p), [1, 1, -1])
        scores, _ = state.scores()
        f = state.f[3:]
        flip = int(np.flatnonzero((f[:-1] >= 0) & (f[1:] < 0))[0])
        crossing = grid[flip] + step * f[flip] / (f[flip] - f[flip + 1])
        gap = abs(grid[int(np.argmax(scores))] - crossing)
        worst = max(worst, gap / step)
        ok = ok and gap <= step + 1e-12
    return CheckResult("score peak at the sign change", ok,
                       f"worst distance={worst:.2f} grid steps (20 geometries)")


def check_active_vs_random(base_seed: int = 0, tmp_dir=None) -> CheckResult:
    """Both active scores reach zero error in at most half the random baseline's
    median queries (20 seeds, k=5 task); plus a 200-row CSV round trip."""
    n, k = 1024, 5
    task = {"kind": "threshold", "n": n, "k": k}
    model = ModelConfig("kernel", h=0.1, p=1)
    medians = {}
    for score, budget in (("function", 2 * k * 14), ("data", 2 * k * 14),
                          ("random", n)):
        qs = []
        for seed in range(base_seed, base_seed + 20):
            rec = _run(task, model, score, budget, seed, stop_at_zero=True)
            qs.append(rec.queries_to_zero if rec.queries_to_zero is not None
                      else budget + 1)
        medians[score] = float(np.median(qs))
    halved = medians["random"] / 2.0
    ok = medians["function"] <= halved and medians["data"] <= halved

    # CSV round trip: generate -> ingest -> run -> trace length equals budget.
    _, pool = synthetic.gen_threshold_task(200, 3, base_seed)
    with tempfile.TemporaryDirectory(dir=tmp_dir) as td:
        csv_path = Path(td) / "round_trip.csv"
        write_dataset_csv(csv_path, pool.points, pool.hidden_labels)
        back_pts, back_labels = load_csv_dataset(csv_path)
        round_trip = (np.array_equal(back_pts, pool.points)
                      and np.array_equal(back_labels, pool.hidden_labels))
        rec = _run({"kind": "csv", "path": str(csv_path)}, model, "function",
                   25, base_seed)
        round_trip = round_trip and len(rec.steps) == 25
    ok = ok and round_trip
    detail = (f"medians: function={medians['function']}, data={medians['data']}, "
              f"random={medians['random']} (need <= {halved}); csv ok={round_trip}")
    return CheckResult("active halves the random baseline + csv round trip", ok, detail)


SUITES = {
    "bisection": (check_bisection_label_complexity, check_active_vs_random),
    "clusters": (check_first_point_largest_ball, check_cluster_exploration),
    "splines": (check_spline_properties, check_spline_data_norm_value),
    "identities": (check_midpoint_closed_forms, check_rank_one_identity,
                   check_zero_crossing),
}
