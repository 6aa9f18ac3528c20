"""Threshold tasks, lp-ball cluster generators, and regime validators.

Oracle strategy: direct geometric measurement of the generated artifacts
(piece lengths, ball membership) and distributional checks
(CLT bound on ball means, Kolmogorov-Smirnov against the exact marginal CDFs).
"""

import numpy as np
import pytest
from scipy.stats import kstest

from maximin_al.synthetic import (
    ClusterSpec,
    ThresholdTask1D,
    gen_clusters,
    gen_threshold_task,
    validate_theorem_regime,
)


class TestThresholdTask:
    def test_reproducible_and_seed_sensitive(self):
        t1, p1 = gen_threshold_task(200, 5, 7)
        t2, p2 = gen_threshold_task(200, 5, 7)
        t3, p3 = gen_threshold_task(200, 5, 8)
        assert np.array_equal(p1.points, p2.points)
        assert np.array_equal(t1.thresholds, t2.thresholds)
        assert t1.first_label == t2.first_label
        assert not np.array_equal(p1.points, p3.points)

    def test_points_in_unit_interval_and_distinct(self):
        _, pool = gen_threshold_task(500, 3, 0)
        x = pool.points.ravel()
        assert np.all((x >= 0) & (x <= 1))
        assert len(np.unique(x)) == len(x)

    def test_piece_lengths(self):
        # Jittered equal spacing keeps every piece within [0.5/k, 1.5/k].
        for seed in range(20):
            k = 2 + seed % 7
            task, _ = gen_threshold_task(100, k, seed)
            edges = np.concatenate([[0.0], np.sort(task.thresholds), [1.0]])
            lengths = np.diff(edges)
            assert len(lengths) == k
            assert np.all(lengths >= 0.5 / k - 1e-12)
            assert np.all(lengths <= 1.5 / k + 1e-12)

    def test_oracle_alternates_across_cuts(self):
        task, _ = gen_threshold_task(50, 4, 3)
        edges = np.concatenate([[0.0], task.thresholds, [1.0]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        labels = task.oracle(mids)
        assert np.all(labels[:-1] * labels[1:] == -1)
        assert labels[0] == task.first_label

    def test_pool_labels_match_oracle(self):
        task, pool = gen_threshold_task(300, 6, 11)
        assert np.array_equal(pool.hidden_labels, task.oracle(pool.points.ravel()))

    def test_k_one_is_constant(self):
        task, pool = gen_threshold_task(50, 1, 2)
        assert task.thresholds.size == 0
        assert np.all(pool.hidden_labels == pool.hidden_labels[0])

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            gen_threshold_task(10, 0, 0)
        with pytest.raises(ValueError):
            gen_threshold_task(4, 5, 0)


class TestClusterSpec:
    def test_validation_errors(self):
        good = dict(centers=[[0.0, 0.0], [5.0, 0.0]], radii=[1.0, 1.0],
                    labels=[1, -1], counts=[10, 10])
        ClusterSpec(**good)
        with pytest.raises(ValueError):
            ClusterSpec(**{**good, "radii": [1.0]})
        with pytest.raises(ValueError):
            ClusterSpec(**{**good, "radii": [1.0, -1.0]})
        with pytest.raises(ValueError):
            ClusterSpec(**{**good, "labels": [1, 0]})
        with pytest.raises(ValueError):
            ClusterSpec(**{**good, "counts": [10, 0]})
        with pytest.raises(ValueError):
            ClusterSpec(**{**good, "p": 0.5})
        # Not truncated to 2 and 5, and not a TypeError.
        for bad in ({"counts": [2.9, 5]}, {"counts": [True, True]}, {"p": "2"},
                    {"p": None}, {"p": True}):
            with pytest.raises(ValueError, match="must be"):
                ClusterSpec(**{**good, **bad})
        with pytest.raises(ValueError):  # overlapping balls
            ClusterSpec([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [1, -1], [5, 5])

    def test_separation(self):
        spec = ClusterSpec([[0.0, 0.0], [10.0, 0.0]], [1.0, 2.0], [1, -1], [5, 5])
        assert spec.separation == pytest.approx(10.0 - 4.0)
        single = ClusterSpec([[0.0]], [1.0], [1], [5])
        assert single.separation == float("inf")

    def test_locate(self):
        spec = ClusterSpec([[0.0, 0.0], [10.0, 0.0]], [1.0, 2.0], [1, -1], [5, 5])
        got = spec.locate([[0.5, 0.0], [10.0, 1.5], [5.0, 5.0]])
        assert np.array_equal(got, [0, 1, -1])


class TestTaskSample:
    @pytest.mark.parametrize("make, n, d", [
        (lambda: gen_threshold_task(64, 3, 0)[1], 64, 1),
        (lambda: gen_clusters(ClusterSpec([[0.0, 0.0], [5.0, 0.0]], [1.0, 1.0], [1, -1],
                                          [30, 20]), 1), 50, 2),
    ], ids=["threshold", "clusters"])
    def test_generators_return_points_and_hidden_labels(self, make, n, d):
        # The benchmark's task builder reads exactly these two attributes.
        sample = make()
        assert sample.points.shape == (n, d) and sample.points.dtype == float
        assert sample.hidden_labels.shape == (n,)
        assert set(np.unique(sample.hidden_labels)) == {-1, 1}
        with pytest.raises(TypeError):
            len(sample)  # a record of two arrays, not a sequence of them


class TestGenClusters:
    def test_points_inside_their_balls(self):
        spec = ClusterSpec([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]],
                           [1.5, 1.0, 0.5], [1, -1, 1], [50, 40, 30], p=1.0)
        pool = gen_clusters(spec, 0)
        assert len(pool.points) == 120
        where = spec.locate(pool.points)
        assert np.array_equal(where, np.repeat([0, 1, 2], [50, 40, 30]))
        assert np.array_equal(pool.hidden_labels, np.repeat([1, -1, 1], [50, 40, 30]))

    def test_reproducible(self):
        spec = ClusterSpec([[0.0], [5.0]], [1.0, 1.0], [1, -1], [20, 20])
        a = gen_clusters(spec, 3)
        b = gen_clusters(spec, 3)
        assert np.array_equal(a.points, b.points)

    def test_ball_means_near_centers(self):
        # Per-coordinate CLT bound: each coordinate lies in [-r, r], so the
        # sample-mean deviation is below 3 r / sqrt(m) with probability ~0.997.
        m = 800
        spec = ClusterSpec([[1.0, -2.0], [9.0, 4.0]], [2.0, 1.0], [1, -1],
                           [m, m], p=2.0)
        pool = gen_clusters(spec, 5)
        for i in range(2):
            block = pool.points[i * m:(i + 1) * m]
            dev = np.abs(block.mean(axis=0) - spec.centers[i])
            assert np.all(dev <= 3.0 * spec.radii[i] / np.sqrt(m))

    def test_marginal_distributions(self):
        # d=1: uniform on the interval; d=2, p=1: triangular marginal;
        # d=2, p=2: semicircle marginal. All exact CDFs.
        n = 4000
        seed = 12

        pool = gen_clusters(ClusterSpec([[0.0]], [1.0], [1], [n], p=2.0), seed)
        assert kstest(pool.points.ravel(), "uniform",
                      args=(-1.0, 2.0)).pvalue > 0.01

        pool = gen_clusters(ClusterSpec([[0.0, 0.0]], [1.0], [1], [n], p=1.0), seed)

        def triangle_cdf(x):
            x = np.clip(x, -1.0, 1.0)
            return np.where(x <= 0, (x + 1) ** 2 / 2, 1 - (1 - x) ** 2 / 2)

        assert kstest(pool.points[:, 0], triangle_cdf).pvalue > 0.01

        pool = gen_clusters(ClusterSpec([[0.0, 0.0]], [1.0], [1], [n], p=2.0), seed)

        def semicircle_cdf(x):
            x = np.clip(x, -1.0, 1.0)
            return 0.5 + (x * np.sqrt(1 - x ** 2) + np.arcsin(x)) / np.pi

        assert kstest(pool.points[:, 0], semicircle_cdf).pvalue > 0.01


class TestRegimeValidator:
    def layout(self, h, r1, r2, D, M=5):
        centers = [[i * (D + 2 * r1), 0.0] for i in range(M)]
        radii = [r1] + [r2] * (M - 1)
        return ClusterSpec(centers, radii, ([1, -1] * M)[:M], [10] * M, p=2.0)

    def test_first_point_regime_accepts_and_reports_margins(self):
        h = 0.5
        r1, r2 = 0.4 * h, 0.3 * h  # strictly inside the r1 <= h/2 regime
        bound = 0.5 * h * (np.log(5) - np.log1p(-(r2 / r1) ** 2))
        spec = self.layout(h, r1, r2, 1.2 * bound)
        report = validate_theorem_regime(spec, h, "first_point")
        assert report.ok
        assert all(c.margin > 0 for c in report.checks)

    def test_first_point_rejects_large_radius(self):
        h = 0.5
        spec = self.layout(h, h, 0.3 * h, 10.0)  # r1 = h violates r1 <= h/2
        report = validate_theorem_regime(spec, h, "first_point")
        assert not report.ok
        named = {c.name: c for c in report.checks}
        assert not named["r1 <= h/2"].satisfied

    def test_first_point_degenerate_equal_radii(self):
        h = 1.0
        spec = self.layout(h, h / 2, h / 2, 100.0)
        report = validate_theorem_regime(spec, h, "first_point")
        assert not report.ok  # the bound diverges when r2 == r1

    def test_cluster_explore_accepts_wide_separation(self):
        h = 0.2
        M = 6
        D = 13.0 * h * np.log(2 * M)  # above the 12 h ln(2M) regime bound
        spec = self.layout(h, h / 4, h / 4, D, M=M)
        report = validate_theorem_regime(spec, h, "cluster_explore")
        assert report.ok

    def test_cluster_explore_rejects_small_separation(self):
        h = 0.2
        spec = self.layout(h, h / 4, h / 4, h, M=6)  # D far below 12 h ln(2M)
        report = validate_theorem_regime(spec, h, "cluster_explore")
        assert not report.ok

    def test_argument_errors(self):
        spec = self.layout(0.5, 0.25, 0.15, 5.0)
        with pytest.raises(ValueError):
            validate_theorem_regime(spec, 0.0, "first_point")
        with pytest.raises(ValueError):
            validate_theorem_regime(spec, 0.5, "nonsense")
