import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav.core import DataError
from fusenav.metrics import (
    AlignmentError,
    Trajectory,
    align,
    error_report,
    evaluate,
    format_table,
)


def brute_force_report(t_est, est, t_truth, truth):
    """Direct-summation oracle: interpolate, then loop over pairs."""
    t0 = max(t_est[0], t_truth[0])
    t1 = min(t_est[-1], t_truth[-1])
    errors, verticals, truth_pts = [], [], []
    for k, t in enumerate(t_est):
        if not t0 <= t <= t1:
            continue
        pt = [np.interp(t, t_truth, truth[:, i]) for i in range(3)]
        truth_pts.append(pt)
        errors.append(math.hypot(est[k, 0] - pt[0], est[k, 1] - pt[1]))
        verticals.append(abs(est[k, 2] - pt[2]))
    cum = [0.0]
    for a, b in zip(truth_pts, truth_pts[1:]):
        cum.append(cum[-1] + math.hypot(b[0] - a[0], b[1] - a[1]))
    mean = sum(errors) / len(errors)
    peak = max(errors)
    relative = 100.0 * sum(errors) / sum(cum)
    return mean, peak, relative, sum(verticals) / len(verticals)


def traj(t, xyz, label="x"):
    return Trajectory(t=np.asarray(t, float), xyz=np.asarray(xyz, float), label=label)


def straight(n=50, dt=0.5, speed=1.0):
    t = np.arange(n) * dt
    xyz = np.column_stack([speed * t, np.zeros(n), np.zeros(n)])
    return t, xyz


class TestAlign:
    def test_identical_trajectories_zero_offset(self):
        t, xyz = straight()
        pairs = align(traj(t, xyz, "est"), traj(t, xyz, "truth"))
        assert_allclose(pairs.est, pairs.truth, atol=1e-15)
        assert len(pairs.t) == len(t)

    def test_interpolation_density(self):
        # truth at 1 Hz, estimate at 100 Hz: one pair per estimate sample
        t_truth = np.arange(0.0, 10.5, 1.0)
        truth = np.column_stack([t_truth, np.zeros_like(t_truth), np.zeros_like(t_truth)])
        t_est = np.arange(0.0, 10.0001, 0.01)
        est = np.column_stack([t_est, np.zeros_like(t_est), np.zeros_like(t_est)])
        pairs = align(traj(t_est, est, "est"), traj(t_truth, truth, "truth"))
        assert len(pairs.t) == len(t_est)

    def test_constant_offset_construction(self):
        t, xyz = straight()
        shifted = xyz + np.array([1.0, 0.0, 0.0])
        pairs = align(traj(t, shifted, "est"), traj(t, xyz, "truth"))
        assert_allclose(pairs.est - pairs.truth, np.tile([1.0, 0, 0], (len(t), 1)), atol=1e-12)

    def test_points_outside_overlap_dropped_and_counted(self):
        t, xyz = straight(n=100)
        pairs = align(traj(t, xyz, "est"), traj(t[20:80], xyz[20:80], "truth"))
        assert len(pairs.t) == len(t) - 20 - 20
        assert pairs.t[0] == t[20] and pairs.t[-1] == t[79]

    def test_no_overlap_raises(self):
        t, xyz = straight(n=10)
        with pytest.raises(AlignmentError):
            align(traj(t, xyz, "est"), traj(t + 100.0, xyz, "truth"))


class TestErrorReport:
    def test_zero_error(self):
        t, xyz = straight()
        report = evaluate(traj(t, xyz, "est"), traj(t, xyz, "truth"))
        assert report.mean == 0.0 and report.peak == 0.0
        assert report.relative_percent == 0.0

    def test_simple_arithmetic(self):
        # errors 1, 2, 3 -> mean 2, peak 3
        t = np.array([0.0, 1.0, 2.0])
        truth = np.column_stack([t * 10, np.zeros(3), np.zeros(3)])
        est = truth + np.array([[0, 1, 0], [0, 2, 0], [0, 3, 0]])
        report = error_report(align(traj(t, est, "est"), traj(t, truth, "truth")))
        assert report.mean == pytest.approx(2.0)
        assert report.peak == pytest.approx(3.0)

    def test_constant_offset_relative_against_oracle(self):
        # constant 1 m error along a 10 m uniformly sampled walk
        n = 11
        t = np.linspace(0.0, 10.0, n)
        truth = np.column_stack([t, np.zeros(n), np.zeros(n)])
        est = truth + np.array([0.0, 1.0, 0.0])
        report = error_report(align(traj(t, est, "est"), traj(t, truth, "truth")))
        mean, peak, relative, _ = brute_force_report(t, est, t, truth)
        assert report.mean == pytest.approx(1.0)
        assert report.peak == pytest.approx(1.0)
        assert report.relative_percent == pytest.approx(relative, abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_truth = int(rng.integers(5, 60))
            n_est = int(rng.integers(5, 200))
            t_truth = np.sort(rng.uniform(0, 100, n_truth))
            t_truth += np.arange(n_truth) * 1e-6  # enforce strict increase
            truth = rng.standard_normal((n_truth, 3)) * 20
            t_est = np.sort(rng.uniform(t_truth[0], t_truth[-1], n_est))
            t_est += np.arange(n_est) * 1e-9
            est = rng.standard_normal((n_est, 3)) * 20
            pairs = align(traj(t_est, est, "est"), traj(t_truth, truth, "truth"))
            report = error_report(pairs)
            mean, peak, relative, vertical = brute_force_report(
                t_est, est, t_truth, truth
            )
            assert report.mean == pytest.approx(mean, abs=1e-12)
            assert report.peak == pytest.approx(peak, abs=1e-12)
            assert report.relative_percent == pytest.approx(relative, rel=1e-12)
            assert report.vertical_mean == pytest.approx(vertical, abs=1e-12)
            assert report.mean <= report.peak + 1e-15

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0, 50, 40))
        t += np.arange(40) * 1e-6
        truth = rng.standard_normal((40, 3)) * 10
        est = truth + rng.standard_normal((40, 3))
        offset = np.array([123.4, -56.7, 8.9])
        r1 = error_report(align(traj(t, est, "e"), traj(t, truth, "t")))
        r2 = error_report(
            align(traj(t, est + offset, "e"), traj(t, truth + offset, "t"))
        )
        assert r1.mean == pytest.approx(r2.mean, abs=1e-12)
        assert r1.peak == pytest.approx(r2.peak, abs=1e-12)
        assert r1.relative_percent == pytest.approx(r2.relative_percent, rel=1e-9)

    def test_zero_path_length_rejected(self):
        t = np.array([0.0, 1.0, 2.0])
        truth = np.tile([5.0, 5.0, 0.0], (3, 1))  # walker never moves
        est = truth + 1.0
        with pytest.raises(DataError):
            error_report(align(traj(t, est, "e"), traj(t, truth, "t")))


class TestCompare:
    def _report(self, mean_offset, label):
        t = np.linspace(0, 10, 21)
        truth = np.column_stack([t, np.zeros_like(t), np.zeros_like(t)])
        err = np.full_like(t, mean_offset)
        est = truth + np.column_stack([np.zeros_like(t), err, np.zeros_like(t)])
        return error_report(align(traj(t, est, label), traj(t, truth, "truth")))

    def test_format_table_contains_labels(self):
        a = self._report(1.0, "a")
        b = self._report(2.0, "b")
        table = format_table([a, b])
        assert "a" in table and "b" in table and "mean_m" in table
