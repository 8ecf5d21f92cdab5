import math

import numpy as np
import pytest

from fusenav.core import DataError
from fusenav.metrics import Trajectory, evaluate, format_table


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
        report = evaluate(traj(t, xyz, "est"), traj(t, xyz, "truth"))
        assert report.peak == 0.0 and report.vertical_mean == 0.0
        assert report.n_points == len(t)

    def test_interpolation_density(self):
        # truth at 1 Hz, estimate at 100 Hz on the same line: one pair per
        # estimate sample, and interpolation makes every error zero
        t_truth = np.arange(0.0, 10.5, 1.0)
        truth = np.column_stack([t_truth, np.zeros_like(t_truth), np.zeros_like(t_truth)])
        t_est = np.arange(0.0, 10.0001, 0.01)
        est = np.column_stack([t_est, np.zeros_like(t_est), np.zeros_like(t_est)])
        report = evaluate(traj(t_est, est, "est"), traj(t_truth, truth, "truth"))
        assert report.n_points == len(t_est)
        assert report.peak < 1e-12

    def test_constant_offset_construction(self):
        t, xyz = straight()
        shifted = xyz + np.array([1.0, 0.0, 0.0])
        report = evaluate(traj(t, shifted, "est"), traj(t, xyz, "truth"))
        assert report.mean == pytest.approx(1.0, abs=1e-12)
        assert report.peak == pytest.approx(1.0, abs=1e-12)
        assert report.vertical_mean == 0.0

    def test_points_outside_overlap_dropped_and_counted(self):
        # the estimate runs on past both truth ends, where truth would clamp:
        # any pair outside the overlap would carry an error
        t, xyz = straight(n=100)
        report = evaluate(traj(t, xyz, "est"), traj(t[20:80], xyz[20:80], "truth"))
        assert report.n_points == len(t) - 20 - 20
        assert report.peak == 0.0

    def test_no_overlap_raises(self):
        t, xyz = straight(n=10)
        with pytest.raises(DataError, match="no time overlap between 'est' and 'truth'"):
            evaluate(traj(t, xyz, "est"), traj(t + 100.0, xyz, "truth"))

    def test_no_sample_inside_overlap_raises(self):
        # the estimate spans the truth's time range but has no sample inside it
        t, xyz = straight(n=10)
        est = traj([0.0, 10.0], np.zeros((2, 3)), "est")
        with pytest.raises(DataError, match="no time overlap"):
            evaluate(est, traj(t + 2.0, xyz, "truth"))


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
        report = evaluate(traj(t, est, "est"), traj(t, truth, "truth"))
        assert report.mean == pytest.approx(2.0)
        assert report.peak == pytest.approx(3.0)

    def test_constant_offset_relative_against_oracle(self):
        # constant 1 m error along a 10 m uniformly sampled walk
        n = 11
        t = np.linspace(0.0, 10.0, n)
        truth = np.column_stack([t, np.zeros(n), np.zeros(n)])
        est = truth + np.array([0.0, 1.0, 0.0])
        report = evaluate(traj(t, est, "est"), traj(t, truth, "truth"))
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
            report = evaluate(traj(t_est, est, "est"), traj(t_truth, truth, "truth"))
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
        r1 = evaluate(traj(t, est, "e"), traj(t, truth, "t"))
        r2 = evaluate(traj(t, est + offset, "e"), traj(t, truth + offset, "t"))
        assert r1.mean == pytest.approx(r2.mean, abs=1e-12)
        assert r1.peak == pytest.approx(r2.peak, abs=1e-12)
        assert r1.relative_percent == pytest.approx(r2.relative_percent, rel=1e-9)

    def test_zero_path_length_rejected(self):
        t = np.array([0.0, 1.0, 2.0])
        truth = np.tile([5.0, 5.0, 0.0], (3, 1))  # walker never moves
        est = truth + 1.0
        with pytest.raises(DataError, match="zero distance"):
            evaluate(traj(t, est, "e"), traj(t, truth, "t"))


class TestFormatTable:
    def test_format_table_contains_labels(self):
        t = np.linspace(0, 10, 21)
        truth = np.column_stack([t, np.zeros_like(t), np.zeros_like(t)])
        est = truth + np.array([0.0, 1.0, 0.0])
        table = format_table(evaluate(traj(t, est, "walk_a"), traj(t, truth, "truth")))
        header, row = table.split("\n")
        assert header.split() == ["trajectory", "mean_m", "peak_m", "rel_%", "points"]
        assert row.split() == ["walk_a", "1.000", "1.000", "20.00", "21"]
