"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every check is seeded and deterministic.
"""

import importlib.resources
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import cli, geo, metrics, sim, sonar_ekf
from fusenav.core import GRAVITY, GpsFix, ImuLog, SonarChannel, quat_to_matrix
from fusenav.feedback import AudioMessage, AudioScheduler, intensity_map
from fusenav.localizer import (
    LocalizerConfig,
    calibrate,
    level_heading_quat,
    run_localizer,
)
from fusenav.perception import (
    DROPOFF_MARGIN,
    LATENCY_S,
    THRESHOLDS,
    DetectionEvent,
    DetectionKind,
    MockRecognizer,
    ObstacleDetector,
    RecognitionGate,
)

SEEDS = range(20)


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


# ---------------------------------------------------------------------------
# 1. Sonar EKF update arithmetic


def test_criterion_01_sonar_update_variance():
    s = sonar_ekf.update(sonar_ekf.init([2.0, 2.0]), [2.05, 1.95])
    expected = 0.09 / 1.09
    assert abs(s.p[0] - expected) < 1e-9
    assert abs(s.p[1] - expected) < 1e-9
    report(1, f"posterior variance {s.p[0]:.9f} == 0.09/1.09 within 1e-9")


# ---------------------------------------------------------------------------
# 2. Fusion variance reduction (two sensors around a fixed 2.0 m target)


def test_criterion_02_fusion_variance_reduction():
    reductions = []
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 77])
        z = 2.0 + rng.normal(0.0, 0.3, size=(10_000, 2))
        s = sonar_ekf.init(z[0])
        fused = []
        for k in range(1, len(z)):
            s = sonar_ekf.update(sonar_ekf.predict(s), z[k])
            fused.append(sonar_ekf.fused_distance(s))
        v_fused = np.var(fused)
        assert v_fused < np.var(z[:, 0])
        assert v_fused < np.var(z[:, 1])
        reductions.append(np.var(z[:, 0]) / v_fused)
    report(
        2,
        f"fused variance below both raw sensors for 20/20 seeds "
        f"(median reduction {np.median(reductions):.0f}x)",
    )


# ---------------------------------------------------------------------------
# 3 & 4. ES-EKF boundedness and raw-vs-DMP ordering over the 110 m walk


def _walk_errors(seed, noise, gps_on=True):
    sc = sim.Scenario(route=((0.0, 0.0), (110.0, 0.0)), noise=noise, seed=seed)
    truth = sim.gen_walk(sc)
    imu = sim.synth_imu(truth, noise, seed)
    fixes = sim.synth_gps(truth, noise, seed, sc.gps_rate, sc.anchor_fix())
    if not gps_on:
        fixes = fixes[:1]
    offsets = calibrate(sim.stationary_imu_source(noise, seed))
    run = run_localizer(imu, fixes, cli._localizer_config(noise), offsets)
    est = run.trajectory("est", sc.anchor_fix()).xyz
    err = np.hypot(*(est[:, :2] - truth.p[: len(est), :2]).T)
    gps_err = [
        np.hypot(
            *(
                geo.wgs84_to_enu(f, sc.anchor_fix())[:2]
                - [np.interp(f.t, truth.t, truth.p[:, i]) for i in range(2)]
            )
        )
        for f in fixes
    ]
    return err, float(np.mean(gps_err))


@pytest.fixture(scope="module")
def walk_errors():
    raw = sim.NoiseConfig()
    dmp = raw.dmp_like()
    out = {}
    for seed in SEEDS:
        err_on, gps_mean = _walk_errors(seed, raw)
        err_off, _ = _walk_errors(seed, raw, gps_on=False)
        err_dmp, _ = _walk_errors(seed, dmp)
        out[seed] = dict(on=err_on, off=err_off, dmp=err_dmp, gps_mean=gps_mean)
    return out


def test_criterion_03_es_ekf_boundedness(walk_errors):
    means, p95s = [], []
    for seed in SEEDS:
        r = walk_errors[seed]
        mean = r["on"].mean()
        means.append(mean)
        p95s.append(np.percentile(r["on"], 95))
        assert mean <= 3.0, f"seed {seed}: fused mean {mean:.2f} m exceeds 3 m"
        assert mean <= r["gps_mean"], f"seed {seed}: fused worse than GPS-only"
        assert r["off"][-1] > r["on"][-1], f"seed {seed}: drift not worse than fused"
    assert max(p95s) <= 3 * 3.0  # 95th percentile within 3 sigma_gps
    report(
        3,
        f"fused mean {np.mean(means):.2f} m (max {max(means):.2f}) <= 3 m and "
        f"<= GPS-only on 20/20 seeds; GPS-off final error larger on 20/20",
    )


def test_criterion_04_raw_vs_dmp_ordering(walk_errors):
    wins = sum(
        walk_errors[s]["dmp"].mean() < walk_errors[s]["on"].mean() for s in SEEDS
    )
    assert wins >= 18, f"DMP-like preset better in only {wins}/20 seeds"
    raw_mean = np.mean([walk_errors[s]["on"].mean() for s in SEEDS])
    dmp_mean = np.mean([walk_errors[s]["dmp"].mean() for s in SEEDS])
    report(
        4,
        f"lower-noise preset beats raw in {wins}/20 seeds "
        f"(mean {dmp_mean:.2f} m vs {raw_mean:.2f} m; ordering only, the "
        f"field-trial absolute errors are not desk-reproducible)",
    )


# ---------------------------------------------------------------------------
# 5. IMU-only drift law


def test_criterion_05_drift_law():
    bias = np.array([0.1, 0.0, 0.0])
    q = level_heading_quat(0.0)
    f_body = quat_to_matrix(q).T @ -GRAVITY + bias
    t = np.arange(0.0, 10.0 + 1e-9, 0.01)
    imu = ImuLog(t, np.tile(f_body, (len(t), 1)), np.zeros((len(t), 3)))
    anchor = GpsFix(0.0, 37.0, -122.0, 30.0)
    run = run_localizer(imu, [anchor], LocalizerConfig())
    err = float(np.linalg.norm(run.p[-1]))
    expected = 0.5 * float(np.linalg.norm(bias)) * 10.0**2
    assert abs(err - expected) / expected < 0.10
    report(5, f"bias-driven drift {err:.3f} m vs |b|t^2/2 = {expected:.3f} m at t=10 s")


# ---------------------------------------------------------------------------
# 6. Calibration accuracy and iteration budget


def test_criterion_06_calibration():
    sigma = 0.05
    accel_bias = (0.2, -0.1, 0.05)
    gyro_bias = (0.01, 0.0, -0.02)
    bound = 3 * sigma / math.sqrt(1000)
    worst = 0.0
    for seed in range(5):
        noise = sim.NoiseConfig(
            accel_sigma=sigma, gyro_sigma=sigma,
            accel_bias=accel_bias, gyro_bias=gyro_bias,
        )
        source = sim.stationary_imu_source(noise, seed)
        draws = {"n": 0}

        def counting(n, _source=source, _draws=draws):
            _draws["n"] += 1
            return _source(n)

        offsets = calibrate(counting, batch=1000, tol=1e-3, max_iter=20)
        assert draws["n"] <= 20
        err_a = np.abs(offsets.accel_offset - accel_bias)
        err_g = np.abs(offsets.gyro_offset - gyro_bias)
        assert np.all(err_a < bound) and np.all(err_g < bound)
        worst = max(worst, err_a.max(), err_g.max())
    report(
        6,
        f"offsets recovered within 3*sigma/sqrt(1000) = {bound:.2e} "
        f"(worst {worst:.2e}), <= 20 iterations, batch 1000",
    )


# ---------------------------------------------------------------------------
# 7. Geodesy anchors and round trips


def test_criterion_07_geodesy():
    assert_allclose(
        geo.wgs84_to_ecef(GpsFix(0, 0.0, 0.0, 0.0)), [6378137.0, 0.0, 0.0], atol=1e-9
    )
    pole = geo.wgs84_to_ecef(GpsFix(0, 90.0, 0.0, 0.0))
    assert abs(pole[2] - 6356752.3142) < 1e-3
    rng = np.random.default_rng(2024)
    worst_deg, worst_alt = 0.0, 0.0
    for _ in range(10_000):
        fix = GpsFix(
            0.0, rng.uniform(-90, 90), rng.uniform(-180, 180), rng.uniform(-100, 9000)
        )
        lat, lon, alt = geo.ecef_to_wgs84(geo.wgs84_to_ecef(fix))
        worst_deg = max(worst_deg, abs(lat - fix.lat), abs(lon - fix.lon))
        worst_alt = max(worst_alt, abs(alt - fix.alt))
    assert worst_deg < 1e-9 and worst_alt < 1e-6
    report(
        7,
        f"equator/pole anchors exact; 1e4 round trips within "
        f"{worst_deg:.1e} deg / {worst_alt:.1e} m",
    )


# ---------------------------------------------------------------------------
# 8. Heterogeneous gating and the recognition latency


def test_criterion_08_gating_and_latency():
    gate = RecognitionGate(MockRecognizer(seed=0))
    gate.submit(DetectionEvent(0.0, SonarChannel.FRONT, DetectionKind.OBSTACLE, 1.5))
    for k in range(10):
        gate.submit(
            DetectionEvent(0.01 * (k + 1), SonarChannel.FRONT, DetectionKind.OBSTACLE, 1.4)
        )
    done = gate.flush()
    assert gate.processed_count == 2
    # each frame completes LATENCY_S after it starts: the burst's newest at the first's end
    assert [r.completed_t for r in done] == [0.604, 0.604 + 0.604]

    drop_gate = RecognitionGate(MockRecognizer(seed=0))
    for k in range(10):
        drop_gate.submit(
            DetectionEvent(0.1 * k, SonarChannel.INCLINED_LEFT, DetectionKind.DROPOFF, 2.0)
        )
    drop_gate.flush()
    assert drop_gate.processed_count == 0

    report(
        8,
        f"11-event burst -> 2 recognitions, drop-offs -> 0; "
        f"each frame done {LATENCY_S * 1000:.0f} ms after it starts",
    )


# ---------------------------------------------------------------------------
# 9. Detection recall properties over a noise sweep


def _detection_course(sonar_sigma, seed):
    return sim.Scenario(
        route=((0.0, 0.0), (60.0, 0.0)),
        imu_rate=50.0,
        noise=sim.NoiseConfig(
            accel_sigma=0.0, gyro_sigma=0.0, accel_bias=(0, 0, 0), gyro_bias=(0, 0, 0),
            gps_sigma=0.0, sonar_sigma=sonar_sigma,
        ),
        obstacles=(
            sim.Obstacle(15.0, 0.3, 0.25),
            sim.Obstacle(30.0, 1.2, 0.3),
            sim.Obstacle(45.0, -1.2, 0.3),
        ),
        dropoffs=(sim.DropoffZone(52.0, 55.0, 0.5),),
        seed=seed,
    )


def _expected_windows(truth, geometry):
    """Contiguous regions where the noiseless ranges satisfy a trigger rule."""
    windows = []
    for channel, ranges in truth.sonar_true.items():
        if channel in (SonarChannel.INCLINED_LEFT, SonarChannel.INCLINED_RIGHT):
            rules = [
                (DetectionKind.DROPOFF, ranges >= geometry.expected_ground_range + DROPOFF_MARGIN),
                (DetectionKind.OBSTACLE, ranges <= geometry.expected_ground_range - DROPOFF_MARGIN),
            ]
        else:
            thr = THRESHOLDS[channel]
            rules = [(DetectionKind.OBSTACLE, np.isfinite(ranges) & (ranges <= thr))]
        for kind, mask in rules:
            edges = np.flatnonzero(np.diff(mask.astype(int)))
            starts = [0] if mask[0] else []
            starts += [int(e) + 1 for e in edges if mask[e + 1]]
            ends = [int(e) for e in edges if mask[e]] + ([len(mask) - 1] if mask[-1] else [])
            for a, b in zip(starts, ends):
                windows.append((channel, kind, truth.t[a], truth.t[b]))
    return windows


def _detection_recall(sonar_sigma, seed):
    sc = _detection_course(sonar_sigma, seed)
    truth = sim.gen_walk(sc)
    windows = _expected_windows(truth, sc.geometry)
    log = sim.synth_sonar(truth, sc)
    fused = sonar_ekf.fuse_front_pair(log)
    events = ObstacleDetector(sc.geometry).process(log, fused.t, fused.fused)
    hits = 0
    for channel, kind, t0, t1 in windows:
        if any(
            e.channel is channel and e.kind is kind and t0 - 1.0 <= e.t <= t1 + 0.5
            for e in events
        ):
            hits += 1
    false_events = sum(
        not any(
            e.channel is channel and e.kind is kind and t0 - 1.0 <= e.t <= t1 + 0.5
            for channel, kind, t0, t1 in windows
        )
        for e in events
    )
    return hits / len(windows), false_events, len(windows)


def test_criterion_09_detection_recall_sweep():
    sweep = [0.0, 0.05, 0.15, 0.3]
    recalls = []
    for sigma in sweep:
        per_seed = [_detection_recall(sigma, seed)[0] for seed in range(10)]
        recalls.append(float(np.mean(per_seed)))
    recall0, false0, n_windows = _detection_recall(0.0, 0)
    assert recall0 == 1.0
    assert false0 == 0
    for a, b in zip(recalls, recalls[1:]):
        assert b <= a + 1e-9, f"recall not monotone over noise sweep: {recalls}"
    report(
        9,
        f"zero-noise: 100% recall over {n_windows} expected events, 0 false; "
        f"recall over sigma {sweep}: {[round(r, 3) for r in recalls]}",
    )


# ---------------------------------------------------------------------------
# 10. Feedback properties


def test_criterion_10_feedback_properties():
    rng = np.random.default_rng(0)
    d = rng.uniform(-1.0, 5.0, size=(100_000, 2))
    lo, hi = d.min(axis=1), d.max(axis=1)
    v_lo = np.array([intensity_map(x) for x in lo])
    v_hi = np.array([intensity_map(x) for x in hi])
    assert np.all(v_lo >= v_hi)

    rng = np.random.default_rng(1)
    for trial in range(30):
        gap = float(rng.uniform(0.4, 3.0))
        window = float(rng.uniform(2.0, 20.0))
        sched = AudioScheduler(min_gap=gap, staleness=1e9)
        burst = int(rng.integers(1, 200))
        for k in range(burst):
            sched.offer(AudioMessage(int(rng.integers(0, 4)), "m", 0.0))
        emissions = sum(
            sched.poll(float(t)) is not None for t in np.arange(0.0, window, 0.01)
        )
        assert emissions <= math.ceil(window / gap)
    report(
        10,
        "intensity map monotone over 1e5 random pairs; scheduler bounded by "
        "ceil(window/min_gap) over 30 random bursts",
    )


# ---------------------------------------------------------------------------
# 11. Metrics against the brute-force oracle


def test_criterion_11_metrics_oracle():
    from test_metrics import brute_force_report  # the independent oracle

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n_truth = int(rng.integers(4, 40))
        n_est = int(rng.integers(4, 120))
        t_truth = np.sort(rng.uniform(0, 60, n_truth)) + np.arange(n_truth) * 1e-6
        truth = rng.standard_normal((n_truth, 3)) * 15
        t_est = np.sort(rng.uniform(t_truth[0], t_truth[-1], n_est)) + np.arange(n_est) * 1e-9
        est = rng.standard_normal((n_est, 3)) * 15
        got = metrics.evaluate(
            metrics.Trajectory(t_est, est, "est"),
            metrics.Trajectory(t_truth, truth, "truth"),
        )
        mean, peak, relative, vertical = brute_force_report(t_est, est, t_truth, truth)
        t0, t1 = max(t_est[0], t_truth[0]), min(t_est[-1], t_truth[-1])
        assert got.n_points == sum(t0 <= t <= t1 for t in t_est)
        assert abs(got.mean - mean) < 1e-12
        assert abs(got.peak - peak) < 1e-12
        assert abs(got.vertical_mean - vertical) < 1e-12
        assert abs(got.relative_percent - relative) <= 1e-12 * max(relative, 1.0)
        assert got.mean <= got.peak
        worst = max(
            worst, abs(got.mean - mean), abs(got.peak - peak), abs(got.vertical_mean - vertical)
        )
    report(11, f"1000 random trajectory pairs match direct summation (worst {worst:.1e})")


# ---------------------------------------------------------------------------
# 12. Whole-pipeline determinism


def test_criterion_12_pipeline_determinism(tmp_path):
    scenario = importlib.resources.files("fusenav") / "scenarios" / "walk110.cfg"
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    # two more runs in child processes with different hash seeds
    src = str(Path(cli.__file__).resolve().parents[1])
    children = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["run", "--scenario", str(scenario), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "fusenav.cli", *argv], env=env, capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()
        children.append(out)
    # every file that run writes, whatever their number
    outputs = sorted(f.name for f in a.iterdir())
    for other in (b, *children):
        assert sorted(f.name for f in other.iterdir()) == outputs, other
        for name in outputs:
            assert (a / name).read_bytes() == (other / name).read_bytes(), (other, name)
    report(
        12,
        f"two in-process runs and two child processes (PYTHONHASHSEED 1, 2) "
        f"produced byte-identical {len(outputs)} outputs",
    )
