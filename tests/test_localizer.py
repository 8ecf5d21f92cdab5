import importlib
import importlib.util
import itertools
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import cli, geo, sim
from fusenav.core import (
    GRAVITY,
    DataError,
    GpsFix,
    ImuLog,
    NumericalError,
    StreamError,
    hamilton,
    level_heading_quat,
    quat_to_matrix,
    rotation_entries,
    rotvec_quat,
    unit,
)
from fusenav.localizer import (
    MAX_IMU_DT,
    CalibrationOffsets,
    LocalizerConfig,
    NominalState,
    calibrate,
    gps_update,
    initial_covariance,
    propagate,
    run_localizer,
)
from test_sim import QUIET

G = 9.80665
WALK110 = Path(cli.__file__).parent / "scenarios" / "walk110.cfg"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CITY = PERFBENCH / "city.cfg"


def skew(v) -> np.ndarray:
    """Skew-symmetric cross-product matrix of a 3-vector."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_vector(q) -> np.ndarray:
    """Inverse of rotvec_quat: the shortest rotation vector of unit q."""
    q = np.asarray(q, dtype=float)
    if q[0] < 0.0:
        q = -q
    sin_half = math.sqrt(float(q[1:] @ q[1:]))
    if sin_half < 1e-12:
        return 2.0 * q[1:]
    angle = 2.0 * math.atan2(sin_half, q[0])
    return angle / sin_half * q[1:]


def quat_product(a, b) -> np.ndarray:
    """a (x) b of two quaternions (4,), through the float kernels."""
    return np.array(hamilton(np.asarray(a).tolist(), np.asarray(b).tolist()))


def rotvec_to_quat(theta) -> np.ndarray:
    return np.array(rotvec_quat(np.asarray(theta, dtype=float).tolist()))


def constant_source(accel_bias, gyro_bias, sigma=0.0, seed=0):
    """Stationary level IMU with constant offsets and optional noise."""
    rng = np.random.default_rng(seed)
    base = np.array([0.0, 0.0, -G]) + np.asarray(accel_bias, dtype=float)
    gyro = np.asarray(gyro_bias, dtype=float)
    calls = {"n": 0}

    def source(n):
        calls["n"] += 1
        return (
            base + sigma * rng.standard_normal((n, 3)),
            gyro + sigma * rng.standard_normal((n, 3)),
        )

    return source, calls


class TestCalibrate:
    def test_constant_offsets_recovered_exactly(self):
        source, calls = constant_source([0.2, -0.1, 0.05], [0.01, 0.0, -0.02])
        offsets = calibrate(source, batch=1000, tol=1e-3)
        assert_allclose(offsets.accel_offset, [0.2, -0.1, 0.05], atol=1e-9)
        assert_allclose(offsets.gyro_offset, [0.01, 0.0, -0.02], atol=1e-9)
        # one adjusting draw plus the confirming draw
        assert calls["n"] <= 2

    def test_already_calibrated_returns_zero(self):
        source, calls = constant_source([0, 0, 0], [0, 0, 0])
        offsets = calibrate(source, batch=1000, tol=1e-3)
        assert_allclose(offsets.accel_offset, 0.0, atol=1e-12)
        assert_allclose(offsets.gyro_offset, 0.0, atol=1e-12)
        assert calls["n"] == 1

    def test_noisy_converges_within_sem_bound(self):
        # standard error of the mean of 1000 draws bounds the residual
        for seed in range(5):
            source, calls = constant_source(
                [0.2, -0.1, 0.05], [0.01, 0.0, -0.02], sigma=0.05, seed=seed
            )
            offsets = calibrate(source, batch=1000, tol=1e-3, max_iter=20)
            assert calls["n"] <= 20
            bound = 3 * 0.05 / math.sqrt(1000)
            assert np.all(np.abs(offsets.accel_offset - [0.2, -0.1, 0.05]) < bound)
            assert np.all(np.abs(offsets.gyro_offset - [0.01, 0.0, -0.02]) < bound)

    def test_divergence_reports_residual(self):
        # a drifting source never settles
        state = {"k": 0}

        def drifting(n):
            state["k"] += 1
            a = np.full((n, 3), 0.5 * state["k"])
            a[:, 2] -= G
            return a, np.zeros((n, 3))

        with pytest.raises(NumericalError, match="calibration did not converge") as info:
            calibrate(drifting, batch=100, tol=1e-6, max_iter=5)
        pattern = r"calibration did not converge: accel residual \[(.*)\], gyro residual \[(.*)\]"
        residuals = re.fullmatch(pattern, str(info.value)).groups()
        for numbers in residuals:
            assert np.all(np.isfinite(np.array(numbers.split(), dtype=float)))


def imu_log(t, accel, gyro=(0.0, 0.0, 0.0)):
    """ImuLog with the same accel and gyro reading at every time in ``t``."""
    t = np.asarray(t, dtype=float)
    return ImuLog(t=t, accel=np.tile(accel, (len(t), 1)), gyro=np.tile(gyro, (len(t), 1)))


def assert_rel_close(got, want, rtol=1e-12):
    """``got`` equals ``want`` to ``rtol`` relative to the norm of ``want``."""
    assert np.linalg.norm(np.asarray(got) - want) <= rtol * np.linalg.norm(want)


# The per-step body's constants: the flat indices of F's dt and -[c]x
# entries, and of Qd's diagonal.
F_INDEX = [3, 13, 23, 7, 8, 15, 17, 24, 25, 34, 35, 42, 44, 51, 52]
QD_INDEX = [30, 40, 50, 60, 70, 80]


def step(s, P, accel, gyro, dt, cfg):
    """Oracle for propagate: one strapdown step on floats through the core
    quaternion kernels, and P <- F P F^T + Qd, symmetrised, per step."""
    if not 0.0 < dt <= MAX_IMU_DT:
        raise DataError(f"dt={dt} outside (0, {MAX_IMU_DT}] s")
    px, py, pz = p0 = s.p.tolist()
    vx, vy, vz = v0 = s.v.tolist()
    q0 = s.q.tolist()
    ax, ay, az = a0 = accel.tolist()
    wx, wy, wz = w0 = gyro.tolist()
    if not all(map(math.isfinite, p0 + v0 + q0 + a0 + w0)):
        raise DataError("non-finite propagation input")

    r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotation_entries(q0)
    cx = r00 * ax + r01 * ay + r02 * az
    cy = r10 * ax + r11 * ay + r12 * az
    cz = r20 * ax + r21 * ay + r22 * az
    nx, ny, nz = cx + GRAVITY[0], cy + GRAVITY[1], cz + GRAVITY[2]
    p = np.array(
        [
            px + vx * dt + 0.5 * nx * dt * dt,
            py + vy * dt + 0.5 * ny * dt * dt,
            pz + vz * dt + 0.5 * nz * dt * dt,
        ]
    )
    v = np.array([vx + nx * dt, vy + ny * dt, vz + nz * dt])
    q = np.array(unit(hamilton(q0, rotvec_quat((wx * dt, wy * dt, wz * dt)))))

    hx, hy, hz = 0.5 * cx * dt * dt, 0.5 * cy * dt * dt, 0.5 * cz * dt * dt
    ex, ey, ez = cx * dt, cy * dt, cz * dt
    f = np.eye(9)
    f.put(F_INDEX, (dt, dt, dt, hz, -hy, -hz, hx, hy, -hx, ez, -ey, -ez, ex, ey, -ex))
    p_cov = f @ P @ f.T
    qa = (cfg.accel_noise * dt) ** 2
    qg = (cfg.gyro_noise * dt) ** 2
    p_cov.put(QD_INDEX, p_cov.take(QD_INDEX) + (qa, qa, qa, qg, qg, qg))
    return NominalState(p=p, v=v, q=q), 0.5 * (p_cov + p_cov.T)


def noise_error(cfg, what):
    return NumericalError(
        f"{what}; noise settings accel_noise={cfg.accel_noise}, "
        f"gyro_noise={cfg.gyro_noise}, gps_pos_std={cfg.gps_pos_std}"
    )


def step_run(imu, fixes, cfg, offsets, initial=None):
    """Oracle for run_localizer: its contract as one loop over the samples,
    each fix applied through gps_update after the step that reaches it,
    from ``initial`` or else run_localizer's start (at the anchor, at rest,
    level, facing east).  A step that cannot run raises StreamError("imu",
    why, i) at its sample i, as does a non-finite state after the last
    sample; noise that overflows, or that leaves P non-finite at a fix,
    raises NumericalError."""
    ref = fixes[0]
    s = initial or NominalState(geo.wgs84_to_enu(ref, ref), np.zeros(3), level_heading_quat(0.0))
    p_cov = initial_covariance(cfg)
    accel = imu.accel - offsets.accel_offset
    gyro = imu.gyro - offsets.gyro_offset
    rows, accepted, rejected, k, t_prev = [], 0, 0, 1, ref.t
    for i, t in enumerate(imu.t.tolist()):
        if t < ref.t:
            continue
        dt = t - t_prev
        if dt < 0.0:
            raise StreamError("imu", "timestamps unsorted", i)
        if dt == 0.0 and rows:
            raise StreamError("imu", "duplicate timestamp", i)
        if dt != 0.0:  # a first sample on the anchor takes no step
            try:
                s, p_cov = step(s, p_cov, accel[i], gyro[i], dt, cfg)
            except DataError as exc:
                raise StreamError("imu", str(exc), i) from None
            except ValueError as exc:  # math.sin of a rotation angle that overflowed
                raise StreamError("imu", f"gyro reading too large ({exc})", i) from None
            except OverflowError:  # squaring a noise setting
                raise noise_error(cfg, f"process noise overflowed at t={t}") from None
        t_prev = t
        while k < len(fixes) and fixes[k].t <= t:
            if not np.isfinite(p_cov).all():
                raise noise_error(cfg, f"covariance not finite at the fix t={fixes[k].t}")
            s, p_cov, ok = gps_update(s, p_cov, geo.wgs84_to_enu(fixes[k], ref), cfg)
            accepted, rejected, k = accepted + ok, rejected + (not ok), k + 1
        rows.append((t, s.p, s.v, s.q))
    if not np.isfinite(np.concatenate([s.p, s.v, s.q])).all():
        raise StreamError("imu", "non-finite state after the last sample", i)
    t, p, v, q = zip(*rows)
    return np.array(t), np.array(p), np.array(v), np.array(q), accepted, rejected


def dense_propagate(s, P, accel, gyro, dt, cfg):
    """Second reference for one step: dense NumPy, through quat_to_matrix
    and a 9x9 Qd."""
    c = quat_to_matrix(s.q)
    a_nav = c @ accel + GRAVITY
    p = s.p + s.v * dt + 0.5 * a_nav * dt * dt
    v = s.v + a_nav * dt
    q = np.array(unit(quat_product(s.q, rotvec_to_quat(gyro * dt))))
    ca_skew = skew(c @ accel)
    f = np.eye(9)
    f[0:3, 3:6] = np.eye(3) * dt
    f[0:3, 6:9] = -0.5 * ca_skew * dt * dt
    f[3:6, 6:9] = -ca_skew * dt
    qd = np.zeros((9, 9))
    qd[3:6, 3:6] = np.eye(3) * (cfg.accel_noise * dt) ** 2
    qd[6:9, 6:9] = np.eye(3) * (cfg.gyro_noise * dt) ** 2
    p_cov = f @ P @ f.T + qd
    return NominalState(p=p, v=v, q=q), 0.5 * (p_cov + p_cov.T)


def segment(s, P, accel, gyro, dt, cfg):
    """propagate over the steps ``dt`` (one step: a float and (3,) readings),
    as the state after the last step and P."""
    seg, p_cov = propagate(
        s, P, np.reshape(accel, (-1, 3)), np.reshape(gyro, (-1, 3)), np.atleast_1d(dt), cfg
    )
    return NominalState(p=seg.p[-1], v=seg.v[-1], q=seg.q[-1]), p_cov


def make_cfg(**kw):
    defaults = dict(accel_noise=0.1, gyro_noise=0.01, gps_pos_std=3.0)
    defaults.update(kw)
    return LocalizerConfig(**defaults)


class TestPropagate:
    def test_stationary_level_mount_is_fixed_point(self):
        cfg = make_cfg()
        q = level_heading_quat(0.7)
        s = NominalState(p=np.zeros(3), v=np.zeros(3), q=q)
        p_cov = initial_covariance(cfg)
        # reading the gravity reaction of the z-down mount: -gravity in body
        accel = quat_to_matrix(q).T @ -GRAVITY
        s1, _ = segment(s, p_cov, accel, np.zeros(3), 0.02, cfg)
        s50, _ = segment(s, p_cov, np.tile(accel, (50, 1)), np.zeros((50, 3)), [0.02] * 50, cfg)
        for got in (s1, s50):
            assert_allclose(got.p, 0.0, atol=1e-12)
            assert_allclose(got.v, 0.0, atol=1e-12)
            assert_allclose(got.q, q, atol=1e-12)

    def test_free_fall_closed_form(self):
        # accel = 0 (free fall), 1 s of 0.1 s steps: v = g t, p = g t^2 / 2
        cfg = make_cfg()
        s0 = NominalState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0]))
        s, p_cov = s0, initial_covariance(cfg)
        for _ in range(10):
            s, p_cov = segment(s, p_cov, np.zeros(3), np.zeros(3), 0.1, cfg)
        zeros = np.zeros((10, 3))
        whole, _ = segment(s0, initial_covariance(cfg), zeros, zeros, [0.1] * 10, cfg)
        for got in (s, whole):
            assert_allclose(got.v, [0.0, 0.0, -9.80665], atol=1e-9)
            assert_allclose(got.p, [0.0, 0.0, -4.9033], atol=1e-3)

    def test_constant_acceleration_half_a_t_squared(self):
        cfg = make_cfg()
        s0 = NominalState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0]))
        # gravity-compensated: body reading includes the gravity reaction
        accel = np.array([1.0, 0.0, 0.0]) - GRAVITY
        s, p_cov = s0, initial_covariance(cfg)
        for _ in range(100):
            s, p_cov = segment(s, p_cov, accel, np.zeros(3), 0.01, cfg)
        accels, zeros = np.tile(accel, (100, 1)), np.zeros((100, 3))
        whole, _ = segment(s0, initial_covariance(cfg), accels, zeros, [0.01] * 100, cfg)
        for got in (s, whole):
            assert_allclose(got.p, [0.5, 0.0, 0.0], atol=1e-2)

    def test_jacobian_matches_finite_differences(self):
        # central differences of the nominal propagation over the 9 error
        # directions (navigation-frame attitude error) against F
        cfg = make_cfg()
        rng = np.random.default_rng(3)
        eps = 1e-6
        for _ in range(25):
            q = rotvec_to_quat(rng.standard_normal(3))
            s = NominalState(
                p=rng.standard_normal(3) * 10,
                v=rng.standard_normal(3) * 2,
                q=q,
            )
            accel = rng.standard_normal(3) * 5
            gyro = rng.standard_normal(3) * 0.5
            dt = rng.uniform(0.005, 0.05)

            def perturb(delta):
                dp, dv, dth = delta[0:3], delta[3:6], delta[6:9]
                return NominalState(
                    p=s.p + dp,
                    v=s.v + dv,
                    q=quat_product(rotvec_to_quat(dth), s.q),
                )

            def error_between(sa, sb):
                dq = quat_product(sa.q, sb.q * [1.0, -1.0, -1.0, -1.0])
                return np.concatenate([sa.p - sb.p, sa.v - sb.v, rotation_vector(dq)])

            fd = np.zeros((9, 9))
            p_cov = initial_covariance(cfg)
            for j in range(9):
                delta = np.zeros(9)
                delta[j] = eps
                plus, _ = segment(perturb(delta), p_cov, accel, gyro, dt, cfg)
                minus, _ = segment(perturb(-delta), p_cov, accel, gyro, dt, cfg)
                fd[:, j] = error_between(plus, minus) / (2 * eps)

            # the analytic blocks match the finite differences ...
            f = np.eye(9)
            f[0:3, 3:6] = np.eye(3) * dt
            ca = skew(quat_to_matrix(s.q) @ accel)
            f[0:3, 6:9] = -0.5 * ca * dt * dt
            f[3:6, 6:9] = -ca * dt
            assert np.linalg.norm(fd - f) / np.linalg.norm(f) < 1e-5
            # ... and propagate's covariance of an identity P is F F^T
            zero_q = make_cfg(accel_noise=0.0, gyro_noise=1e-12)
            _, f_cov = segment(s, np.eye(9), accel, gyro, dt, zero_q)
            assert_rel_close(f_cov, f @ f.T)

    def test_matches_dense_reference(self):
        cfg = make_cfg()
        rng = np.random.default_rng(11)
        small_angle = full_dt = 0
        for k in range(600):
            s = NominalState(
                p=rng.standard_normal(3) * 50,
                v=rng.standard_normal(3) * 2,
                q=np.array(unit(rng.standard_normal(4).tolist())),
            )
            a = rng.standard_normal((9, 9))
            p_cov = a @ a.T + np.diag(rng.uniform(0.01, 10.0, 9))
            accel = rng.standard_normal(3) * 3 - GRAVITY
            dt = MAX_IMU_DT if k % 5 == 0 else rng.uniform(1e-4, MAX_IMU_DT)
            gyro = rng.standard_normal(3) * (1e-9 / dt if k % 4 == 0 else 1.0)
            small_angle += np.linalg.norm(gyro * dt) < 1e-8
            full_dt += dt == MAX_IMU_DT
            got_s, got_p = segment(s, p_cov, accel, gyro, dt, cfg)
            want_s, want_p = dense_propagate(s, p_cov, accel, gyro, dt, cfg)
            for got, want in zip(
                (got_s.p, got_s.v, got_s.q, got_p), (want_s.p, want_s.v, want_s.q, want_p)
            ):
                assert_rel_close(got, want)
        assert small_angle >= 100 and full_dt >= 100

    def test_segment_matches_chained_steps(self):
        # random segments against the oracle stepped one sample at a time:
        # the nominal states are the same floats, P agrees to 1e-12
        cfg = make_cfg()
        rng = np.random.default_rng(5)
        for k in range(200):
            m = int(rng.integers(1, 300))
            s = NominalState(
                p=rng.standard_normal(3) * 50,
                v=rng.standard_normal(3) * 2,
                q=np.array(unit(rng.standard_normal(4).tolist())),
            )
            a = rng.standard_normal((9, 9))
            p_cov = a @ a.T + np.diag(rng.uniform(0.01, 10.0, 9))
            accel = rng.standard_normal((m, 3)) * 3 - GRAVITY
            gyro = rng.standard_normal((m, 3)) * (1e-9 if k % 4 == 0 else 1.0)
            dt = rng.uniform(1e-4, MAX_IMU_DT, m) if k % 2 else np.full(m, 0.01)
            seg, got_p = propagate(s, p_cov, accel, gyro, dt, cfg)
            want_p = p_cov
            for j in range(m):
                s, want_p = step(s, want_p, accel[j], gyro[j], dt[j].item(), cfg)
                got = (seg.p[j], seg.v[j], seg.q[j])
                assert all(map(np.array_equal, got, (s.p, s.v, s.q)))
            assert_rel_close(got_p, want_p)

    def test_run_matches_dense_reference(self):
        # run_localizer against its contract as one loop over the samples
        # (step_run), on both scenarios, raw and dmp, GPS on and off
        for path in (WALK110, CITY):
            base = cli.load_scenario(path)
            for noise, seed in itertools.product((base.noise, base.noise.dmp_like()), range(4)):
                sc = replace(base, noise=noise, seed=seed)
                truth = sim.gen_walk(sc)
                imu = sim.synth_imu(truth, noise, seed)
                fixes = sim.synth_gps(
                    truth, noise, seed, sc.gps_rate, sc.anchor_fix(), sc.gps_dropouts
                )
                offsets = calibrate(sim.stationary_imu_source(noise, seed))
                cfg = cli._localizer_config(noise)
                for gps in (fixes, fixes[:1]):
                    run = run_localizer(imu, gps, cfg, offsets)
                    t, p, v, q, accepted, rejected = step_run(imu, gps, cfg, offsets)
                    assert (run.accepted_fixes, run.rejected_fixes) == (accepted, rejected)
                    assert np.array_equal(run.t, t)
                    assert np.max(np.abs(run.p - p)) < 1e-9
                    if len(gps) == 1:  # no fix reads P: the same floats
                        for got, want in zip((run.p, run.v, run.q), (p, v, q)):
                            assert np.array_equal(got, want)
                    else:
                        assert accepted > 0

    def test_covariance_stays_symmetric_psd_long_run(self):
        # 100,000 steps as segments of 100, with a fix between segments
        cfg = make_cfg()
        rng = np.random.default_rng(17)
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0.0))
        p_cov = initial_covariance(cfg)
        worst_eig = 0.0
        batch = np.empty((20, 9, 9))  # P after each segment and fix, eigen-solved per batch
        dt = np.full(100, 0.01)
        for k in range(1000):
            accel = rng.standard_normal((100, 3)) * 2 + [0, 0, -G]
            gyro = rng.standard_normal((100, 3)) * 0.2
            s, p_cov = segment(s, p_cov, accel, gyro, dt, cfg)
            batch[2 * (k % 10)] = p_cov
            s, p_cov, _ = gps_update(s, p_cov, s.p + rng.standard_normal(3), cfg)
            batch[2 * (k % 10) + 1] = p_cov
            if k % 10 == 9:
                # both steps return 0.5 * (P + P^T), which is symmetric exactly
                assert np.array_equal(batch, batch.transpose(0, 2, 1))
                worst_eig = min(worst_eig, np.min(np.linalg.eigvalsh(batch)))
                # keep the state bounded so the run exercises generic geometry
                s = NominalState(np.zeros(3), np.zeros(3), s.q)
        assert worst_eig >= -1e-9


class TestGpsUpdate:
    def test_zero_innovation_contracts_covariance_only(self):
        cfg = make_cfg()
        s = NominalState(np.array([1.0, 2.0, 3.0]), np.zeros(3), level_heading_quat(0))
        p_cov = initial_covariance(cfg)
        s1, p1, ok = gps_update(s, p_cov, s.p.copy(), cfg)
        assert ok
        assert_allclose(s1.p, s.p, atol=1e-15)
        assert np.trace(p1[:3, :3]) < np.trace(p_cov[:3, :3])

    def test_scalar_posterior_variance(self):
        # uncorrelated prior variance 4, measurement variance 4 -> posterior 2
        cfg = make_cfg(gps_pos_std=2.0)
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0))
        p_cov = np.diag([4.0] * 3 + [1.0] * 6)
        _, p1, ok = gps_update(s, p_cov, np.array([0.5, -0.5, 0.2]), cfg)
        assert ok
        assert_allclose(np.diag(p1)[:3], [2.0, 2.0, 2.0], atol=1e-12)

    def test_gate_rejects_outlier(self):
        # tight prior (0.01) and sigma 3: threshold 5*sqrt(9.01) ~ 15 m,
        # so a 20 m east displacement must be rejected
        cfg = make_cfg(gps_pos_std=3.0)
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0))
        p_cov = np.diag([0.01] * 3 + [1.0] * 6)
        s1, p1, ok = gps_update(s, p_cov, np.array([20.0, 0.0, 0.0]), cfg)
        assert not ok
        assert_allclose(s1.p, s.p)
        assert_allclose(p1, p_cov)
        # just inside the gate: accepted
        _, _, ok2 = gps_update(s, p_cov, np.array([14.0, 0.0, 0.0]), cfg)
        assert ok2

    def test_gate_fails_closed_on_nan_fix(self):
        cfg = make_cfg()
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0))
        p_cov = initial_covariance(cfg)
        s1, p1, ok = gps_update(s, p_cov, np.array([1.0, np.nan, 0.0]), cfg)
        assert not ok
        assert s1 is s and p1 is p_cov

    @pytest.mark.parametrize(
        "var, fix",
        [(-100.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1.0, np.inf), (1.0, -np.inf)],
    )
    def test_gate_fails_closed_silently_on_a_bad_variance_or_innovation(self, var, fix):
        # a negative, nan or infinite S diagonal, or an infinite innovation,
        # is rejected as a nan fix is: no warning, the state passes through
        cfg = make_cfg()
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0))
        p_cov = initial_covariance(cfg)
        p_cov[1, 1] = var
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s1, p1, ok = gps_update(s, p_cov, np.array([0.5, fix, 0.0]), cfg)
        assert not ok
        assert s1 is s and p1 is p_cov

    def test_gate_accepts_an_innovation_on_its_bound(self):
        # S = 3 + 1 = 4 on each axis, so the bound is exactly 5 * 2 = 10 m
        cfg = make_cfg(gps_pos_std=1.0)
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0))
        p_cov = np.diag([3.0] * 3 + [1.0] * 6)
        assert gps_update(s, p_cov, np.array([10.0, -10.0, 10.0]), cfg)[2]
        assert not gps_update(s, p_cov, np.array([0.0, 0.0, np.nextafter(10.0, 11.0)]), cfg)[2]


@pytest.fixture(scope="module")
def walk110_streams():
    """walk110's raw streams at seed 0, with its localizer settings."""
    sc = replace(cli.load_scenario(WALK110), seed=0)
    truth = sim.gen_walk(sc)
    imu = sim.synth_imu(truth, sc.noise, sc.seed)
    fixes = sim.synth_gps(truth, sc.noise, sc.seed, sc.gps_rate, sc.anchor_fix(), sc.gps_dropouts)
    offsets = calibrate(sim.stationary_imu_source(sc.noise, sc.seed))
    return imu, fixes, cli._localizer_config(sc.noise), offsets


def straight_scenario(noise, seed=0, length=110.0):
    return sim.Scenario(route=((0.0, 0.0), (length, 0.0)), noise=noise, seed=seed)


class TestRunLocalizer:
    def test_zero_noise_straight_walk(self):
        sc = straight_scenario(QUIET)
        truth = sim.gen_walk(sc)
        imu = sim.synth_imu(truth, sc.noise, sc.seed)
        fixes = sim.synth_gps(truth, sc.noise, sc.seed, sc.gps_rate, sc.anchor_fix())
        cfg = make_cfg(accel_noise=1e-4, gyro_noise=1e-5, gps_pos_std=0.01)
        init = NominalState(p=truth.p[0], v=truth.v[0], q=truth.q[0])
        p = step_run(imu, fixes, cfg, CalibrationOffsets.zero(), init)[1]
        err = np.linalg.norm(geo.enu_to_enu(p, fixes[0], sc.anchor_fix()) - truth.p, axis=1)
        assert err.max() < 0.05

    def test_imu_only_bias_drift_law(self):
        # pure accel bias b: position error grows as |b| t^2 / 2
        bias = np.array([0.1, 0.0, 0.0])
        q = level_heading_quat(0.0)
        f_body = quat_to_matrix(q).T @ -GRAVITY + bias
        imu = imu_log(np.arange(0.0, 10.0 + 1e-9, 0.01), f_body)
        anchor = GpsFix(0.0, 37.0, -122.0, 30.0)
        cfg = make_cfg()
        run = run_localizer(imu, [anchor], cfg)
        err = np.linalg.norm(run.p[-1])
        expected = 0.5 * np.linalg.norm(bias) * 10.0**2
        assert abs(err - expected) / expected < 0.10

    def test_rejects_unsorted_streams(self):
        anchor = GpsFix(0.0, 37.0, -122.0, 30.0)
        imu = imu_log([0.0, 0.02, 0.01], [0, 0, -G])
        with pytest.raises(DataError, match="unsorted"):
            run_localizer(imu, [anchor], make_cfg())

    def test_unsorted_gps_stream_names_the_fix(self):
        # no command reaches this check: read_gps_csv refuses unsorted rows first
        fixes = [GpsFix(1.0, 37.0, -122.0, 30.0), GpsFix(0.5, 37.0, -122.0, 30.0)]
        imu = imu_log([1.0, 1.01, 1.02], [0, 0, -G])
        with pytest.raises(StreamError) as info:
            run_localizer(imu, fixes, make_cfg())
        assert (info.value.stream, info.value.index) == ("gps", 1)

    @pytest.mark.parametrize("case", ["gap", "huge_gyro", "duplicate", "nan_accel", "inf_gyro"])
    def test_bad_step_names_its_sample(self, case):
        # a gap longer than MAX_IMU_DT, a finite gyro reading whose rotation
        # angle overflows, a repeated time, or a non-finite reading
        anchor = GpsFix(0.0, 37.0, -122.0, 30.0)
        t = [0.0, 0.01, 0.02, 0.03]
        if case == "gap":
            t[2] += MAX_IMU_DT
        if case == "duplicate":
            t[2] = t[1]
        imu = imu_log(t, [0, 0, -G])
        if case == "huge_gyro":
            imu.gyro[2, 0] = 1e200
        if case == "nan_accel":
            imu.accel[2, 1] = np.nan
        if case == "inf_gyro":
            imu.gyro[2, 2] = np.inf
        with pytest.raises(StreamError) as info:
            run_localizer(imu, [anchor], make_cfg())
        assert (info.value.stream, info.value.index) == ("imu", 2)

    @pytest.mark.parametrize("gps", ["on", "off"])
    @pytest.mark.parametrize(
        "case",
        [
            "gap@300",
            "duplicate@300",
            "unsorted@300",
            "nan_time@300",
            "nan_accel@300",
            "inf_gyro@300",
            "huge_gyro@300",
            "noise",
            "yaw45+spike@2",
            "overflow@5",
            "overflow@5+nan_accel@400",
            "overflow@5+gap@400",
            "overflow@5+huge_gyro@112",
            "overflow@5+gap@111",
            "overflow@5+cut@111",
        ],
    )
    def test_faults_match_the_step_oracle(self, walk110_streams, case, gps):
        # the same exception type, sample and message as the per-step loop;
        # "overflow@5" makes the GPS-off state overflow going into sample 111
        imu, fixes, cfg, offsets = walk110_streams
        fixes = fixes if gps == "on" else fixes[:1]
        t, accel, gyro = imu.t.copy(), imu.accel.copy(), imu.gyro.copy()
        for part in case.split("+"):
            kind, _, at = part.partition("@")
            k = int(at or 0)
            if kind == "gap":
                t[k:] += MAX_IMU_DT
            elif kind == "duplicate":
                t[k] = t[k - 1]
            elif kind == "unsorted":
                t[k] = t[k - 1] - 0.005
            elif kind == "nan_time":
                t[k] = np.nan
            elif kind == "nan_accel":
                accel[k, 1] = np.nan
            elif kind == "inf_gyro":
                gyro[k, 2] = np.inf
            elif kind == "huge_gyro":
                gyro[k, 0] = 1e200
            elif kind == "noise":
                cfg = replace(cfg, gyro_noise=1e200)
            elif kind == "yaw45":  # sample 1 turns the walker by 45 degrees
                gyro[1, 2] = (math.pi / 4) / (t[1] - t[0])
            elif kind == "spike":  # its rotation into ENU overflows
                accel[k] = [1.7e308, 1.7e308, 0.0]
            elif kind == "overflow":
                accel[k:] = 1.7e308
            elif kind == "cut":
                t, accel, gyro = t[:k], accel[:k], gyro[:k]
        log = ImuLog(t, accel, gyro)
        # the oracle's float steps overflow P and the state before they raise
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((DataError, NumericalError)) as want:
                step_run(log, fixes, cfg, offsets)
        with pytest.raises((DataError, NumericalError)) as got:
            run_localizer(log, fixes, cfg, offsets)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "index", None) == getattr(want.value, "index", None)
        assert getattr(got.value, "stream", None) == getattr(want.value, "stream", None)
        if case == "yaw45+spike@2":
            assert want.value.index == 3
        if gps == "off" and case.startswith("overflow@5"):
            # the state after sample 110 is the first fault, unless it is the last
            assert want.value.index == (110 if "cut" in case else 111)

    def test_empty_streams_error(self):
        anchor = GpsFix(0.0, 37.0, -122.0, 30.0)
        with pytest.raises(DataError):
            run_localizer(imu_log([], [0, 0, -G]), [anchor], make_cfg())
        with pytest.raises(DataError):
            run_localizer(imu_log([0.0], [0, 0, -G]), [], make_cfg())

    def test_offsets_are_applied(self):
        noise = sim.NoiseConfig(
            accel_sigma=0.0,
            gyro_sigma=0.0,
            accel_bias=(0.3, -0.2, 0.1),
            gyro_bias=(0.0, 0.0, 0.0),
            gps_sigma=0.0,
        )
        sc = straight_scenario(noise, length=30.0)
        truth = sim.gen_walk(sc)
        imu = sim.synth_imu(truth, noise, sc.seed)
        fixes = sim.synth_gps(truth, noise, sc.seed, 1.0, sc.anchor_fix())
        cfg = make_cfg(gps_pos_std=0.05)
        init = NominalState(p=truth.p[0], v=truth.v[0], q=truth.q[0])
        offsets = CalibrationOffsets(np.array([0.3, -0.2, 0.1]), np.zeros(3))
        p_with = step_run(imu, fixes, cfg, offsets, init)[1]
        p_without = step_run(imu, fixes, cfg, CalibrationOffsets.zero(), init)[1]
        err_with = np.linalg.norm(p_with - truth.p, axis=1).mean()
        err_without = np.linalg.norm(p_without - truth.p, axis=1).mean()
        assert err_with < 0.05
        assert err_without > 5 * err_with


@pytest.mark.parametrize("seed", [0, 1])
def test_montecarlo_walks_match_the_bench_references(seed, monkeypatch):
    # the bench's montecarlo job: simulate, calibrate, localize and evaluate,
    # through LocalizerRun.trajectory's re-anchoring, which `run` never takes
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    mods = {name: importlib.import_module(f"fusenav.{name}") for name in ("sim", "metrics", "localizer")}
    errs = workloads.montecarlo_walks(mods, seed)
    # recorded when the bench was made; today's errors are up to about 1e-13 m off
    want = workloads.load_references()["montecarlo"][str(seed)]
    assert len(errs) == len(want) == 3
    assert all(abs(e - w) <= workloads.TOLERANCE_M for e, w in zip(errs, want)), (errs, want)
