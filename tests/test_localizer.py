import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import localizer, sim
from fusenav.core import (
    GRAVITY,
    DataError,
    GpsFix,
    ImuLog,
    InvalidQuaternionError,
    hamilton,
    level_heading_quat,
    quat_to_matrix,
    rotvec_quat,
    unit,
)
from fusenav.localizer import (
    MAX_IMU_DT,
    CalibrationDivergedError,
    CalibrationOffsets,
    ImuSampleError,
    LocalizerConfig,
    NominalState,
    calibrate,
    gps_update,
    initial_covariance,
    propagate,
    run_localizer,
)

G = 9.80665


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

        with pytest.raises(CalibrationDivergedError) as info:
            calibrate(drifting, batch=100, tol=1e-6, max_iter=5)
        assert np.all(np.isfinite(info.value.accel_residual))


def imu_log(t, accel, gyro=(0.0, 0.0, 0.0)):
    """ImuLog with the same accel and gyro reading at every time in ``t``."""
    t = np.asarray(t, dtype=float)
    return ImuLog(t=t, accel=np.tile(accel, (len(t), 1)), gyro=np.tile(gyro, (len(t), 1)))


def assert_rel_close(got, want, rtol=1e-12):
    """``got`` equals ``want`` to ``rtol`` relative to the norm of ``want``."""
    assert np.linalg.norm(np.asarray(got) - want) <= rtol * np.linalg.norm(want)


def dense_propagate(s, P, accel, gyro, dt, cfg):
    """Reference for propagate: the same step in dense NumPy, through the
    core quaternion kernels and a 9x9 Qd."""
    if not 0.0 < dt <= MAX_IMU_DT:
        raise DataError(f"dt={dt} outside (0, {MAX_IMU_DT}] s")
    if not all(np.all(np.isfinite(x)) for x in (accel, gyro, s.p, s.v, s.q)):
        raise DataError("non-finite propagation input")
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
    return NominalState(p=p, v=v, q=q, t=s.t + dt), 0.5 * (p_cov + p_cov.T)


def make_cfg(**kw):
    defaults = dict(accel_noise=0.1, gyro_noise=0.01, gps_pos_std=3.0)
    defaults.update(kw)
    return LocalizerConfig(**defaults)


class TestPropagate:
    def test_stationary_level_mount_is_fixed_point(self):
        cfg = make_cfg()
        q = level_heading_quat(0.7)
        s = NominalState(p=np.zeros(3), v=np.zeros(3), q=q, t=0.0)
        p_cov = initial_covariance(cfg)
        # reading the gravity reaction of the z-down mount: -gravity in body
        accel = quat_to_matrix(q).T @ -GRAVITY
        s1, _ = propagate(s, p_cov, accel, np.zeros(3), 0.02, cfg)
        assert_allclose(s1.p, 0.0, atol=1e-12)
        assert_allclose(s1.v, 0.0, atol=1e-12)
        assert_allclose(s1.q, q, atol=1e-12)

    def test_free_fall_closed_form(self):
        # accel = 0 (free fall), 1 s of 0.1 s steps: v = g t, p = g t^2 / 2
        cfg = make_cfg()
        s = NominalState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0]), 0.0)
        p_cov = initial_covariance(cfg)
        for _ in range(10):
            s, p_cov = propagate(s, p_cov, np.zeros(3), np.zeros(3), 0.1, cfg)
        assert_allclose(s.v, [0.0, 0.0, -9.80665], atol=1e-9)
        assert_allclose(s.p, [0.0, 0.0, -4.9033], atol=1e-3)

    def test_constant_acceleration_half_a_t_squared(self):
        cfg = make_cfg()
        s = NominalState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0]), 0.0)
        p_cov = initial_covariance(cfg)
        # gravity-compensated: body reading includes the gravity reaction
        accel = np.array([1.0, 0.0, 0.0]) - GRAVITY
        for _ in range(100):
            s, p_cov = propagate(s, p_cov, accel, np.zeros(3), 0.01, cfg)
        assert_allclose(s.p, [0.5, 0.0, 0.0], atol=1e-2)

    def test_dt_bounds_enforced(self):
        cfg = make_cfg()
        s = NominalState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0]), 0.0)
        for bad_dt in (0.0, -0.01, 0.2):
            with pytest.raises(DataError):
                propagate(s, initial_covariance(cfg), np.zeros(3), np.zeros(3), bad_dt, cfg)

    def test_non_finite_input_rejected(self):
        cfg = make_cfg()
        s = NominalState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0]), 0.0)
        accel = np.array([np.nan, 0, 0])
        with pytest.raises(DataError):
            propagate(s, initial_covariance(cfg), accel, np.zeros(3), 0.01, cfg)
        # the state's p, v and q and the gyro reading are checked as well
        p_cov, zero = initial_covariance(cfg), np.zeros(3)
        for bad in (np.nan, np.inf, -np.inf):
            for field in ("p", "v", "q"):
                value = getattr(s, field).copy()
                value[-1] = bad
                with pytest.raises(DataError, match="non-finite"):
                    propagate(replace(s, **{field: value}), p_cov, zero, zero, 0.01, cfg)
            with pytest.raises(DataError, match="non-finite"):
                propagate(s, p_cov, zero, np.array([0.0, bad, 0.0]), 0.01, cfg)
        with pytest.raises(InvalidQuaternionError):
            propagate(replace(s, q=np.zeros(4)), p_cov, zero, zero, 0.01, cfg)
        # finite inputs whose product's norm overflows to inf; a nan norm
        # cannot arise, since a non-finite input is rejected above
        with pytest.raises(InvalidQuaternionError, match="norm inf"):
            propagate(replace(s, q=np.full(4, 1e200)), p_cov, zero, zero, 0.01, cfg)

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
                t=0.0,
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
                    t=s.t,
                )

            def error_between(sa, sb):
                dq = quat_product(sa.q, sb.q * [1.0, -1.0, -1.0, -1.0])
                return np.concatenate([sa.p - sb.p, sa.v - sb.v, rotation_vector(dq)])

            fd = np.zeros((9, 9))
            p_cov = initial_covariance(cfg)
            for j in range(9):
                delta = np.zeros(9)
                delta[j] = eps
                plus, _ = propagate(perturb(delta), p_cov, accel, gyro, dt, cfg)
                minus, _ = propagate(perturb(-delta), p_cov, accel, gyro, dt, cfg)
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
            _, f_cov = propagate(s, np.eye(9), accel, gyro, dt, zero_q)
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
                t=rng.uniform(0.0, 100.0),
            )
            a = rng.standard_normal((9, 9))
            p_cov = a @ a.T + np.diag(rng.uniform(0.01, 10.0, 9))
            accel = rng.standard_normal(3) * 3 - GRAVITY
            dt = MAX_IMU_DT if k % 5 == 0 else rng.uniform(1e-4, MAX_IMU_DT)
            gyro = rng.standard_normal(3) * (1e-9 / dt if k % 4 == 0 else 1.0)
            small_angle += np.linalg.norm(gyro * dt) < 1e-8
            full_dt += dt == MAX_IMU_DT
            got_s, got_p = propagate(s, p_cov, accel, gyro, dt, cfg)
            want_s, want_p = dense_propagate(s, p_cov, accel, gyro, dt, cfg)
            for got, want in zip(
                (got_s.p, got_s.v, got_s.q, got_p), (want_s.p, want_s.v, want_s.q, want_p)
            ):
                assert_rel_close(got, want)
            assert got_s.t == want_s.t
        assert small_angle >= 100 and full_dt >= 100

    def test_run_matches_dense_reference(self, monkeypatch):
        noise = sim.NoiseConfig()
        sc = straight_scenario(noise)
        truth = sim.gen_walk(sc)
        imu = sim.synth_imu(truth, noise, sc.seed)
        fixes = sim.synth_gps(truth, noise, sc.seed, sc.gps_rate, sc.anchor_fix())
        offsets = calibrate(sim.stationary_imu_source(noise, sc.seed))
        cfg = make_cfg(accel_noise=noise.accel_sigma, gyro_noise=noise.gyro_sigma)
        run = run_localizer(imu, fixes, cfg, offsets)
        monkeypatch.setattr(localizer, "propagate", dense_propagate)
        ref = run_localizer(imu, fixes, cfg, offsets)
        assert run.accepted_fixes == ref.accepted_fixes > 0
        assert run.rejected_fixes == ref.rejected_fixes
        assert np.max(np.abs(run.p - ref.p)) < 1e-9

    def test_covariance_stays_symmetric_psd_long_run(self):
        cfg = make_cfg()
        rng = np.random.default_rng(17)
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0.0), 0.0)
        p_cov = initial_covariance(cfg)
        worst_eig = 0.0
        batch = np.empty((1000, 9, 9))  # every step's P, eigen-solved per batch
        for k in range(100_000):
            accel = rng.standard_normal(3) * 2 + [0, 0, -G]
            gyro = rng.standard_normal(3) * 0.2
            s, p_cov = propagate(s, p_cov, accel, gyro, 0.01, cfg)
            if k % 100 == 0:
                s, p_cov, _ = gps_update(s, p_cov, s.p + rng.standard_normal(3), cfg)
            # both steps return 0.5 * (P + P^T), which is symmetric exactly
            assert np.array_equal(p_cov, p_cov.T)
            batch[k % 1000] = p_cov
            if k % 1000 == 999:
                worst_eig = min(worst_eig, np.min(np.linalg.eigvalsh(batch)))
                # keep the state bounded so the run exercises generic geometry
                s = NominalState(np.zeros(3), np.zeros(3), s.q, s.t)
        assert worst_eig >= -1e-9


class TestGpsUpdate:
    def test_zero_innovation_contracts_covariance_only(self):
        cfg = make_cfg()
        s = NominalState(np.array([1.0, 2.0, 3.0]), np.zeros(3), level_heading_quat(0), 0.0)
        p_cov = initial_covariance(cfg)
        s1, p1, ok = gps_update(s, p_cov, s.p.copy(), cfg)
        assert ok
        assert_allclose(s1.p, s.p, atol=1e-15)
        assert np.trace(p1[:3, :3]) < np.trace(p_cov[:3, :3])

    def test_scalar_posterior_variance(self):
        # uncorrelated prior variance 4, measurement variance 4 -> posterior 2
        cfg = make_cfg(gps_pos_std=2.0)
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0), 0.0)
        p_cov = np.diag([4.0] * 3 + [1.0] * 6)
        _, p1, ok = gps_update(s, p_cov, np.array([0.5, -0.5, 0.2]), cfg)
        assert ok
        assert_allclose(np.diag(p1)[:3], [2.0, 2.0, 2.0], atol=1e-12)

    def test_gate_rejects_outlier(self):
        # tight prior (0.01) and sigma 3: threshold 5*sqrt(9.01) ~ 15 m,
        # so a 20 m east displacement must be rejected
        cfg = make_cfg(gps_pos_std=3.0)
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0), 0.0)
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
        s = NominalState(np.zeros(3), np.zeros(3), level_heading_quat(0), 0.0)
        p_cov = initial_covariance(cfg)
        s1, p1, ok = gps_update(s, p_cov, np.array([1.0, np.nan, 0.0]), cfg)
        assert not ok
        assert s1 is s and p1 is p_cov


def straight_scenario(noise, seed=0, length=110.0):
    return sim.Scenario(route=((0.0, 0.0), (length, 0.0)), noise=noise, seed=seed)


class TestRunLocalizer:
    def test_zero_noise_straight_walk(self):
        sc = straight_scenario(sim.NoiseConfig.quiet())
        truth = sim.gen_walk(sc)
        imu = sim.synth_imu(truth, sc.noise, sc.seed)
        fixes = sim.synth_gps(truth, sc.noise, sc.seed, sc.gps_rate, sc.anchor_fix())
        cfg = make_cfg(accel_noise=1e-4, gyro_noise=1e-5, gps_pos_std=0.01)
        init = NominalState(p=truth.p[0], v=truth.v[0], q=truth.q[0], t=0.0)
        run = run_localizer(imu, fixes, cfg, initial=init)
        err = np.linalg.norm(run.positions_in(sc.anchor_fix()) - truth.p, axis=1)
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

    @pytest.mark.parametrize("case", ["gap", "huge_gyro"])
    def test_bad_step_names_its_sample(self, case):
        # a gap longer than MAX_IMU_DT, or a finite gyro reading whose
        # rotation angle overflows
        anchor = GpsFix(0.0, 37.0, -122.0, 30.0)
        t = [0.0, 0.01, 0.02, 0.03]
        if case == "gap":
            t[2] += MAX_IMU_DT
        imu = imu_log(t, [0, 0, -G])
        if case == "huge_gyro":
            imu.gyro[2, 0] = 1e200
        with pytest.raises(ImuSampleError, match=r"IMU sample 2 \(t=") as info:
            run_localizer(imu, [anchor], make_cfg())
        assert info.value.index == 2

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
        init = NominalState(p=truth.p[0], v=truth.v[0], q=truth.q[0], t=0.0)
        offsets = CalibrationOffsets(np.array([0.3, -0.2, 0.1]), np.zeros(3))
        run_with = run_localizer(imu, fixes, cfg, offsets, initial=init)
        run_without = run_localizer(imu, fixes, cfg, initial=init)
        err_with = np.linalg.norm(run_with.p - truth.p, axis=1).mean()
        err_without = np.linalg.norm(run_without.p - truth.p, axis=1).mean()
        assert err_with < 0.05
        assert err_without > 5 * err_with
