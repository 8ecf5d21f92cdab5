"""Error-state EKF localization: IMU strapdown propagation + GPS corrections.

The nominal state (position, velocity, attitude quaternion) is integrated
directly from IMU samples; the filter estimates only the 9-dimensional
error state ``dx = (dp, dv, dtheta)`` with ``dtheta`` a navigation-frame
rotation vector (error injected as ``dq (x) q``).  GPS position fixes,
converted to local ENU, correct the error state at their own (much slower)
rate.  IMU biases are removed by the one-shot stationary calibration
routine below, not estimated online.

Innovation gating rejects fixes whose residual exceeds
``INNOVATION_GATE * sqrt(diag(H P H^T + R))`` per axis; urban GPS
produces exactly the outliers an ungated filter would be destabilized by.

The localizer is a single-threaded deterministic state machine over one
merged, time-ordered measurement stream; out-of-order timestamps within a
stream are a contract violation and raise.  Independent instances can run
concurrently on separate data: ``propagate`` and ``gps_update`` keep no
shared mutable state, and the module's arrays are read-only constants.

The IMU step is the hot loop.  ``propagate`` reads its inputs once into
Python floats and runs the nominal update, as ``gps_update`` its attitude
correction, through ``core``'s quaternion kernels; NumPy only forms
``F P F^T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geo
from .core import (
    GRAVITY,
    DataError,
    GpsFix,
    ImuLog,
    NumericalError,
    hamilton,
    level_heading_quat,
    rotation_entries,
    rotvec_quat,
    unit,
)

MAX_IMU_DT = 0.1  # s, sanity bound on a single strapdown step
INNOVATION_GATE = 5.0  # per-axis gate, in innovation standard deviations
INIT_VEL_STD = 1.0  # m/s, initial velocity uncertainty
INIT_ATT_STD = 0.1  # rad, initial attitude uncertainty
_GX, _GY, _GZ = GRAVITY.tolist()

# Read-only constants of propagate: the 9x9 identity F starts from, the
# flat indices of F's dt and [R accel]x entries, and of Qd's diagonal.
_EYE9 = np.eye(9)
_EYE9.flags.writeable = False
_F_INDEX = np.array([3, 13, 23, 7, 8, 15, 17, 24, 25, 34, 35, 42, 44, 51, 52])
_F_INDEX.flags.writeable = False
_QD_INDEX = np.array([30, 40, 50, 60, 70, 80])
_QD_INDEX.flags.writeable = False


class CalibrationDivergedError(NumericalError):
    def __init__(self, accel_residual, gyro_residual):
        self.accel_residual = np.asarray(accel_residual)
        self.gyro_residual = np.asarray(gyro_residual)
        super().__init__(
            "calibration did not converge: accel residual "
            f"{self.accel_residual}, gyro residual {self.gyro_residual}"
        )


class ImuSampleError(DataError):
    """A fault of the IMU sample at ``index`` in the log: its step failed."""

    def __init__(self, index: int, t: float, why):
        self.index, self.why = index, why
        super().__init__(f"IMU sample {index} (t={t}): {why}")


@dataclass(frozen=True)
class NominalState:
    p: np.ndarray  # (3,) ENU position, m
    v: np.ndarray  # (3,) ENU velocity, m/s
    q: np.ndarray  # (4,) body->ENU quaternion, scalar-first
    t: float


@dataclass(frozen=True)
class CalibrationOffsets:
    accel_offset: np.ndarray  # (3,) m/s^2
    gyro_offset: np.ndarray  # (3,) rad/s

    @staticmethod
    def zero() -> "CalibrationOffsets":
        return CalibrationOffsets(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class LocalizerConfig:
    """Filter noise parameters.

    ``accel_noise``/``gyro_noise`` are per-sample standard deviations; the
    discrete process noise injected on (dv, dtheta) each step is
    ``sigma^2 * dt^2``.  The stream timestamps govern integration.
    """

    accel_noise: float = 0.25  # m/s^2 per sample
    gyro_noise: float = 0.025  # rad/s per sample
    gps_pos_std: float = 3.0  # m


def calibrate(
    sample_source,
    batch: int = 1000,
    tol: float = 1e-3,
    max_iter: int = 20,
) -> CalibrationOffsets:
    """Estimate constant IMU offsets from a stationary, level device.

    ``sample_source(n)`` must return ``(accel, gyro)`` arrays of shape
    (n, 3) of raw readings; the device is assumed stationary and level
    (caller's responsibility).  Offsets start at zero; each iteration draws
    a fresh batch, accumulates it into the running mean of all readings so
    far, and adjusts the offsets by the residual against the stationary
    targets (gyro zero; accel equal to the gravity reaction, which the
    z-down mount reads as ``(0, 0, -g)``: the components of GRAVITY).
    Terminates once every axis' residual is within ``tol``; the
    accumulation shrinks the measurement noise floor below any fixed
    tolerance, which a fixed-size batch mean cannot do.

    Raises CalibrationDivergedError with the final residuals after
    ``max_iter`` iterations.
    """
    accel_target = GRAVITY
    accel_off = np.zeros(3)
    gyro_off = np.zeros(3)
    accel_sum = np.zeros(3)
    gyro_sum = np.zeros(3)
    n = 0
    resid_a = np.full(3, np.inf)
    resid_g = np.full(3, np.inf)
    for _ in range(max_iter):
        accel, gyro = sample_source(batch)
        accel = np.asarray(accel, dtype=float)
        gyro = np.asarray(gyro, dtype=float)
        if accel.shape != (batch, 3) or gyro.shape != (batch, 3):
            raise DataError(
                f"sample source returned shapes {accel.shape}/{gyro.shape}, "
                f"expected ({batch}, 3)"
            )
        accel_sum += accel.sum(axis=0)
        gyro_sum += gyro.sum(axis=0)
        n += batch
        resid_a = (accel_sum / n - accel_off) - accel_target
        resid_g = gyro_sum / n - gyro_off
        if np.all(np.abs(resid_a) <= tol) and np.all(np.abs(resid_g) <= tol):
            return CalibrationOffsets(accel_off, gyro_off)
        accel_off = accel_off + resid_a
        gyro_off = gyro_off + resid_g
    raise CalibrationDivergedError(resid_a, resid_g)


def initial_covariance(cfg: LocalizerConfig) -> np.ndarray:
    return np.diag(
        [cfg.gps_pos_std**2] * 3
        + [INIT_VEL_STD**2] * 3
        + [INIT_ATT_STD**2] * 3
    )


def propagate(
    s: NominalState,
    P: np.ndarray,
    accel: np.ndarray,
    gyro: np.ndarray,
    dt: float,
    cfg: LocalizerConfig,
) -> tuple[NominalState, np.ndarray]:
    """One strapdown step plus covariance propagation.

    ``accel`` and ``gyro`` are one offset-corrected body-frame reading,
    (3,) each.  Nominal: a_nav = R(q) accel + g; p, v by
    constant-acceleration kinematics; q right-multiplied by the gyro
    increment.  Covariance:
    P <- F P F^T + L Qd L^T with the error-state Jacobian (including the
    -0.5 [R accel]x dt^2 position/attitude block, the exact derivative of
    this integrator) and Qd = diag(sa^2 dt^2, sg^2 dt^2) on (dv, dtheta).

    The nominal step runs on floats through ``core``'s quaternion kernels;
    only ``F P F^T`` is an array product.  Nothing is kept between calls.
    """
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
    nx, ny, nz = cx + _GX, cy + _GY, cz + _GZ
    p = np.array(
        [
            px + vx * dt + 0.5 * nx * dt * dt,
            py + vy * dt + 0.5 * ny * dt * dt,
            pz + vz * dt + 0.5 * nz * dt * dt,
        ]
    )
    v = np.array([vx + nx * dt, vy + ny * dt, vz + nz * dt])
    q = np.array(unit(hamilton(q0, rotvec_quat((wx * dt, wy * dt, wz * dt)))))

    # F = I + dt on (dp, dv), -0.5 [R accel]x dt^2 on (dp, dtheta),
    # -[R accel]x dt on (dv, dtheta)
    hx, hy, hz = 0.5 * cx * dt * dt, 0.5 * cy * dt * dt, 0.5 * cz * dt * dt
    ex, ey, ez = cx * dt, cy * dt, cz * dt
    f = _EYE9.copy()
    f.put(
        _F_INDEX,
        (dt, dt, dt, hz, -hy, -hz, hx, hy, -hx, ez, -ey, -ez, ex, ey, -ex),
    )
    p_cov = f @ P @ f.T
    qa = (cfg.accel_noise * dt) ** 2
    qg = (cfg.gyro_noise * dt) ** 2
    p_cov.put(_QD_INDEX, p_cov.take(_QD_INDEX) + (qa, qa, qa, qg, qg, qg))
    return NominalState(p=p, v=v, q=q, t=s.t + dt), 0.5 * (p_cov + p_cov.T)


def gps_update(
    s: NominalState, P: np.ndarray, fix_enu, cfg: LocalizerConfig
) -> tuple[NominalState, np.ndarray, bool]:
    """Correct the state with an ENU position fix.

    Returns ``(state, P, accepted)``; a fix whose per-axis innovation is
    not within ``INNOVATION_GATE * sqrt(diag(H P H^T + R))`` (a non-finite
    one included) is rejected and the state passes through unchanged.  H
    selects the position block, so ``H P H^T`` is ``P[:3, :3]``,
    ``P H^T`` is ``P[:, :3]`` and ``H P`` is ``P[:3, :]``.
    """
    z = np.asarray(fix_enu, dtype=float)
    innovation = z - s.p
    s_cov = P[0:3, 0:3].copy()
    s_cov.flat[::4] += cfg.gps_pos_std**2
    bound = INNOVATION_GATE * np.sqrt(np.diag(s_cov))
    if not np.all(np.abs(innovation) <= bound):
        return s, P, False

    k = np.linalg.solve(s_cov.T, P[:, 0:3].T).T
    dx = k @ innovation
    p = s.p + dx[0:3]
    v = s.v + dx[3:6]
    q = np.array(unit(hamilton(rotvec_quat(dx[6:9].tolist()), s.q.tolist())))
    p_cov = P - k @ P[0:3, :]
    return NominalState(p=p, v=v, q=q, t=s.t), 0.5 * (p_cov + p_cov.T), True


@dataclass(frozen=True)
class LocalizerRun:
    """Per-IMU-step estimates plus bookkeeping from one localizer run."""

    t: np.ndarray  # (n,)
    p: np.ndarray  # (n, 3) ENU m, frame anchored at `ref`
    v: np.ndarray  # (n, 3) ENU m/s
    q: np.ndarray  # (n, 4)
    ref: GpsFix
    accepted_fixes: int
    rejected_fixes: int

    def positions_in(self, frame: GpsFix) -> np.ndarray:
        """Positions re-anchored into another fix's ENU frame (exact)."""
        return geo.enu_to_enu(self.p, self.ref, frame)

    def trajectory(self, label: str, frame: GpsFix | None = None):
        """As a metrics Trajectory, optionally re-anchored to ``frame``.

        Re-anchor before evaluating against a truth trajectory expressed
        in a different frame; the run's own frame sits at the (noisy)
        first fix, and the frame offset would otherwise count as error.
        """
        from .metrics import Trajectory

        xyz = self.p if frame is None else self.positions_in(frame)
        return Trajectory(t=self.t, xyz=xyz, label=label)


def run_localizer(
    imu: ImuLog,
    gps_stream,
    cfg: LocalizerConfig,
    offsets: CalibrationOffsets | None = None,
    initial: NominalState | None = None,
) -> LocalizerRun:
    """Fuse a full IMU stream with GPS fixes into a trajectory.

    The first GPS fix anchors the ENU frame and the initial position.
    Unless ``initial`` is given, the walker starts at rest, level, facing
    east.  IMU samples earlier than the anchor are dropped; every fix is
    applied at the first IMU step at or after its timestamp.  Output is
    one record per processed IMU sample; identical inputs produce
    identical output.
    """
    if offsets is None:
        offsets = CalibrationOffsets.zero()
    fixes = list(gps_stream)
    if not len(imu):
        raise DataError("empty IMU stream")
    if not fixes:
        raise DataError("empty GPS stream: no fix to anchor the ENU frame")
    for i in range(1, len(fixes)):
        if fixes[i].t < fixes[i - 1].t:
            raise DataError(f"GPS stream unsorted at index {i} (t={fixes[i].t})")

    ref = fixes[0]
    if initial is None:
        state = NominalState(
            p=geo.wgs84_to_enu(ref, ref),
            v=np.zeros(3),
            q=level_heading_quat(0.0),
            t=ref.t,
        )
    else:
        state = replace(initial, t=ref.t)
    p_cov = initial_covariance(cfg)

    accel = imu.accel - offsets.accel_offset
    gyro = imu.gyro - offsets.gyro_offset
    ts, ps, vs, qs = [], [], [], []
    accepted = rejected = 0
    fix_idx = 1  # the anchor fix is consumed by initialization
    t_prev = ref.t
    first = True
    for i, t in enumerate(imu.t.tolist()):
        if t < ref.t:
            continue
        dt = t - t_prev
        if dt < 0.0:
            raise ImuSampleError(i, t, "timestamps unsorted")
        if dt > 0.0:
            try:
                state, p_cov = propagate(state, p_cov, accel[i], gyro[i], dt, cfg)
            except DataError as exc:
                raise ImuSampleError(i, t, exc) from None
            except ValueError as exc:  # math.sin of a rotation angle that overflowed
                raise ImuSampleError(i, t, f"gyro reading too large ({exc})") from None
        elif not first:
            raise ImuSampleError(i, t, "duplicate timestamp")
        t_prev = t
        first = False

        while fix_idx < len(fixes) and fixes[fix_idx].t <= t:
            z = geo.wgs84_to_enu(fixes[fix_idx], ref)
            state, p_cov, ok = gps_update(state, p_cov, z, cfg)
            accepted += ok
            rejected += not ok
            fix_idx += 1

        ts.append(t)
        ps.append(state.p)
        vs.append(state.v)
        qs.append(state.q)

    if not ts:
        raise DataError("no IMU samples at or after the anchor fix")
    return LocalizerRun(
        t=np.array(ts),
        p=np.array(ps),
        v=np.array(vs),
        q=np.array(qs),
        ref=ref,
        accepted_fixes=accepted,
        rejected_fixes=rejected,
    )
