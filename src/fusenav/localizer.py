"""Error-state EKF localization: IMU strapdown propagation + GPS corrections.

The nominal state (position, velocity, attitude quaternion) is integrated
directly from IMU samples; the filter estimates only the 9-dimensional
error state ``dx = (dp, dv, dtheta)`` with ``dtheta`` a navigation-frame
rotation vector (error injected as ``dq (x) q``).  GPS position fixes,
converted to local ENU, correct the error state at their own (much slower)
rate.  IMU biases are removed by the one-shot stationary calibration
routine below, not estimated online.

Innovation gating, decided on floats, rejects fixes whose residual exceeds
``INNOVATION_GATE * sqrt(diag(H P H^T + R))`` per axis; urban GPS
produces exactly the outliers an ungated filter would be destabilized by.

The localizer is a single-threaded deterministic state machine over one
merged, time-ordered measurement stream; out-of-order timestamps within a
stream are a contract violation and raise.  Independent instances can run
concurrently on separate data: ``propagate`` and ``gps_update`` keep no
shared mutable state, and the module's arrays are read-only constants.

Between two fixes nothing reads P, so ``propagate`` steps one such
segment of IMU samples at a time and ``run_localizer`` calls it once per
fix (a longer gap in calls of at most 1,024 steps).  The nominal states
are columns: the gyro increments one stack, and the attitude a float loop
of ``core``'s product and normalization over them, filling one flat list,
then one (m + 1, 4) array, whose stacked ``rotation_entries`` give R(q) a
in three row products.  v and p are running sums that add in the order of
one step at a time.  P is propagated once per segment, through the
segment's closed-form transition and noise sum.

Every run starts at the anchor fix, at rest, level and facing east.
Faults are found in ``run_localizer`` alone, each a ``core.StreamError``
naming its stream and sample; ``propagate`` only steps.
One column pass over the kept samples finds the first sample whose step
cannot run, and propagation stops before it.  The states ``propagate``
returns are checked as they come, each at the sample it feeds (the final
state at the last sample), after the fixes that precede that sample.  At
one sample the order is: a time step outside (0, MAX_IMU_DT], a
non-finite reading or state, a gyro rotation angle whose square
overflows, then process noise whose square overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geo
from .core import (
    GRAVITY,
    DataError,
    GpsFix,
    ImuLog,
    NumericalError,
    StreamError,
    hamilton,
    level_heading_quat,
    rotation_entries,
    rotvec_quat,
    unit,
)

MAX_IMU_DT = 0.1  # s, sanity bound on a single strapdown step
MAX_ACCEL = 16 * 9.80665  # m/s^2: 16 g, the InvenSense MPU-6050 family's widest full scale
MAX_GYRO = math.radians(2000.0)  # rad/s: 2000 deg/s, that family's widest full scale
INNOVATION_GATE = 5.0  # per-axis gate, in innovation standard deviations
INIT_VEL_STD = 1.0  # m/s, initial velocity uncertainty
INIT_ATT_STD = 0.1  # rad, initial attitude uncertainty
_MAX_SEGMENT = 1024  # steps per propagate call, which bounds its temporaries

# Read-only constants of propagate: Phi's identity, the flat indices of its
# tau and -[.]x entries; which of the noise's five values (three block sums,
# dtheta's sum, 0.0) each entry takes and the identity pattern it scales, the
# 6x6 outer product's [[aa, ab^T], [ab, bb]], and -[.]x's places, transposed too.
_EYE9 = np.eye(9)
_F_INDEX = np.array([3, 13, 23, 7, 8, 15, 17, 24, 25, 34, 35, 42, 44, 51, 52])
_SUM_INDEX = np.kron([[0, 1, 4], [1, 2, 4], [4, 4, 3]], np.ones((3, 3), dtype=int))
_SUM_EYE = np.kron([[1, 1, 0], [1, 1, 0], [0, 0, 1]], np.eye(3))
_I36 = np.arange(36).reshape(6, 6)
_OUTER_INDEX = np.block([[_I36[:3, :3], _I36[:3, 3:].T], [_I36[:3, 3:], _I36[3:, 3:]]])
_CROSS_INDEX = np.concatenate([_F_INDEX[3:], _F_INDEX[3:] % 9 * 9 + _F_INDEX[3:] // 9])
for _a in (_EYE9, _F_INDEX, _SUM_INDEX, _SUM_EYE, _I36, _OUTER_INDEX, _CROSS_INDEX):
    _a.flags.writeable = False


def _blocks(tau, ab) -> tuple:
    """Values at _F_INDEX: tau on (dp, dv), -[a]x on (dp, dtheta) and
    -[b]x on (dv, dtheta), for ab = (a, b) side by side."""
    ax, ay, az, bx, by, bz = ab.tolist()
    return (tau, tau, tau, az, -ay, -az, ax, ay, -ax, bz, -by, -bz, bx, by, -bx)


@dataclass(frozen=True)
class NominalState:
    p: np.ndarray  # (3,) ENU position, m
    v: np.ndarray  # (3,) ENU velocity, m/s
    q: np.ndarray  # (4,) body->ENU quaternion, scalar-first


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

    Raises NumericalError naming the final residuals after ``max_iter``
    iterations.
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
    raise NumericalError(
        f"calibration did not converge: accel residual {resid_a}, gyro residual {resid_g}"
    )


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
    dt: np.ndarray,
    cfg: LocalizerConfig,
) -> tuple[NominalState, np.ndarray]:
    """Strapdown steps over one segment, plus the covariance at its end.

    ``accel`` and ``gyro`` are (m, 3) offset-corrected body-frame readings
    and ``dt`` their (m,) steps.  Each step: a_nav = R(q) accel + g; p, v by
    constant-acceleration kinematics; q right-multiplied by the gyro
    increment (all m formed as one stack).  Returns the m states after
    each step, stacked in one NominalState (p (m, 3), v (m, 3), q (m, 4)),
    and P after the last step.

    Nothing inside a segment reads P, so it is propagated once, as
    P <- Phi P Phi^T + sum_k Phi_k Qd_k Phi_k^T, with Phi_k = F_m ... F_k+1
    the step Jacobians after step k and Phi all m of them.  Such products
    keep the form [[I, tau I, -[sum_j (h_j + tau_j e_j)]x],
    [0, I, -[sum_j e_j]x], [0, 0, I]] (j over the steps spanned, tau their
    time, tau_j the time left after step j), with e = R(q) accel dt and
    h = e dt / 2, the exact derivative of this integrator.  Qd_k is
    diag(sa^2 dt^2 I, sg^2 dt^2 I) on (dv, dtheta), so the noise sum is a
    few weighted outer products, since [a]x [b]x^T = (a.b) I - b a^T: on
    (dp, dv), three scalar sums times I less one gather of a 6x6 product.

    The caller checks the preconditions: every dt in (0, MAX_IMU_DT],
    finite readings, a finite state with a unit q, gyro rotation angles
    whose squares are finite and process noise whose squares are finite.
    The states and P it returns may still overflow, and are the caller's
    to check.
    """
    # the caller checks the returned states and P for overflow and nan
    with np.errstate(over="ignore", invalid="ignore"):
        theta = gyro * dt[:, None]
        qa = (cfg.accel_noise * dt) ** 2
        qg = (cfg.gyro_noise * dt) ** 2
        q = s.q.tolist()
        flat = list(q)
        for d in rotvec_quat(theta).tolist():
            q = unit(hamilton(q, d))
            flat += q
        qs = np.array(flat, dtype=float).reshape(-1, 4)

        # the nominal step's operations, in its order, as columns
        r = np.array(rotation_entries(qs[:-1].T))
        ax, ay, az = accel.T
        c = (r[0::3] * ax + r[1::3] * ay + r[2::3] * az).T
        d = dt[:, None]
        n = c + GRAVITY
        v = np.cumsum(np.concatenate([s.v[None], n * d]), axis=0)
        # p_k = (p_{k-1} + v_{k-1} dt) + 0.5 n dt dt, as one running sum
        x = np.empty((2 * len(dt) + 1, 3))
        x[0] = s.p
        x[1::2] = v[:-1] * d
        x[2::2] = 0.5 * n * d * d
        p = np.cumsum(x, axis=0)[2::2]
        v = v[1:]

        e = c * d
        tail = np.cumsum(dt[::-1])[::-1]  # from the start of each step to the end
        tau = np.concatenate([tail[1:], [0.0]])
        ge = np.concatenate([0.5 * e * d + tau[:, None] * e, e], axis=1)  # g and e
        # sums of g and e over the steps after each step
        after = np.zeros((len(dt), 6))
        after[:-1] = np.cumsum(ge[:0:-1], axis=0)[::-1]
        phi = _EYE9.copy()
        phi.put(_F_INDEX, _blocks(tail[0], after[0] + ge[0]))

        w = qg[:, None] * after
        outer = after.T @ w  # sum qg [a b] [a b]^T
        a0, a1, a2, b0, b1, b2 = outer.diagonal().tolist()
        c0, c1, c2 = outer.diagonal(3).tolist()
        sums = np.array([  # with the block traces added as np.trace adds them
            qa @ (tau * tau) + (0.0 + a0 + a1 + a2), qa @ tau + (0.0 + c0 + c1 + c2),
            qa.sum() + (0.0 + b0 + b1 + b2), qg.sum(), 0.0,
        ])
        noise = sums[_SUM_INDEX] * _SUM_EYE
        noise[0:6, 0:6] -= outer.take(_OUTER_INDEX)
        noise.put(_CROSS_INDEX, 2 * _blocks(0.0, w.sum(axis=0))[3:])
        p_cov = phi @ P @ phi.T + noise
        p_cov = 0.5 * (p_cov + p_cov.T)
    return NominalState(p=p, v=v, q=qs[1:]), p_cov


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
    innovation = np.asarray(fix_enu, dtype=float) - s.p
    s_cov = P[0:3, 0:3].copy()
    s_cov.flat[::4] += cfg.gps_pos_std**2
    for e, var in zip(innovation.tolist(), s_cov.diagonal().tolist()):
        # false for a nan, negative or infinite variance, and a non-finite innovation
        if not (0.0 <= var < math.inf and abs(e) <= INNOVATION_GATE * math.sqrt(var)):
            return s, P, False

    k = np.linalg.solve(s_cov.T, P[:, 0:3].T).T
    dx = k @ innovation
    p = s.p + dx[0:3]
    v = s.v + dx[3:6]
    q = np.array(unit(hamilton(rotvec_quat(dx[6:9]), s.q.tolist())))
    p_cov = P - k @ P[0:3, :]
    return NominalState(p=p, v=v, q=q), 0.5 * (p_cov + p_cov.T), True


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

    def trajectory(self, label: str, frame: GpsFix):
        """As a metrics Trajectory in the ENU frame at ``frame``.

        The run's own frame sits at the (noisy) first fix; against a truth
        trajectory in another frame, the frame offset would count as error.
        """
        from .metrics import Trajectory

        return Trajectory(t=self.t, xyz=geo.enu_to_enu(self.p, self.ref, frame), label=label)


def _noise_error(cfg: LocalizerConfig, what: str) -> NumericalError:
    return NumericalError(
        f"{what}; noise settings accel_noise={cfg.accel_noise}, "
        f"gyro_noise={cfg.gyro_noise}, gps_pos_std={cfg.gps_pos_std}"
    )


def run_localizer(
    imu: ImuLog,
    gps_stream,
    cfg: LocalizerConfig,
    offsets: CalibrationOffsets | None = None,
) -> LocalizerRun:
    """Fuse a full IMU stream with GPS fixes into a trajectory.

    The first GPS fix anchors the ENU frame and the initial position; the
    walker starts there at rest, level, facing east.  IMU samples earlier
    than the anchor are dropped; every fix is applied at the first IMU
    step at or after its timestamp.  Output is one record per processed
    IMU sample; identical inputs produce identical output.  A stream
    fault raises StreamError: an empty stream, or no IMU sample at or
    after the anchor, without an index; a fix earlier than the one before
    it at its index; the first IMU sample whose step cannot run, or that a
    non-finite state feeds, at its index, as a non-finite state after the
    last sample at the last.  Noise settings whose squares overflow, or
    that leave P non-finite at a fix, raise NumericalError.
    """
    if offsets is None:
        offsets = CalibrationOffsets.zero()
    fixes = list(gps_stream)
    if not len(imu):
        raise StreamError("imu", "empty IMU stream")
    if not fixes:
        raise StreamError("gps", "empty GPS stream: no fix to anchor the ENU frame")
    times = [f.t for f in fixes]
    for i in range(1, len(times)):
        if times[i] < times[i - 1]:
            raise StreamError("gps", "timestamps unsorted", i)

    ref = fixes[0]
    state = NominalState(geo.wgs84_to_enu(ref, ref), np.zeros(3), level_heading_quat(0.0))
    try:  # if this square of gps_pos_std fits, so does gps_update's
        p_cov = initial_covariance(cfg)
    except OverflowError:
        raise _noise_error(cfg, "initial covariance overflowed") from None

    # samples before the anchor are dropped unchecked
    keep = np.flatnonzero(~(imu.t < ref.t))
    if not len(keep):
        raise StreamError("imu", "no IMU samples at or after the anchor fix")
    n = len(keep)
    t = imu.t[keep]
    accel = imu.accel.take(keep, axis=0) - offsets.accel_offset  # take: 5x faster
    gyro = imu.gyro.take(keep, axis=0) - offsets.gyro_offset
    dt = np.diff(t, prepend=ref.t)
    lead = int(dt[0] == 0.0)  # a first sample on the anchor takes no step

    # the faults of each sample's step, in the order they are reported in
    with np.errstate(over="ignore", invalid="ignore"):
        tx, ty, tz = (gyro * dt[:, None]).T
        fx, fy, fz = (np.isfinite(accel) & np.isfinite(gyro)).T  # all(axis=1) is 10x slower
        faults = np.array(
            [
                ~((dt > 0.0) & (dt <= MAX_IMU_DT)),
                ~(fx & fy & fz),
                ~np.isfinite(tx * tx + ty * ty + tz * tz),  # math.sin of it would raise
                ~np.isfinite((cfg.accel_noise * dt) ** 2 + (cfg.gyro_noise * dt) ** 2),
            ]
        )
    faults[:, :lead] = False
    bad = int(faults.any(axis=0).argmax()) if faults.any() else n
    # each fix is applied, in ENU, after the first sample at or after its time
    at = np.searchsorted(t[:bad], times[1:]).tolist()
    z = geo.wgs84_to_enu(fixes[: 1 + int(np.searchsorted(at, bad))], ref)

    # row i holds the state that feeds sample i, row n the final state
    ps, vs, qs = np.empty((n + 1, 3)), np.empty((n + 1, 3)), np.empty((n + 1, 4))
    ps[lead], vs[lead], qs[lead] = state.p, state.v, state.q
    accepted = rejected = 0
    fix_idx = 1  # the anchor fix is consumed by initialization
    lo = lead
    for hi in sorted({i + 1 for i in at if i < bad} | {bad}):
        start = lo
        while lo < hi:  # propagation stops before the first faulty sample
            mid = min(hi, lo + _MAX_SEGMENT)
            seg, p_cov = propagate(state, p_cov, accel[lo:mid], gyro[lo:mid], dt[lo:mid], cfg)
            ps[lo + 1 : mid + 1], vs[lo + 1 : mid + 1], qs[lo + 1 : mid + 1] = seg.p, seg.v, seg.q
            state = NominalState(p=seg.p[-1], v=seg.v[-1], q=seg.q[-1])
            lo = mid
        # the states that feed the samples before this span's fixes, as a block
        if not (np.isfinite(ps[start:hi]).all() and np.isfinite(vs[start:hi]).all()):
            finite = np.isfinite(ps[start:hi]).all(axis=1) & np.isfinite(vs[start:hi]).all(axis=1)
            bad = start + int(finite.argmin())
            faults[1, bad] = True
            break
        while fix_idx < len(fixes) and at[fix_idx - 1] == hi - 1:
            if not np.isfinite(p_cov).all():  # the gate would reject every fix
                raise _noise_error(cfg, f"covariance not finite at the fix t={fixes[fix_idx].t}")
            state, p_cov, ok = gps_update(state, p_cov, z[fix_idx], cfg)
            accepted += ok
            rejected += not ok
            fix_idx += 1
        ps[hi], vs[hi], qs[hi] = state.p, state.v, state.q
    else:  # the state that feeds the faulty sample, or the final state
        if not (np.isfinite(ps[bad]).all() and np.isfinite(vs[bad]).all()):
            if bad == n:
                raise StreamError("imu", "non-finite state after the last sample", int(keep[-1]))
            faults[1, bad] = True

    if bad < n:
        kind = int(faults[:, bad].argmax())  # the first fault in the reporting order
        if kind == 3:
            raise _noise_error(cfg, f"process noise overflowed at t={t[bad].item()}")
        d = dt[bad].item()
        why = (
            "timestamps unsorted" if d < 0.0
            else "duplicate timestamp" if d == 0.0
            else f"dt={d} outside (0, {MAX_IMU_DT}] s",
            "non-finite propagation input",
            "gyro reading too large (math domain error)",
        )[kind]
        raise StreamError("imu", why, int(keep[bad]))
    return LocalizerRun(
        t=t,
        p=ps[1:],
        v=vs[1:],
        q=qs[1:],
        ref=ref,
        accepted_fixes=accepted,
        rejected_fixes=rejected,
    )
