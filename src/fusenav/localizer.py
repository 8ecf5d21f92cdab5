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
fix (a longer gap in calls of at most 1,024 steps).  Each step's gyro dt,
noise squares and ``rotvec_quat`` increment are formed once per run, in
the column pass that checks dt.  The nominal states are columns: the
attitude a float loop of ``core``'s product and normalization over the
increments, then one (m + 1, 4) array, whose stacked ``rotation_entries``
give R(q) a in three row products.  v and p are running sums in the order
of one step at a time.  P is propagated once per segment, through the
segment's closed-form transition and noise sum.

Every run starts at the anchor fix, at rest, level and facing east.
Faults are found in ``run_localizer`` alone, each a ``core.StreamError``
naming its stream and sample; ``propagate`` only steps.  One column pass
over the kept samples finds every IMU step fault before the first step:
the first sample whose time step lies outside (0, MAX_IMU_DT], before
which propagation stops.  The readings need no check here: every
``core.ImuLog`` holds them within full scale, a NaN or inf one refused,
and read-only.

No state can overflow after that pass.  Offsets lie within full scale
too (``cli.read_offsets_cfg`` bounds them, and ``run`` calibrates on its
own simulated stream), so each step's acceleration is at most a few
hundred m/s^2, over a dt of at most 0.1 s, and each rotation angle is
finite.  ``gps_update`` rejects a correction whose square is not finite,
so each accepted one is below 1.4e154 per component.  No stream that
fits in memory can then take p or v past a float's range.  Nor P: every
LocalizerConfig holds its noise settings within NOISE_BOUNDS, so the
initial P is at most WGS84_A^2 ~ 4.1e13, each step adds at most
(MAX_ACCEL dt)^2 and (MAX_GYRO dt)^2 of noise, and the transition's
entries grow as the acceleration times the squared time since the last
fix.  So P grows at most as the fifth power of that time.  Full-scale
readings at all three bounds, with dt just under 0.1 s and no fix, take
max|P| to 3.4e20 after 1e4 steps, 3.0e25 after 1e5 and 3.0e30 after 1e6:
reaching 1e308 would take some 1e55 times longer.  A fix only shrinks P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geo
from .core import (
    GRAVITY,
    MAX_ACCEL,
    MAX_GYRO,
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
INNOVATION_GATE = 5.0  # per-axis gate, in innovation standard deviations
INIT_VEL_STD = 1.0  # m/s, initial velocity uncertainty
INIT_ATT_STD = 0.1  # rad, initial attitude uncertainty
_MAX_SEGMENT = 1024  # steps per propagate call and per stack of increments: bounds temporaries
# an IMU sigma beyond the sensor's full scale, or a GPS one wider than the Earth, carries nothing
NOISE_BOUNDS = {"accel_noise": MAX_ACCEL, "gyro_noise": MAX_GYRO, "gps_pos_std": geo.WGS84_A}

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
    ``sigma^2 * dt^2``.  The stream timestamps govern integration.  Each
    setting lies in [0, NOISE_BOUNDS[name]], and ``gps_pos_std`` squares to
    more than 0; any other value raises DataError naming the setting.
    """

    accel_noise: float = 0.25  # m/s^2 per sample
    gyro_noise: float = 0.025  # rad/s per sample
    gps_pos_std: float = 3.0  # m

    def __post_init__(self):
        for name, bound in NOISE_BOUNDS.items():
            x = getattr(self, name)
            if not 0.0 <= x <= bound:  # a NaN is not
                raise DataError(f"{name} = {x!r} is not in [0, {bound}]")
        if not self.gps_pos_std * self.gps_pos_std > 0.0:  # all of S for a fix before the first step
            raise DataError(f"gps_pos_std = {self.gps_pos_std!r} squares to 0")


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
        accel_sum += accel.sum(axis=0)
        gyro_sum += gyro.sum(axis=0)
        n += len(accel)
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
    dq: np.ndarray,
    dt: np.ndarray,
    qa: np.ndarray,
    qg: np.ndarray,
) -> tuple[NominalState, np.ndarray]:
    """Strapdown steps over one segment, plus the covariance at its end.

    ``accel`` holds (m, 3) offset-corrected body-frame readings, ``dt`` their
    (m,) steps; the caller forms their (m, 4) attitude increments ``dq``
    (``rotvec_quat`` of gyro dt) and noise squares ``qa``, ``qg`` (sigma dt)^2.
    Each step: a_nav = R(q) accel + g; p, v by constant-acceleration
    kinematics; q right-multiplied by its increment.  Returns the m states
    after each step, stacked in one NominalState (p (m, 3), v (m, 3), q (m, 4)),
    and P after the last step.

    Nothing inside a segment reads P, so it is propagated once, as
    P <- Phi P Phi^T + sum_k Phi_k Qd_k Phi_k^T, with Phi_k = F_m ... F_k+1
    the step Jacobians after step k and Phi all m of them.  Such products
    keep the form [[I, tau I, -[sum_j (h_j + tau_j e_j)]x],
    [0, I, -[sum_j e_j]x], [0, 0, I]] (j over the steps spanned, tau their
    time, tau_j the time left after step j), with e = R(q) accel dt and
    h = e dt / 2, the exact derivative of this integrator.  Qd_k is
    diag(qa_k I, qg_k I) on (dv, dtheta), so the noise sum is a
    few weighted outer products, since [a]x [b]x^T = (a.b) I - b a^T: on
    (dp, dv), three scalar sums times I less one gather of a 6x6 product.

    The caller ensures the preconditions: every dt in (0, MAX_IMU_DT],
    readings and offsets within full scale, noise squares of settings
    within NOISE_BOUNDS, and a finite state with a unit q.  The states and
    P it returns are then finite (see the module docstring).
    """
    q = s.q.tolist()
    flat = list(q)
    for d in dq.tolist():
        q = unit(hamilton(q, d))
        flat += q
    qs = np.fromiter(flat, float, len(flat)).reshape(-1, 4)

    # the nominal step's operations, in its order, as columns
    r = np.array(rotation_entries(qs[:-1].T))
    ax, ay, az = accel.T
    c = (r[0::3] * ax + r[1::3] * ay + r[2::3] * az).T
    d = dt[:, None]
    n = c + GRAVITY
    v = np.concatenate([s.v[None], n * d]).cumsum(axis=0)
    # p_k = (p_{k-1} + v_{k-1} dt) + 0.5 n dt dt, as one running sum
    x = np.empty((2 * len(dt) + 1, 3))
    x[0] = s.p
    x[1::2] = v[:-1] * d
    x[2::2] = 0.5 * n * d * d
    p = x.cumsum(axis=0)[2::2]
    v = v[1:]

    e = c * d
    tail = dt[::-1].cumsum()[::-1]  # from the start of each step to the end
    tau = np.concatenate([tail[1:], [0.0]])
    ge = np.concatenate([0.5 * e * d + tau[:, None] * e, e], axis=1)  # g and e
    # sums of g and e over the steps after each step
    after = np.zeros((len(dt), 6))
    after[:-1] = ge[:0:-1].cumsum(axis=0)[::-1]
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
    one included), or whose correction ``dx`` has a squared norm that is
    not finite, is rejected and the state passes through unchanged, so an
    accepted correction is below 1.4e154 per component and the state it
    returns is finite.  H selects the position block, so ``H P H^T`` is
    ``P[:3, :3]``, ``P H^T`` is ``P[:, :3]`` and ``H P`` is ``P[:3, :]``.
    """
    innovation = np.asarray(fix_enu, dtype=float) - s.p
    s_cov = P[0:3, 0:3].copy()
    s_cov.flat[::4] += cfg.gps_pos_std**2
    for e, var in zip(innovation.tolist(), s_cov.diagonal().tolist()):
        # false for a nan, negative or infinite variance, and a non-finite innovation
        if not (0.0 <= var < math.inf and abs(e) <= INNOVATION_GATE * math.sqrt(var)):
            return s, P, False

    k = np.linalg.solve(s_cov.T, P[:, 0:3].T).T
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or inf square is rejected
        dx = k @ innovation
        if not math.isfinite(dx @ dx):
            return s, P, False
    p = s.p + dx[0:3]
    v = s.v + dx[3:6]
    q = np.array(unit(hamilton(rotvec_quat(dx[6:9].tolist()), s.q.tolist())))
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
    IMU sample; identical inputs produce identical output.  ``offsets``
    lie within full scale, as ``cli.read_offsets_cfg`` reads them, and
    so do the readings of every ImuLog.  A stream fault raises
    StreamError: an empty stream, or no IMU sample at or after the
    anchor, without an index; a fix earlier than the one before it at its
    index; the first IMU sample whose time step lies outside
    (0, MAX_IMU_DT] at its index, the one fault kind of its column pass.
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
    p_cov = initial_covariance(cfg)

    # samples before the anchor are dropped unchecked
    keep = np.flatnonzero(~(imu.t < ref.t))
    if not len(keep):
        raise StreamError("imu", "no IMU samples at or after the anchor fix")
    n = len(keep)
    t = imu.t[keep]
    # the raw readings, under the names of the step inputs that replace them: no
    # (n, 3) array more stays alive while propagating (take: 5x faster)
    accel, theta = imu.accel.take(keep, axis=0), imu.gyro.take(keep, axis=0)
    dt = np.diff(t, prepend=ref.t)
    lead = int(dt[0] == 0.0)  # a first sample on the anchor takes no step

    # each sample's step inputs and time step fault; rows from the first fault on can overflow
    accel = accel - offsets.accel_offset
    with np.errstate(over="ignore", invalid="ignore"):
        theta = (theta - offsets.gyro_offset) * dt[:, None]
        qa, qg = (cfg.accel_noise * dt) ** 2, (cfg.gyro_noise * dt) ** 2
    fault = ~((dt > 0.0) & (dt <= MAX_IMU_DT))
    fault[:lead] = False
    bad = int(fault.argmax()) if fault.any() else n
    # each fix is applied, in ENU, after the first sample at or after its time
    at = np.searchsorted(t[:bad], times[1:]).tolist()
    z = geo.wgs84_to_enu(fixes[: 1 + int(np.searchsorted(at, bad))], ref)

    # row i holds the state that feeds sample i, row n the final state
    ps, vs, qs = np.empty((n + 1, 3)), np.empty((n + 1, 3)), np.empty((n + 1, 4))
    ps[lead], vs[lead], qs[lead] = state.p, state.v, state.q
    accepted = rejected = 0
    fix_idx = 1  # the anchor fix is consumed by initialization
    lo = b0 = lead
    dq = theta[:0]  # increments of the steps from b0 on, _MAX_SEGMENT at a time
    for hi in sorted({i + 1 for i in at if i < bad} | {bad}):
        while lo < hi:  # propagation stops before the first faulty sample
            mid = min(hi, lo + _MAX_SEGMENT)
            if mid > b0 + len(dq):  # rows from bad on are unchecked
                b0, dq = lo, rotvec_quat(theta[lo : min(bad, lo + _MAX_SEGMENT)])
            seg, p_cov = propagate(
                state, p_cov, accel[lo:mid], dq[lo - b0 : mid - b0], dt[lo:mid], qa[lo:mid], qg[lo:mid]
            )
            ps[lo + 1 : mid + 1], vs[lo + 1 : mid + 1], qs[lo + 1 : mid + 1] = seg.p, seg.v, seg.q
            state = NominalState(p=seg.p[-1], v=seg.v[-1], q=seg.q[-1])
            lo = mid
        while fix_idx < len(fixes) and at[fix_idx - 1] == hi - 1:
            state, p_cov, ok = gps_update(state, p_cov, z[fix_idx], cfg)
            accepted += ok
            rejected += not ok
            fix_idx += 1
        ps[hi], vs[hi], qs[hi] = state.p, state.v, state.q

    if bad < n:
        d = dt[bad].item()
        gap = f"dt={d} outside (0, {MAX_IMU_DT}] s"
        why = "timestamps unsorted" if d < 0.0 else "duplicate timestamp" if d == 0.0 else gap
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
