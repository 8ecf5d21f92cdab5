"""Deterministic scenario simulator: ground-truth walks plus synthetic
IMU, GPS, and sonar streams.

A scenario is a waypoint route walked at constant speed.  Corners are
rounded with 1 m blends whose curvature ramps as a raised cosine, so the
path is C2 and the sampled positions stay finite-difference-consistent
with the sampled velocities (circular fillets would leave acceleration
jumps at the joints that a 100 Hz central difference can see).  Blend
entry/exit points are solved so the walk rejoins the original segment
lines exactly: closed routes return to their start.  A Scenario checks its
own bounds, from a file or Python alike, and raises a ScenarioError at a key.

Sensor models: IMU = exact body-frame specific force / angular rate plus
constant bias plus white Gaussian noise; GPS = truth sampled at the GPS
rate with horizontal Gaussian noise, converted to WGS84 about the
scenario anchor; sonar = cone ray-cast to cylinder obstacles (and, for
the inclined channels, the ground, lengthened over drop-off zones) plus
range noise; the belt mounting is ``core.SonarGeometry``, which this
module re-exports.  All draws come from per-stream generators seeded
from the scenario seed: identical scenario + seed gives identical
streams.  The "dmp_like" noise preset models the cleaner pre-fused data
path as the same pipeline with 5x lower noise and no residual bias.

The walk and the ray-cast run over whole columns of ticks.  In the
ray-cast NumPy is only a conservative prefilter: every range and every
inside/beam/range decision comes from scalar ``math`` expressions on the
(tick, obstacle) pairs that survive it.  NumPy's ``hypot`` and
``arctan2`` differ from ``math``'s in the last bit on a share of inputs
(0.6 % and 7.7 % of 1M random pairs on an AVX-512 host with NumPy 2.4),
which would move ranges and could flip beam-edge detections.

No gait model, no GPS multipath, no moving obstacles.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from . import geo
from .core import (
    CHANNELS,
    GRAVITY,
    INCLINED_CHANNELS,
    MAX_ACCEL,
    MAX_GYRO,
    MAX_IMU_DT,
    DataError,
    GpsFix,
    ImuLog,
    SonarChannel,
    SonarGeometry,
    SonarLog,
    level_heading_quat,
    quat_to_matrix,
)

CORNER_BLEND_LEN = 1.0  # m of arclength over which heading blends at corners
_BLEND_TABLE_STEPS = 2048
_MAX_CORNER_DEG = 170.0
# Slack of the ray-cast's NumPy prefilter, in radians and relative to the
# distances it compares: far above the last-bit differences between
# NumPy's and ``math``'s hypot and atan2.
_PREFILTER_MARGIN = 1e-9

_MAX_IMU_SAMPLES = 10**7  # a walk's arrays hold one row per IMU sample
# a 1e-9 s margin: gen_walk's grid k / imu_rate rounds a step by < ulp(1e6 s) ~ 1.2e-10 s
_MAX_DT = MAX_IMU_DT * (1.0 - 1e-8)

# Sub-stream tags so the synthesizers draw from independent generators.
_STREAM_IMU = 101
_STREAM_GPS = 102
_STREAM_SONAR = 103
_STREAM_STATIC = 104


class ScenarioError(DataError):
    """The scenario key ``key`` (a Scenario, NoiseConfig or SonarGeometry field) holds ``value`` out of bounds."""

    def __init__(self, key: str, why: str, value):
        self.key, self.value = key, value
        super().__init__(why)


# Geometry the ray-cast divides by and noise it scales: values outside these ranges crash the simulator or
# silently blind or flip a sensor; an IMU sigma past full scale, or a GPS one wider than Earth, carries nothing.
_POSITIVE = (lambda x: x > 0.0, "positive")
_ANGLE_DEG = (lambda x: 0.0 < x < 90.0, "in (0, 90) degrees")
_RANGES = {  # key: (test, the range it names); every test fails on NaN
    "belt_height": _POSITIVE, "inclined_depression_deg": _ANGLE_DEG, "beam_half_angle_deg": _ANGLE_DEG,
    "max_range": _POSITIVE, "speed": _POSITIVE, "imu_rate": _POSITIVE, "gps_rate": _POSITIVE,
    "accel_sigma": (lambda x: 0.0 <= x <= MAX_ACCEL, f"in [0, MAX_ACCEL = {MAX_ACCEL}] m/s^2"),
    "gyro_sigma": (lambda x: 0.0 <= x <= MAX_GYRO, f"in [0, MAX_GYRO = {MAX_GYRO}] rad/s"),
    "gps_sigma": (lambda x: 0.0 <= x <= geo.WGS84_A, f"in [0, WGS84_A = {geo.WGS84_A}] m"),
    "sonar_sigma": (lambda x: x >= 0.0, "non-negative"),
    "seed": (lambda x: x >= 0, "non-negative"),  # the generators take no negative seed
}


def _check(rows) -> None:
    """Raise a ScenarioError at the first of the (key, value, holds, why) ``rows`` that fails."""
    for key, value, holds, why in rows:
        if not holds:
            raise ScenarioError(key, why, value)


def _numbers(x) -> list:
    """The numbers ``x`` holds: itself, or those of its items or dataclass fields."""
    if isinstance(x, (tuple, list)):
        return [v for item in x for v in _numbers(item)]
    return _numbers(tuple(vars(x).values())) if is_dataclass(x) else [x]


def _alone(obj, skip=()):
    """Rows of each field of ``obj`` but ``skip`` alone: each number in it finite (an int is), then its range."""
    for key in (f.name for f in fields(obj) if f.name not in skip):
        x = getattr(obj, key)
        bad = [v for v in _numbers(x) if not (isinstance(v, int) or math.isfinite(v))]
        yield key, x, not bad, f"not a finite number: {bad[0]!r}" if bad else ""
        if key in _RANGES:
            test, what = _RANGES[key]
            yield key, x, test(x), f"{x!r} is not {what}"


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor noise; it raises a ScenarioError unless each number is finite and each sigma in its range."""

    accel_sigma: float = 0.25  # m/s^2 white noise per sample
    gyro_sigma: float = 0.025  # rad/s
    accel_bias: tuple = (0.05, -0.03, 0.02)  # m/s^2 constant
    gyro_bias: tuple = (0.002, -0.001, 0.0015)  # rad/s constant
    gps_sigma: float = 3.0  # m horizontal
    sonar_sigma: float = 0.003  # m

    def __post_init__(self):
        _check(_alone(self))

    def dmp_like(self) -> "NoiseConfig":
        """Pre-fused low-noise preset: 5x lower IMU noise, no residual bias."""
        return replace(
            self,
            accel_sigma=self.accel_sigma / 5.0,
            gyro_sigma=self.gyro_sigma / 5.0,
            accel_bias=(0.0, 0.0, 0.0),
            gyro_bias=(0.0, 0.0, 0.0),
        )


@dataclass(frozen=True)
class Obstacle:
    e: float
    n: float
    radius: float


@dataclass(frozen=True)
class DropoffZone:
    """Floor discontinuity over a path-arclength interval [start_s, end_s]."""

    start_s: float
    end_s: float
    depth: float = 0.5


# Channel boresight azimuths relative to the walking direction (rad, CCW).
def _channel_azimuths(geom: SonarGeometry) -> dict:
    az = math.radians(geom.inclined_azimuth_deg)
    return {
        SonarChannel.FRONT: 0.0,
        SonarChannel.LEFT: math.pi / 2.0,
        SonarChannel.RIGHT: -math.pi / 2.0,
        SonarChannel.INCLINED_LEFT: az,
        SonarChannel.INCLINED_RIGHT: -az,
    }


@dataclass(frozen=True)
class Scenario:
    """A walk to simulate; it raises a ScenarioError at the first bound that fails, in order: each key alone
    (_alone: the geometry's, then this class's), the IMU step, obstacle radii, drop-off and dropout windows'
    start <= end, the anchor's GPS ranges, the route (two waypoints, none repeated, a finite length, corners
    it can blend), the IMU sample cap, a walk of one IMU step or more, gps_rate <= imu_rate, sonar_sigma <=
    max_range, drop-off floors below the belt, last a GPS epoch outside every window."""

    route: tuple  # ((e, n), ...) waypoints, meters in the anchor's ENU frame
    speed: float = 1.52  # m/s
    imu_rate: float = 100.0  # Hz
    gps_rate: float = 1.0  # Hz
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    obstacles: tuple = ()
    dropoffs: tuple = ()
    gps_dropouts: tuple = ()  # ((t0, t1), ...) seconds with no fixes
    seed: int = 0
    anchor: tuple = (37.0, -122.0, 30.0)  # lat deg, lon deg, alt m
    geometry: SonarGeometry = field(default_factory=SonarGeometry)

    def __post_init__(self):
        _check(_bounds(self))

    def anchor_fix(self) -> GpsFix:
        return GpsFix(0.0, *self.anchor)

    @property
    def duration(self) -> float:
        """The walk's duration in s, as gen_walk takes it: the blended path at ``speed``."""
        return self._path_length / self.speed


def _bounds(s: Scenario):
    """``s``'s (key, value, holds, why) rows, as Scenario lists them, each formed once the rows before hold."""
    yield from _alone(s.geometry)
    yield from _alone(s, skip=("noise", "geometry"))  # the geometry's keys above; NoiseConfig checks its own
    step = 1.0 / s.imu_rate
    yield "imu_rate", s.imu_rate, step <= _MAX_DT, f"step {step} s above {_MAX_DT} s"
    for o in map(astuple, s.obstacles):
        yield "obstacles", s.obstacles, o[2] > 0.0, f"item {o} needs a positive radius"
    for key, items in (("dropoffs", map(astuple, s.dropoffs)), ("gps_dropouts", map(tuple, s.gps_dropouts))):
        for item in items:
            yield key, getattr(s, key), item[0] <= item[1], f"item {item} needs start <= end"
    try:
        s.anchor_fix()
    except DataError as exc:  # GpsFix's ranges
        yield "anchor", s.anchor, False, str(exc)
    yield "route", s.route, len(s.route) >= 2, "route needs at least 2 waypoints"
    for a, b in zip(s.route, s.route[1:]):
        apart = math.hypot(b[0] - a[0], b[1] - a[1]) >= 1e-9
        yield "route", s.route, apart, f"degenerate (repeated) waypoint at {a}"
    length = sum(map(math.dist, s.route, s.route[1:]))
    yield "route", s.route, math.isfinite(length), "route length overflows"
    try:  # refuses corners it cannot blend; duration reads the walked length
        object.__setattr__(s, "_path_length", _build_path(s.route)[1])
    except DataError as exc:
        yield "route", s.route, False, str(exc)
    max_rate, duration = _MAX_IMU_SAMPLES * s.speed / length, length / s.speed  # duration * imu_rate rows
    sigma, top, floor = s.noise.sonar_sigma, s.geometry.max_range, -s.geometry.belt_height
    yield from [
        ("imu_rate", s.imu_rate, s.imu_rate <= max_rate,
         f"above {max_rate}, the rate of {_MAX_IMU_SAMPLES} IMU samples over the route"),
        # a walk and its estimate need two samples, one step apart
        ("speed", s.speed, duration >= step,
         f"the {length} m route takes {duration} s, less than one IMU step of {step} s"),
        # each fix is applied at an IMU step
        ("gps_rate", s.gps_rate, s.gps_rate <= s.imu_rate, f"above imu_rate = {s.imu_rate}"),
        # a ranging sigma as wide as the range carries no range; the bound keeps each reading finite
        ("sonar_sigma", sigma, sigma <= top, f"above max_range = {top}"),
        # a floor raised to the belt or above would give non-positive slant ranges
        *(("dropoffs", s.dropoffs, z.depth > floor, f"item {astuple(z)}: depth <= -belt_height = {floor}")
          for z in s.dropoffs),
    ]
    # the first fix anchors the localizer's frame; formed last, once the rows
    # above have bounded the GPS epochs' number by the IMU samples'
    walk, rate = s.duration, s.gps_rate
    yield ("gps_dropouts", s.gps_dropouts, gps_epochs(walk, rate, s.gps_dropouts)[1].any(),
           f"no GPS epoch of the {walk} s walk at gps_rate = {rate} lies outside every window")


@dataclass(frozen=True)
class GroundTruth:
    """Exact per-IMU-tick kinematics and true sonar slant ranges."""

    t: np.ndarray  # (n,)
    p: np.ndarray  # (n, 3) ENU m
    v: np.ndarray  # (n, 3) ENU m/s
    q: np.ndarray  # (n, 4) body->ENU
    a_nav: np.ndarray  # (n, 3) ENU m/s^2
    omega_body: np.ndarray  # (n, 3) rad/s
    heading: np.ndarray  # (n,) rad CCW from east
    arclength: np.ndarray  # (n,) m along the walk
    sonar_true: dict  # channel -> (n,) slant range m, inf = no echo
    path_length: float
    duration: float


# ---------------------------------------------------------------------------
# Path geometry


class _Line:
    def __init__(self, start, heading, length):
        self.start = np.asarray(start, dtype=float)
        self.heading = heading
        self.length = length
        self._dir = np.array([math.cos(heading), math.sin(heading)])

    def sample(self, s):
        """Positions (n, 2), headings and curvatures at local arclengths ``s``."""
        return self.start + s[:, None] * self._dir, self.heading, 0.0


class _Blend:
    """Raised-cosine curvature fillet turning by ``dtheta`` over ``length``."""

    def __init__(self, entry_heading, dtheta, length):
        self.entry = None  # placed once the corner's trims are known
        self.entry_heading = entry_heading
        self.dtheta = dtheta
        self.length = length
        # local-frame centerline, integrated once at build time
        su = np.linspace(0.0, length, _BLEND_TABLE_STEPS + 1)
        psi = self._psi(su)
        dxy = np.column_stack([np.cos(psi), np.sin(psi)])
        xy = np.zeros_like(dxy)
        xy[1:] = np.cumsum(0.5 * (dxy[1:] + dxy[:-1]) * (su[1] - su[0]), axis=0)
        self._table_s = su
        self._table_xy = xy
        c, sn = math.cos(entry_heading), math.sin(entry_heading)
        self._rot = np.array([[c, -sn], [sn, c]])

    def _psi(self, s):
        u = s / self.length
        return self.dtheta * (u - np.sin(2.0 * math.pi * u) / (2.0 * math.pi))

    def sample(self, s):
        """Positions (n, 2), headings and curvatures at local arclengths ``s``."""
        x = np.interp(s, self._table_s, self._table_xy[:, 0])
        y = np.interp(s, self._table_s, self._table_xy[:, 1])
        heading = self.entry_heading + self._psi(s)
        u = s / self.length
        kappa = (
            2.0 * self.dtheta / self.length * 0.5 * (1.0 - np.cos(2.0 * math.pi * u))
        )
        # A stack of (2, 2) @ (2, 1) products runs the matrix-vector kernel
        # once per sample; ``xy @ rot.T`` would take the matrix-matrix kernel,
        # whose rounding differs in the last bit for most rotations.
        xy = np.column_stack([x, y])[:, :, None]
        return self.entry + (self._rot @ xy)[:, :, 0], heading, kappa


def _wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


def _build_path(route) -> tuple[list, float]:
    """Turn waypoints into (primitive, cumulative-length) pieces."""
    verts = [np.asarray(w, dtype=float) for w in route]
    dirs, headings, seg_len = [], [], []
    for a, b in zip(verts, verts[1:]):
        d = b - a
        length = float(np.hypot(*d))
        dirs.append(d / length)
        headings.append(math.atan2(d[1], d[0]))
        seg_len.append(length)

    n_seg = len(seg_len)
    blends: list = [None] * n_seg  # blends[i] is the corner at the END of segment i
    trim_end = [0.0] * n_seg
    trim_start = [0.0] * n_seg
    for i in range(n_seg - 1):
        dtheta = _wrap_angle(headings[i + 1] - headings[i])
        if abs(dtheta) < 1e-12:
            continue
        if abs(dtheta) > math.radians(_MAX_CORNER_DEG):
            raise DataError(
                f"corner at waypoint {i + 1} turns {math.degrees(abs(dtheta)):.0f} deg;"
                " near-reversals cannot be blended"
            )
        blend = _Blend(headings[i], dtheta, CORNER_BLEND_LEN)
        ex, ey = blend._table_xy[-1]  # the exit in the corner's own frame
        d2 = ey / math.sin(dtheta)
        d1 = ex - d2 * math.cos(dtheta)
        blends[i] = blend
        trim_end[i] = d1
        trim_start[i + 1] = d2

    for i in range(n_seg):
        if trim_start[i] + trim_end[i] > seg_len[i] + 1e-9:
            raise DataError(
                f"segment {i} ({seg_len[i]:.2f} m) too short to blend its corners"
            )

    pieces = []  # (start_s, primitive)
    s = 0.0
    for i in range(n_seg):
        start = verts[i] + trim_start[i] * dirs[i]
        line_len = seg_len[i] - trim_start[i] - trim_end[i]
        if line_len > 1e-12:
            pieces.append((s, _Line(start, headings[i], line_len)))
            s += line_len
        if blends[i] is not None:
            blends[i].entry = verts[i + 1] - trim_end[i] * dirs[i]
            pieces.append((s, blends[i]))
            s += CORNER_BLEND_LEN
    return pieces, s


# ---------------------------------------------------------------------------
# Ground truth


def gen_walk(scenario: Scenario) -> GroundTruth:
    """Traverse the route at constant speed and record exact kinematics.

    Samples sit on the IMU tick grid, with one extra sample appended at
    the exact end of the walk when the duration is not a tick multiple.
    """
    pieces, total_len = _build_path(scenario.route)
    duration = scenario.duration
    dt = 1.0 / scenario.imu_rate
    n_grid = int(math.floor(duration / dt + 1e-9))
    t = np.arange(n_grid + 1) * dt
    if duration - t[-1] > 1e-9:
        t = np.append(t, duration)
    n = len(t)

    p = np.zeros((n, 3))
    heading = np.zeros(n)
    kappa = np.zeros(n)
    arclength = scenario.speed * t
    speed = scenario.speed
    s = np.minimum(np.maximum(arclength, 0.0), total_len)
    starts = np.array([start_s for start_s, _ in pieces])
    piece = np.searchsorted(starts, s, side="right") - 1
    for i, (start_s, prim) in enumerate(pieces):
        on = piece == i
        xy, th, kap = prim.sample(np.minimum(s[on] - start_s, prim.length))
        p[on, :2] = xy
        heading[on] = th
        kappa[on] = kap

    zero = np.zeros(n)
    theta_dot = kappa * speed
    v = np.column_stack([speed * np.cos(heading), speed * np.sin(heading), zero])
    a_nav = np.column_stack(
        [
            -speed * theta_dot * np.sin(heading),
            speed * theta_dot * np.cos(heading),
            zero,
        ]
    )
    omega = np.column_stack([zero, zero, -theta_dot])  # body z points down
    q = level_heading_quat(heading)

    sonar_true = _raycast_sonar(scenario, p, heading, arclength)
    return GroundTruth(
        t=t,
        p=p,
        v=v,
        q=q,
        a_nav=a_nav,
        omega_body=omega,
        heading=heading,
        arclength=arclength,
        sonar_true=sonar_true,
        path_length=total_len,
        duration=duration,
    )


def _raycast_sonar(scenario: Scenario, p, heading, arclength) -> dict:
    """True slant range per channel and tick (inf: no echo within range).

    NumPy only prefilters, over whole tick columns: it keeps each (tick,
    obstacle) pair that is inside the obstacle, or inside the beam and
    ``max_range``, with a margin far above the last-bit differences between
    NumPy's and ``math``'s ``hypot`` and ``arctan2`` (see the module
    docstring).  The ranges and the inside/beam decisions come from the
    scalar ``math`` expressions on the kept pairs, obstacle by obstacle in
    listed order.  A dropped pair could only have set a range beyond
    ``max_range``, which reads as no echo either way.
    """
    geom = scenario.geometry
    n = len(heading)
    half_angle = math.radians(geom.beam_half_angle_deg)
    dep = math.radians(geom.inclined_depression_deg)
    azimuths = _channel_azimuths(geom)
    best = {ch: np.full(n, math.inf) for ch in azimuths}
    slack = 1.0 + _PREFILTER_MARGIN

    for obs in scenario.obstacles:
        de = obs.e - p[:, 0]
        dn = obs.n - p[:, 1]
        dist_c = np.hypot(de, dn)
        inside = dist_c <= obs.radius * slack + _PREFILTER_MARGIN
        reach = (obs.radius + geom.max_range) * slack + _PREFILTER_MARGIN
        near = np.flatnonzero(dist_c <= reach)
        direction = np.arctan2(dn[near], de[near])
        for channel, az in azimuths.items():
            off = direction - (heading[near] + az)
            bearing = np.arctan2(np.sin(off), np.cos(off))
            keep = inside.copy()
            keep[near[np.abs(bearing) <= half_angle + _PREFILTER_MARGIN]] = True
            nearest = best[channel]
            for k in np.flatnonzero(keep).tolist():
                de_k = obs.e - p[k, 0]
                dn_k = obs.n - p[k, 1]
                dist_k = math.hypot(de_k, dn_k)
                if dist_k <= obs.radius:
                    nearest[k] = 1e-3
                    continue
                bearing_k = _wrap_angle(math.atan2(dn_k, de_k) - (heading[k] + az))
                if abs(bearing_k) > half_angle:
                    continue
                horiz = dist_k - obs.radius
                slant = horiz / math.cos(dep) if channel in INCLINED_CHANNELS else horiz
                if slant < nearest[k]:
                    nearest[k] = slant

    for channel, az in azimuths.items():
        ranges = best[channel]
        if channel in INCLINED_CHANNELS:
            # ground echo, lengthened while the look-ahead point is over a
            # drop-off zone (along-track projection of the boresight); the
            # first listed zone wins where zones overlap
            look = arclength + math.cos(az) * geom.belt_height / math.tan(dep)
            h_eff = np.full(n, geom.belt_height)
            for zone in reversed(scenario.dropoffs):
                h_eff[(zone.start_s <= look) & (look <= zone.end_s)] = (
                    geom.belt_height + zone.depth
                )
            np.minimum(ranges, h_eff / math.sin(dep), out=ranges)
        ranges[~(ranges <= geom.max_range)] = np.inf
    return best


# ---------------------------------------------------------------------------
# Sensor synthesis


def synth_imu(truth: GroundTruth, noise: NoiseConfig, seed: int) -> ImuLog:
    """Body-frame specific force and angular rate with bias and white noise."""
    rng = np.random.default_rng([seed, _STREAM_IMU])
    r_bn = quat_to_matrix(truth.q)
    f_body = np.einsum("nji,nj->ni", r_bn, truth.a_nav - GRAVITY)
    n = len(truth.t)
    accel = (
        f_body
        + np.asarray(noise.accel_bias)
        + noise.accel_sigma * rng.standard_normal((n, 3))
    )
    gyro = (
        truth.omega_body
        + np.asarray(noise.gyro_bias)
        + noise.gyro_sigma * rng.standard_normal((n, 3))
    )
    return ImuLog(t=truth.t, accel=accel, gyro=gyro)


def gps_epochs(duration: float, rate: float, dropout_windows: Sequence = ()) -> tuple:
    """The GPS epochs k / rate of a walk of ``duration`` s, as ``arange``
    steps them, and a mask of those outside every (t0, t1) dropout window."""
    epochs = np.arange(0.0, duration + 1e-9, 1.0 / rate)
    keep = np.ones(len(epochs), dtype=bool)
    for t0, t1 in dropout_windows:
        keep &= ~((t0 <= epochs) & (epochs <= t1))
    return epochs, keep


def synth_gps(
    truth: GroundTruth,
    noise: NoiseConfig,
    seed: int,
    rate: float,
    anchor: GpsFix,
    dropout_windows: Sequence = (),
) -> list[GpsFix]:
    """Truth positions at the GPS rate, horizontally perturbed, as WGS84 fixes.

    The noise is one draw of two normals for every epoch, dropped ones
    included, so a dropout shifts no later fix's noise.
    """
    rng = np.random.default_rng([seed, _STREAM_GPS])
    epochs, keep = gps_epochs(truth.duration, rate, dropout_windows)
    draws = rng.standard_normal((len(epochs), 2))
    epochs = epochs[keep]
    enu = np.column_stack([np.interp(epochs, truth.t, truth.p[:, i]) for i in range(3)])
    enu[:, :2] += noise.gps_sigma * draws[keep]
    return [GpsFix(t, *fix) for t, fix in zip(epochs.tolist(), geo.enu_to_wgs84(enu, anchor))]


def synth_sonar(truth: GroundTruth, scenario: Scenario) -> SonarLog:
    """Noisy readings per tick, in CHANNELS order within each tick.

    The front channel carries two independent readings per tick (the
    redundant pair the fusion filter consumes).
    Readings with no echo within ``max_range`` carry ``range_m = max_range``
    and ``valid = False``.
    """
    max_range = scenario.geometry.max_range
    sigma = scenario.noise.sonar_sigma
    n = len(truth.t)
    columns, channel = [], []
    for ci, ch in enumerate(CHANNELS):
        copies = 2 if ch is SonarChannel.FRONT else 1
        rng = np.random.default_rng([scenario.seed, _STREAM_SONAR, ci])
        # noise leaves an inf (no echo) true range inf
        columns.extend(truth.sonar_true[ch] + sigma * rng.standard_normal((copies, n)))
        channel.extend([ci] * copies)
    readings = np.column_stack(columns).ravel()  # tick-major
    valid = np.isfinite(readings)
    return SonarLog(
        t=np.repeat(truth.t, len(channel)),
        channel=np.tile(channel, n),
        range_m=np.where(valid, np.clip(readings, 1e-3, max_range), max_range),
        valid=valid,
    )


def stationary_imu_source(noise: NoiseConfig, seed: int):
    """Repeatable raw-reading source of a stationary, level IMU facing east.

    Returns ``source(n) -> (accel (n,3), gyro (n,3))`` drawing fresh noise
    on every call from one seeded generator; used for bench calibration.
    """
    rng = np.random.default_rng([seed, _STREAM_STATIC])
    q = level_heading_quat(0.0)
    r_bn = quat_to_matrix(q)
    f_body = r_bn.T @ (-GRAVITY)
    accel_bias = np.asarray(noise.accel_bias, dtype=float)
    gyro_bias = np.asarray(noise.gyro_bias, dtype=float)

    def source(n: int):
        accel = f_body + accel_bias + noise.accel_sigma * rng.standard_normal((n, 3))
        gyro = gyro_bias + noise.gyro_sigma * rng.standard_normal((n, 3))
        return accel, gyro

    return source


def truth_trajectory(truth: GroundTruth, label: str = "ground-truth"):
    from .metrics import Trajectory

    return Trajectory(t=truth.t, xyz=truth.p, label=label)
