"""Shared measurement types, time base, and quaternion/vector math.

Conventions used across the toolkit (fixed here, inherited everywhere):

* Body frame: x forward, y right, z down (FRD), fixed to the walker's torso.
* Navigation frame: local ENU (east, north, up) anchored at a reference
  GPS fix; gravity is GRAVITY, ``(0, 0, -g)`` with standard g.
* Quaternions: Hamilton product, scalar-first ``[w, x, y, z]``, rotating
  body vectors into the navigation frame (``v_nav = R(q) @ v_body``).
* Time: scenario-relative seconds as plain floats.  Streams handed to the
  filters must already be on one common, aligned time base; timestamps in
  one stream are non-decreasing.

3-vectors are ``numpy`` arrays of shape (3,).  The high-rate streams are
columnar logs (ImuLog, SonarLog): frozen dataclasses of arrays, one row
per sample.  A log owns its stream's bounds, as GpsFix owns its ranges:
built alike by the readers and the simulator, it refuses its first row
out of bounds (a StreamError) and makes the arrays it checked read-only.
GPS fixes, about one a second, stay one frozen GpsFix each.  The sonar
belt's mounting, SonarGeometry, lives beside the channel order.  Every
operation in this module is a pure function.

Each quaternion formula is written once, as a kernel over components
(w, x, y, z).  ``hamilton`` and ``rotation_entries``, the one kernel of
R(q), take all floats or all equal-length arrays: ``level_heading_quat``
runs ``hamilton`` on stacks, ``quat_to_matrix`` runs ``rotation_entries``
on the component views of a (..., 4) stack, and the localizer's
``propagate`` on the (4, m) attitude columns of a segment.
``rotvec_quat`` runs one formula on a rotation vector's components as
floats (``gps_update``'s correction) or as columns (the increments that
``run_localizer`` forms, 1,024 steps at a time).  ``unit`` takes floats
only: the attitude loop of ``propagate`` and ``gps_update`` call it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Invalid or contract-violating input data (CLI exit code 2)."""


class StreamError(DataError):
    """The one located fault: of the input stream ``stream`` ("imu", "gps"
    or "sonar"), at its row ``index`` when one row shows it; cli names the file."""

    def __init__(self, stream: str, why: str, index: int | None = None):
        self.stream, self.index = stream, index
        super().__init__(why)


class NumericalError(ArithmeticError):
    """A numerical procedure failed to produce a usable result (exit code 3)."""


GRAVITY = np.array([0.0, 0.0, -9.80665])
MAX_ACCEL = 16 * 9.80665  # m/s^2: 16 g, the InvenSense MPU-6050 family's widest full scale
MAX_GYRO = math.radians(2000.0)  # rad/s: 2000 deg/s, that family's widest full scale


class SonarChannel(enum.Enum):
    """Belt positions of the sonar channels."""

    LEFT = "left"
    RIGHT = "right"
    FRONT = "front"
    INCLINED_LEFT = "inclined_left"
    INCLINED_RIGHT = "inclined_right"


# Channel order of the rows within one sonar tick; SonarLog.channel indexes it.
CHANNELS = (
    SonarChannel.LEFT,
    SonarChannel.FRONT,
    SonarChannel.RIGHT,
    SonarChannel.INCLINED_LEFT,
    SonarChannel.INCLINED_RIGHT,
)
INCLINED_CHANNELS = (SonarChannel.INCLINED_LEFT, SonarChannel.INCLINED_RIGHT)


@dataclass(frozen=True)
class SonarGeometry:
    """Belt mounting geometry of the five sonar channels; each field is the
    scenario key of the same name."""

    belt_height: float = 1.0  # m above the floor
    inclined_depression_deg: float = 45.0
    inclined_azimuth_deg: float = 25.0
    beam_half_angle_deg: float = 15.0
    max_range: float = 4.0

    @property
    def expected_ground_range(self) -> float:
        return self.belt_height / math.sin(math.radians(self.inclined_depression_deg))


@dataclass(frozen=True, eq=False)
class ImuLog:
    """IMU readings as columns, one row per sample, rows time-sorted.

    Raw body-frame specific force and angular rate: calibration offsets
    are still in them.  Every component lies within the IMU's full scale,
    MAX_ACCEL and MAX_GYRO; accel and gyro are read-only.
    """

    t: np.ndarray  # (n,) s
    accel: np.ndarray  # (n, 3) m/s^2
    gyro: np.ndarray  # (n, 3) rad/s

    def __post_init__(self):
        a, g = self.accel, self.gyro  # a NaN fails every comparison; no float temporary is made
        sx, sy, sz = ((a <= MAX_ACCEL) & (a >= -MAX_ACCEL) & (g <= MAX_GYRO) & (g >= -MAX_GYRO)).T
        ok = sx & sy & sz  # the columns' & is 10x faster than all(axis=1)
        if not ok.all():
            why = f"reading beyond full scale (accel +-{MAX_ACCEL} m/s^2, gyro +-{MAX_GYRO} rad/s)"
            raise StreamError("imu", why, int(ok.argmin()))
        self.accel.flags.writeable = self.gyro.flags.writeable = False

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class GpsFix:
    """One GNSS fix: WGS84 geodetic degrees and ellipsoidal height in meters."""

    t: float
    lat: float
    lon: float
    alt: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.alt)):
            raise DataError(f"non-finite time or altitude: t={self.t}, alt={self.alt}")
        if not -90.0 <= self.lat <= 90.0:
            raise DataError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise DataError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True, eq=False)
class SonarLog:
    """Sonar readings as columns, one row per reading, rows time-sorted.

    ``channel`` holds indices into CHANNELS; ``valid`` is False when no
    echo returned, and an echo has a positive range.  A tick's rows share
    one ``t``.  range_m and valid are read-only.
    """

    t: np.ndarray  # (n,) s
    channel: np.ndarray  # (n,) int
    range_m: np.ndarray  # (n,) m
    valid: np.ndarray  # (n,) bool

    def __post_init__(self):
        bad = self.valid & ~(self.range_m > 0.0)  # a NaN range fails too
        if bad.any():
            k = int(bad.argmax())
            why = f"column 'range': an echo needs a positive range, got {float(self.range_m[k])!r}"
            raise StreamError("sonar", why, k)
        self.range_m.flags.writeable = self.valid.flags.writeable = False

    def __len__(self) -> int:
        return len(self.t)


def hamilton(a, b) -> tuple:
    """Components of the Hamilton product a (x) b."""
    (aw, ax, ay, az), (bw, bx, by, bz) = a, b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def unit(q) -> tuple:
    """Components of q / |q|; DataError on a zero or non-finite norm."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not 0.0 < n < math.inf:  # false for nan
        raise DataError(f"cannot normalize quaternion of norm {n}")
    return w / n, x / n, y / n, z / n


def _libm(f, x):
    """libm's ``f`` on a float, or on each entry of a column (NumPy's own sin
    and cos may differ from libm in the last bit)."""
    return f(x) if type(x) is float else np.fromiter(map(f, x.tolist()), float, len(x))


def rotvec_quat(theta):
    """Quaternions of rotation vectors, exact for any |theta| < pi; below
    1e-8 rad the first-order (1, theta/2), normalized.  ``theta`` is (3,)
    or an (m, 3) array, the result four floats or (m, 4).  One formula runs
    on the components as floats or as columns, so a row gives the same
    floats alone or in a stack."""
    stack = getattr(theta, "ndim", 1) == 2
    tx, ty, tz = np.asarray(theta, dtype=float).T if stack else map(float, theta)
    square = tx * tx + ty * ty + tz * tz
    angle = np.sqrt(square) if stack else math.sqrt(square)  # each rounds correctly
    half = 0.5 * angle
    small = angle < 1e-8
    # a row below 1e-8 rad divides by 1 + angle, not by a zero angle, and is replaced
    k = _libm(math.sin, half) / (angle + small)
    q = (_libm(math.cos, half), k * tx, k * ty, k * tz)
    if not stack:
        return unit((1.0, 0.5 * tx, 0.5 * ty, 0.5 * tz)) if small else q
    q = np.array(q)
    for i in small.nonzero()[0].tolist():
        q[:, i] = rotvec_quat(theta[i])
    return q.T


def rotation_entries(q) -> tuple:
    """The nine entries of R(q), row-major, for a unit q; each forms its own
    products (shared ones keep nine more arrays alive: 2.3x on 7,238 rows)."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices of q, mapping body vectors into navigation.

    ``q`` is one quaternion (4,) or a stack (..., 4); the result is (3, 3)
    or (..., 3, 3) to match.
    """
    q = np.asarray(q, dtype=float)
    entries = rotation_entries(np.moveaxis(q, -1, 0))
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (3, 3))


# A level FRD body aligned with east is Rx(pi) away from the ENU axes.
_LEVEL_FRD = np.array([0.0, 1.0, 0.0, 0.0])


def level_heading_quat(heading_rad) -> np.ndarray:
    """Body->ENU quaternion of a level FRD mount heading ``heading_rad``
    (radians counterclockwise from east).

    ``heading_rad`` is one heading or an array (n,) of them; the result is
    (4,) or (n, 4) to match.
    """
    half = 0.5 * np.asarray(heading_rad, dtype=float)
    zero = np.zeros_like(half)
    return np.array(hamilton((np.cos(half), zero, zero, np.sin(half)), _LEVEL_FRD)).T
