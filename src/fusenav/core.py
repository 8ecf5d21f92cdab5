"""Shared measurement types, time base, and quaternion/vector math.

Conventions used across the toolkit (fixed here, inherited everywhere):

* Body frame: x forward, y right, z down (FRD), fixed to the walker's torso.
* Navigation frame: local ENU (east, north, up) anchored at a reference
  GPS fix; gravity is ``(0, 0, -9.80665)`` m/s^2.
* Quaternions: Hamilton product, scalar-first ``[w, x, y, z]``, rotating
  body vectors into the navigation frame (``v_nav = R(q) @ v_body``).
* Time: scenario-relative seconds as plain floats.  Streams handed to the
  filters must already be on one common, aligned time base; timestamps in
  one stream are non-decreasing.

3-vectors are ``numpy`` arrays of shape (3,).  The high-rate streams are
columnar logs (ImuLog, SonarLog): frozen dataclasses of arrays, one row
per sample, which no stage modifies.  GPS fixes, about one a second, stay
one frozen GpsFix each.  Every operation in this module is a pure
function.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Invalid or contract-violating input data (CLI exit code 2)."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed to produce a usable result (exit code 3)."""


class InvalidQuaternionError(DataError):
    """Quaternion input that cannot be normalized (zero or non-finite norm)."""


GRAVITY = np.array([0.0, 0.0, -9.80665])


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


@dataclass(frozen=True, eq=False)
class ImuLog:
    """IMU readings as columns, one row per sample, rows time-sorted.

    Raw body-frame specific force and angular rate: calibration offsets
    are still in them.
    """

    t: np.ndarray  # (n,) s
    accel: np.ndarray  # (n, 3) m/s^2
    gyro: np.ndarray  # (n, 3) rad/s

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
    echo returned.  A tick's rows share one ``t``.
    """

    t: np.ndarray  # (n,) s
    channel: np.ndarray  # (n,) int
    range_m: np.ndarray  # (n,) m
    valid: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return len(self.t)


def quat_normalize(q) -> np.ndarray:
    """Normalize to unit length, preserving direction.

    Raises InvalidQuaternionError on zero or non-finite norm.
    """
    q = np.asarray(q, dtype=float)
    n = math.sqrt(float(q @ q))
    if n == 0.0 or not math.isfinite(n):
        raise InvalidQuaternionError(f"cannot normalize quaternion {q}")
    return q / n


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a (x) b, scalar-first.

    ``a`` and ``b`` are quaternions (4,) or stacks (n, 4) of them; a (4,)
    operand broadcasts against a stack.
    """
    aw, ax, ay, az = np.asarray(a, dtype=float).T
    bw, bx, by, bz = np.asarray(b, dtype=float).T
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    ).T


def quat_rotate(q, v) -> np.ndarray:
    """Rotate 3-vector v by unit quaternion q (body -> navigation for our q)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[0]
    u = q[1:]
    # v' = v + 2 w (u x v) + 2 u x (u x v), standard expansion
    uv = np.cross(u, v)
    return v + 2.0 * w * uv + 2.0 * np.cross(u, uv)


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices of q, mapping body vectors into navigation.

    ``q`` is one quaternion (4,) or a stack (..., 4); the result is (3, 3)
    or (..., 3, 3) to match.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(q.shape[:-1] + (3, 3))


def quat_from_small_angle(dtheta) -> np.ndarray:
    """Quaternion of the rotation vector ``dtheta`` (axis-angle exponential).

    Exact for any |dtheta| < pi; below 1e-8 rad falls back to the
    first-order form (1, dtheta/2) and renormalizes.
    """
    dtheta = np.asarray(dtheta, dtype=float)
    angle = math.sqrt(float(dtheta @ dtheta))
    if angle < 1e-8:
        return quat_normalize(np.array([1.0, *(0.5 * dtheta)]))
    half = 0.5 * angle
    return np.array([math.cos(half), *(math.sin(half) / angle * dtheta)])


def quat_to_rotation_vector(q) -> np.ndarray:
    """Inverse of quat_from_small_angle (shortest rotation vector of q)."""
    q = np.asarray(q, dtype=float)
    if q[0] < 0.0:
        q = -q
    sin_half = math.sqrt(float(q[1:] @ q[1:]))
    if sin_half < 1e-12:
        return 2.0 * q[1:]
    angle = 2.0 * math.atan2(sin_half, q[0])
    return angle / sin_half * q[1:]


def skew(v) -> np.ndarray:
    """Skew-symmetric cross-product matrix of a 3-vector."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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
    qz = np.array([np.cos(half), zero, zero, np.sin(half)]).T
    return quat_multiply(qz, _LEVEL_FRD)
