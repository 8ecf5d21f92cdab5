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
per sample, which no stage modifies.  GPS fixes, about one a second, stay
one frozen GpsFix each.  Every operation in this module is a pure
function.

Each quaternion formula is written once, as a kernel over components
(w, x, y, z), all floats or all equal-length arrays: ``hamilton``,
``unit``, ``rotvec_quat`` and ``rotation_entries``.
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
    """Components of q / |q|; InvalidQuaternionError on a zero or non-finite norm."""
    w, x, y, z = q
    n2 = w * w + x * x + y * y + z * z
    n = math.sqrt(n2) if isinstance(n2, float) else np.sqrt(n2)
    ok = (0.0 < n) & (n < math.inf)  # false for nan
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise InvalidQuaternionError(f"cannot normalize quaternion of norm {n}")
    return w / n, x / n, y / n, z / n


def rotvec_quat(theta) -> tuple:
    """Components of the quaternion of rotation vector theta, exact for any
    |theta| < pi; below 1e-8 rad the first-order (1, theta/2), normalized."""
    tx, ty, tz = theta
    a2 = tx * tx + ty * ty + tz * tz
    m = math if isinstance(a2, float) else np
    angle = m.sqrt(a2)
    small = angle < 1e-8  # a bool for floats, a row mask for arrays
    if small is True:
        return unit((1.0, 0.5 * tx, 0.5 * ty, 0.5 * tz))
    half = 0.5 * angle
    k = m.sin(half) / (angle + small)  # + small: no 0/0 on array rows replaced below
    q = m.cos(half), k * tx, k * ty, k * tz
    if m is np:  # the small rows take the first-order form
        first = unit((np.ones_like(a2), *(0.5 * np.where(small, c, 0.0) for c in (tx, ty, tz))))
        q = tuple(np.where(small, f, e) for f, e in zip(first, q))
    return q


def rotation_entries(q) -> tuple:
    """The nine entries of R(q), row-major, for a unit q."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def quat_normalize(q) -> np.ndarray:
    """Normalize one quaternion (4,) or a stack (n, 4) to unit length.

    Raises InvalidQuaternionError on a zero or non-finite norm.
    """
    return np.array(unit(np.asarray(q, dtype=float).T)).T


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a (x) b, scalar-first.

    ``a`` and ``b`` are quaternions (4,) or stacks (n, 4) of them; a (4,)
    operand broadcasts against a stack.
    """
    return np.array(hamilton(np.asarray(a, float).T, np.asarray(b, float).T)).T


def quat_rotate(q, v) -> np.ndarray:
    """Rotate 3-vector v by unit quaternion q (body -> navigation for our q)."""
    return quat_to_matrix(q) @ np.asarray(v, dtype=float)


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices of q, mapping body vectors into navigation.

    ``q`` is one quaternion (4,) or a stack (..., 4); the result is (3, 3)
    or (..., 3, 3) to match.
    """
    q = np.asarray(q, dtype=float)
    entries = rotation_entries(np.moveaxis(q, -1, 0))
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (3, 3))


def quat_from_small_angle(dtheta) -> np.ndarray:
    """Quaternions of rotation vectors ``dtheta``, (3,) or (n, 3).

    Exact for any |dtheta| < pi; below 1e-8 rad falls back to the
    first-order form (1, dtheta/2) and renormalizes.
    """
    return np.array(rotvec_quat(np.asarray(dtheta, dtype=float).T)).T


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
    return np.array(hamilton((np.cos(half), zero, zero, np.sin(half)), _LEVEL_FRD)).T
