"""Kalman fusion of two redundant sonar distance measurements.

The paper's homogeneous fusion step is an EKF over the two front sonars,
with the state the pair of per-sensor distances.  With identity transition
and observation (a quasi-static obstacle distance sampled every few tens of
milliseconds), diagonal noise and a diagonal initial covariance, that EKF
never correlates its two components: it is two independent scalar Kalman
filters, one per sensor, and is written as such on Python floats.

The noise is constant, not a setting: measurement variances R = (0.09,
0.09) m^2, process noise Q = (0.001, 0) m^2 and initial variance P0 = 1.
The zero second entry of Q makes that component's variance
non-increasing.  A missing echo skips its sensor's update (variance
treated as infinite) instead of aborting the tick; sonar dropouts are
routine.  Every echo's range is positive, as each ``core.SonarLog`` holds it.

States are values; ``predict``/``update`` are pure state -> state functions,
so independent filter instances can run concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import CHANNELS, SonarChannel, SonarLog, StreamError

R = (0.09, 0.09)  # per-sensor measurement variances, m^2
Q = (0.001, 0.0)  # per-sensor process noise, m^2
P0 = 1.0  # initial variance of each sensor's estimate, m^2


class SonarFusionState(NamedTuple):
    x: tuple[float, float]  # per-sensor distance estimates, m
    p: tuple[float, float]  # their variances, m^2


def init(z) -> SonarFusionState:
    """Initialize from the first observation, two positive ranges; each variance is P0."""
    return SonarFusionState(x=tuple(map(float, z)), p=(P0, P0))


def predict(s: SonarFusionState) -> SonarFusionState:
    """Time update: x unchanged, p <- p + Q per sensor."""
    p1, p2 = s.p
    return SonarFusionState(s.x, (p1 + Q[0], p2 + Q[1]))


def _correct(x: float, p: float, z: float, r: float) -> tuple[float, float]:
    """One sensor's measurement update of (x, p) with range z of variance r."""
    # reciprocal then multiply rounds as the LAPACK solve of the matrix form did
    k = p * (1.0 / (p + r))
    return x + k * (z - x), (1.0 - k) * p


def update(
    s: SonarFusionState, z, valid: tuple[bool, bool] = (True, True)
) -> SonarFusionState:
    """Measurement update of each sensor whose echo is ``valid``.

    A sensor with ``valid[i]`` False keeps its state (its measurement
    variance is effectively infinite); a valid component is a positive
    range, as every SonarLog holds it.
    """
    (x1, x2), (p1, p2) = s
    if valid[0]:
        x1, p1 = _correct(x1, p1, z[0], R[0])
    if valid[1]:
        x2, p2 = _correct(x2, p2, z[1], R[1])
    return SonarFusionState((x1, x2), (p1, p2))


def fused_distance(s: SonarFusionState) -> float:
    """Arithmetic mean of the two distance estimates (equal contribution)."""
    x1, x2 = s.x
    return 0.5 * (x1 + x2)


class FusedFront(NamedTuple):
    """The fused.csv columns: one entry per front tick from the first full pair on."""

    t: np.ndarray
    raw1: np.ndarray
    raw2: np.ndarray
    fused: np.ndarray
    p11: np.ndarray
    p22: np.ndarray


_FRONT = CHANNELS.index(SonarChannel.FRONT)
_BLOCK = 1024  # ticks whose readings are Python floats at one time


def _front_ticks(log: SonarLog, front: np.ndarray) -> np.ndarray:
    """The front channel's tick times; a StreamError at the first row of a
    tick without exactly two front readings."""
    ticks, counts = np.unique(log.t[front], return_counts=True)
    if np.any(counts != 2):
        k = int(np.argmax(counts != 2))
        row = int(np.flatnonzero(front)[np.searchsorted(log.t[front], ticks[k])])
        why = f"unsupported sonar layout: {counts[k]} front ping(s) at t={float(ticks[k])}"
        raise StreamError("sonar", why + "; fusion needs exactly two front sensors", row)
    return ticks


def fuse_front_pair(log: SonarLog) -> FusedFront:
    """Run the filter over the front channel of a sonar log.

    Every front tick must carry exactly two readings (else a StreamError at
    the tick's first row).  The first fully valid pair initializes the
    filter; ticks before it are not fused and get no entry.  The t, raw1
    and raw2 columns are views of the log's front readings; the filter
    steps _BLOCK ticks at a time, so only one block's readings are Python
    floats at once.
    """
    front = log.channel == _FRONT
    ticks = _front_ticks(log, front)
    z = log.range_m[front].reshape(-1, 2)
    valid = log.valid[front].reshape(-1, 2)
    full = valid[:, 0] & valid[:, 1]
    first = int(full.argmax()) if full.any() else len(full)
    out = np.empty((3, len(full) - first))  # fused, p11, p22
    state = None
    for lo in range(first, len(full), _BLOCK):
        rows = []
        for zk, vk in zip(z[lo : lo + _BLOCK].tolist(), valid[lo : lo + _BLOCK].tolist()):
            # valid by keyword: the traced bench reads it from there
            state = init(zk) if state is None else update(predict(state), zk, valid=vk)
            rows.append((fused_distance(state), *state.p))
        out[:, lo - first : lo - first + len(rows)] = np.array(rows).T
    return FusedFront(ticks[first:], z[first:, 0], z[first:, 1], *out)
