"""Kalman fusion of two redundant sonar distance measurements.

The paper's homogeneous fusion step is an EKF over the two front sonars,
with the state the pair of per-sensor distances.  With identity transition
and observation (a quasi-static obstacle distance sampled every few tens of
milliseconds), diagonal noise and a diagonal initial covariance, that EKF
never correlates its two components: it is two independent scalar Kalman
filters, one per sensor, and is written as such on Python floats.

Default noise variances: R = (0.09, 0.09) m^2, Q = (0.001, 0) m^2.  The
zero second entry of Q makes that component's variance non-increasing; it
is kept as the default but is plain config.  A missing echo skips its
sensor's update (variance treated as infinite) instead of aborting the
tick; sonar dropouts are routine.

States are values; ``predict``/``update`` are pure state -> state functions,
so independent filter instances can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import CHANNELS, DataError, NumericalError, SonarChannel, SonarLog


@dataclass(frozen=True)
class SonarFusionConfig:
    """Per-sensor noise variances (m^2) and the initial variance scale."""

    r: tuple[float, float] = (0.09, 0.09)
    q: tuple[float, float] = (0.001, 0.0)
    initial_p_scale: float = 1.0


class SonarFusionState(NamedTuple):
    x: tuple[float, float]  # per-sensor distance estimates, m
    p: tuple[float, float]  # their variances, m^2


def init(z, cfg: SonarFusionConfig) -> SonarFusionState:
    """Initialize from the first observation; each variance is initial_p_scale."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2,):
        raise DataError(f"expected a 2-vector measurement, got shape {z.shape}")
    if not (z > 0.0).all():
        raise DataError(f"non-positive sonar measurement: {z}")
    p0 = float(cfg.initial_p_scale)
    return SonarFusionState(x=tuple(z.tolist()), p=(p0, p0))


def predict(s: SonarFusionState, cfg: SonarFusionConfig) -> SonarFusionState:
    """Time update: x unchanged, p <- p + q per sensor."""
    (p1, p2), (q1, q2) = s.p, cfg.q
    return SonarFusionState(s.x, (p1 + q1, p2 + q2))


def _correct(x: float, p: float, z: float, r: float) -> tuple[float, float]:
    """One sensor's measurement update of (x, p) with range z of variance r."""
    if not z > 0.0:
        raise DataError(f"non-positive sonar measurement: {z}")
    s = p + r
    if s == 0.0:
        raise NumericalError(f"singular innovation covariance: {s}")
    # reciprocal then multiply rounds as the LAPACK solve of the matrix form did
    k = p * (1.0 / s)
    return x + k * (z - x), (1.0 - k) * p


def update(
    s: SonarFusionState,
    z,
    cfg: SonarFusionConfig,
    valid: tuple[bool, bool] = (True, True),
) -> SonarFusionState:
    """Measurement update of each sensor whose echo is ``valid``.

    A sensor with ``valid[i]`` False keeps its state (its measurement
    variance is effectively infinite).  Valid components must be positive
    ranges (DataError otherwise, ``nan`` included).  Raises NumericalError
    when an innovation variance is zero.
    """
    (x1, x2), (p1, p2) = s
    if valid[0]:
        x1, p1 = _correct(x1, p1, z[0], cfg.r[0])
    if valid[1]:
        x2, p2 = _correct(x2, p2, z[1], cfg.r[1])
    return SonarFusionState((x1, x2), (p1, p2))


def fused_distance(s: SonarFusionState) -> float:
    """Arithmetic mean of the two distance estimates (equal contribution)."""
    x1, x2 = s.x
    return 0.5 * (x1 + x2)


def run_fusion(pairs, cfg: SonarFusionConfig | None = None):
    """Filter a sequence of two-sensor readings.

    ``pairs`` yields ``(z, valid)`` with ``z`` a 2-vector and ``valid`` a
    pair of echo flags.  The first fully valid pair initializes the state;
    earlier pairs are passed through un-fused (state ``None``).  Yields one
    :class:`SonarFusionState` (or None before init) per input pair.
    """
    if cfg is None:
        cfg = SonarFusionConfig()
    state: SonarFusionState | None = None
    for z, valid in pairs:
        if state is None:
            if valid[0] and valid[1]:
                state = init(z, cfg)
            yield state
            continue
        state = update(predict(state, cfg), z, cfg, valid)
        yield state


class FusedFront(NamedTuple):
    """The fused.csv columns: one entry per front tick from the first full pair on."""

    t: np.ndarray
    raw1: np.ndarray
    raw2: np.ndarray
    fused: np.ndarray
    p11: np.ndarray
    p22: np.ndarray


_FRONT = CHANNELS.index(SonarChannel.FRONT)


def fuse_front_pair(log: SonarLog, cfg: SonarFusionConfig | None = None) -> FusedFront:
    """Run the filter over the front channel of a sonar log.

    Every front tick must carry exactly two readings (DataError otherwise).
    Ticks before the first fully valid pair are not fused and get no entry.
    """
    front = log.channel == _FRONT
    ticks, counts = np.unique(log.t[front], return_counts=True)
    if np.any(counts != 2):
        k = int(np.argmax(counts != 2))
        raise DataError(
            f"unsupported sonar layout: {counts[k]} front ping(s) at t={float(ticks[k])}; "
            "fusion needs exactly two front sensors"
        )
    z = log.range_m[front].reshape(-1, 2).tolist()
    valid = log.valid[front].reshape(-1, 2).tolist()
    rows = [
        (tk, z1, z2, fused_distance(state), *state.p)
        for tk, (z1, z2), state in zip(ticks.tolist(), z, run_fusion(zip(z, valid), cfg))
        if state is not None
    ]
    return FusedFront(*np.array(rows, dtype=float).reshape(-1, 6).T)
