"""EKF fusion of two redundant sonar distance measurements.

The state is the 2-vector of per-sensor distances with a 2x2 covariance.
The filter is written as a general EKF with pluggable transition and
measurement hooks; with the defaults (identity transition, direct
observation) it reduces to the linear Kalman filter, which is the honest
reading of a quasi-static obstacle distance sampled every few tens of
milliseconds.

Default noise matrices: R = diag(0.09, 0.09) m^2, Q = diag(0.001, 0) m^2.
The zero second diagonal of Q makes that component's variance
non-increasing; it is kept as the default but is plain config.  A missing
echo masks its measurement row (variance treated as infinite) instead of
aborting the update; sonar dropouts are routine.

States are values; ``predict``/``update`` are pure state -> state functions,
so independent filter instances can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import CHANNELS, DataError, NumericalError, SonarChannel, SonarLog


def _default_r() -> np.ndarray:
    return np.diag([0.09, 0.09])


def _default_q() -> np.ndarray:
    return np.diag([0.001, 0.0])


@dataclass(frozen=True)
class SonarFusionConfig:
    """Noise matrices plus optional nonlinear model hooks.

    ``transition``/``measurement`` map the 2-state; their Jacobian hooks
    return 2x2 matrices.  ``None`` means identity, the default model.
    """

    r: np.ndarray = field(default_factory=_default_r)
    q: np.ndarray = field(default_factory=_default_q)
    initial_p_scale: float = 1.0
    transition: Optional[Callable[[np.ndarray], np.ndarray]] = None
    transition_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    measurement: Optional[Callable[[np.ndarray], np.ndarray]] = None
    measurement_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class SonarFusionState:
    x: np.ndarray  # (2,) distance estimates, m
    p: np.ndarray  # (2, 2) covariance, m^2


def init(z, cfg: SonarFusionConfig) -> SonarFusionState:
    """Initialize from the first observation; P = initial_p_scale * I."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2,):
        raise DataError(f"expected a 2-vector measurement, got shape {z.shape}")
    if np.any(z <= 0.0):
        raise DataError(f"non-positive sonar measurement: {z}")
    return SonarFusionState(x=z.copy(), p=cfg.initial_p_scale * np.eye(2))


def predict(s: SonarFusionState, cfg: SonarFusionConfig) -> SonarFusionState:
    """Time update: x <- f(x), P <- F P F^T + Q (identity model: P <- P + Q)."""
    if cfg.transition is None:
        x = s.x.copy()
        p = s.p + cfg.q
    else:
        x = np.asarray(cfg.transition(s.x), dtype=float)
        f = (
            np.eye(2)
            if cfg.transition_jacobian is None
            else np.asarray(cfg.transition_jacobian(s.x), dtype=float)
        )
        p = f @ s.p @ f.T + cfg.q
    return SonarFusionState(x=x, p=0.5 * (p + p.T))


def update(
    s: SonarFusionState,
    z,
    cfg: SonarFusionConfig,
    valid: tuple[bool, bool] = (True, True),
) -> SonarFusionState:
    """Measurement update with per-row masking of missing echoes.

    Rows with ``valid[i]`` False are skipped entirely (their variance is
    effectively infinite).  Valid components must be positive ranges.
    Raises NumericalError when the innovation covariance is singular.
    """
    z = np.asarray(z, dtype=float)
    rows = [i for i in range(2) if valid[i]]
    if not rows:
        return s
    if np.any(z[rows] <= 0.0):
        raise DataError(f"non-positive sonar measurement: {z}")

    h_full = (
        np.eye(2)
        if cfg.measurement_jacobian is None
        else np.asarray(cfg.measurement_jacobian(s.x), dtype=float)
    )
    z_pred = s.x if cfg.measurement is None else np.asarray(cfg.measurement(s.x), dtype=float)

    h = h_full[rows]
    innovation = z[rows] - z_pred[rows]
    r = cfg.r[np.ix_(rows, rows)]
    sc = h @ s.p @ h.T + r
    try:
        k = np.linalg.solve(sc.T, (s.p @ h.T).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular innovation covariance: {sc}") from exc
    x = s.x + k @ innovation
    p = (np.eye(2) - k @ h) @ s.p
    return SonarFusionState(x=x, p=0.5 * (p + p.T))


def fused_distance(s: SonarFusionState) -> float:
    """Arithmetic mean of the two distance estimates (equal contribution)."""
    return float(s.x.mean())


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
    z = log.range_m[front].reshape(-1, 2)
    valid = log.valid[front].reshape(-1, 2).tolist()
    rows = [
        (tk, zk[0], zk[1], fused_distance(state), state.p[0, 0], state.p[1, 1])
        for tk, zk, state in zip(ticks.tolist(), z, run_fusion(zip(z, valid), cfg))
        if state is not None
    ]
    return FusedFront(*np.array(rows, dtype=float).reshape(-1, 6).T)
