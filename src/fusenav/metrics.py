"""Trajectory evaluation against ground truth.

Estimated trajectories are paired with truth by linear interpolation of
the truth at each estimate timestamp inside the overlapping time range.
Errors are horizontal (east/north) distances -- the evaluation is planar;
the vertical component is reported separately as an informational field.

The relative error percentage is defined as::

    100 * sum(e_i) / sum(d_i)

where ``e_i`` is the per-point horizontal error and ``d_i`` the cumulative
ground-truth distance walked up to that point.  This definition is pinned
here (and tested against direct summation); no other reading of "relative
error" is implied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError


class AlignmentError(DataError):
    """Trajectories share no overlapping time range."""


@dataclass(frozen=True)
class Trajectory:
    """Timestamped ENU polyline with a label for reporting."""

    t: np.ndarray  # (n,), strictly increasing
    xyz: np.ndarray  # (n, 3)
    label: str

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "xyz", np.asarray(self.xyz, dtype=float))
        if len(self.t) < 2:
            raise DataError(f"trajectory '{self.label}' needs >= 2 points")
        if np.any(np.diff(self.t) <= 0.0):
            raise DataError(f"trajectory '{self.label}' timestamps not increasing")

    def path_length(self) -> float:
        """Total horizontal distance along the polyline."""
        return float(
            np.sum(np.hypot(*np.diff(self.xyz[:, :2], axis=0).T))
        )


@dataclass(frozen=True)
class AlignedPairs:
    """Estimate samples paired with interpolated truth."""

    t: np.ndarray  # (m,)
    est: np.ndarray  # (m, 3)
    truth: np.ndarray  # (m, 3)
    est_label: str
    truth_label: str


@dataclass(frozen=True)
class ErrorReport:
    mean: float
    peak: float
    relative_percent: float
    path_length: float
    n_points: int
    vertical_mean: float  # informational |up| error
    est_label: str
    truth_label: str


def align(est: Trajectory, truth: Trajectory) -> AlignedPairs:
    """Interpolate truth at each estimate timestamp within the overlap."""
    t0 = max(est.t[0], truth.t[0])
    t1 = min(est.t[-1], truth.t[-1])
    if t1 < t0:
        raise AlignmentError(
            f"no time overlap between '{est.label}' and '{truth.label}'"
        )
    inside = (est.t >= t0) & (est.t <= t1)
    t = est.t[inside]
    if len(t) == 0:
        raise AlignmentError("no estimate samples inside the overlap")
    truth_xyz = np.column_stack(
        [np.interp(t, truth.t, truth.xyz[:, i]) for i in range(3)]
    )
    return AlignedPairs(
        t=t,
        est=est.xyz[inside],
        truth=truth_xyz,
        est_label=est.label,
        truth_label=truth.label,
    )


def error_report(pairs: AlignedPairs, truth_path_length: float | None = None) -> ErrorReport:
    """Summarize per-point horizontal errors.

    ``truth_path_length`` defaults to the distance covered by the paired
    truth points.  Raises DataError when the truth covers zero distance
    (the relative error is undefined).
    """
    if len(pairs.t) < 1:
        raise DataError("need at least one aligned pair")
    diff = pairs.est - pairs.truth
    errors = np.hypot(diff[:, 0], diff[:, 1])
    seg = np.hypot(*np.diff(pairs.truth[:, :2], axis=0).T)
    cumdist = np.concatenate([[0.0], np.cumsum(seg)])
    dist_mass = float(np.sum(cumdist))
    if dist_mass <= 0.0:
        raise DataError("ground truth covers zero distance; relative error undefined")
    if truth_path_length is None:
        truth_path_length = float(cumdist[-1])
    return ErrorReport(
        mean=float(np.mean(errors)),
        peak=float(np.max(errors)),
        relative_percent=100.0 * float(np.sum(errors)) / dist_mass,
        path_length=truth_path_length,
        n_points=len(errors),
        vertical_mean=float(np.mean(np.abs(diff[:, 2]))),
        est_label=pairs.est_label,
        truth_label=pairs.truth_label,
    )


def evaluate(est: Trajectory, truth: Trajectory) -> ErrorReport:
    """align + error_report in one call, with the truth's full path length."""
    return error_report(align(est, truth), truth.path_length())


def format_table(reports) -> str:
    """Human-readable comparison table, one row per report in the given order."""
    rows = [f"{'trajectory':<18} {'mean_m':>8} {'peak_m':>8} {'rel_%':>8} {'points':>7}"]
    for r in reports:
        rows.append(
            f"{r.est_label:<18} {r.mean:>8.3f} {r.peak:>8.3f} "
            f"{r.relative_percent:>8.2f} {r.n_points:>7d}"
        )
    return "\n".join(rows)
