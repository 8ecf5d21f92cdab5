"""Trajectory evaluation against ground truth.

``evaluate`` pairs each estimate sample inside the two trajectories'
overlapping time range with the truth linearly interpolated at its
timestamp, and summarizes the pairs in one report.  Errors are horizontal
(east/north) distances -- the evaluation is planar; the vertical component
is reported separately as an informational field.

The relative error percentage of ``evaluate`` is defined as::

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
class ErrorReport:
    mean: float
    peak: float
    relative_percent: float
    path_length: float
    n_points: int
    vertical_mean: float  # informational |up| error
    est_label: str
    truth_label: str


def evaluate(est: Trajectory, truth: Trajectory) -> ErrorReport:
    """Error report of ``est`` against ``truth``, interpolated at each
    estimate timestamp within the overlap, with the truth's full path length.

    Raises DataError when no estimate sample lies inside the overlap, or
    when the paired truth covers zero distance (the relative error is
    undefined).
    """
    t0 = max(est.t[0], truth.t[0])
    t1 = min(est.t[-1], truth.t[-1])
    inside = (est.t >= t0) & (est.t <= t1)
    if not inside.any():
        raise DataError(f"no time overlap between '{est.label}' and '{truth.label}'")
    t = est.t[inside]
    truth_xyz = np.column_stack([np.interp(t, truth.t, truth.xyz[:, i]) for i in range(3)])
    diff = est.xyz[inside] - truth_xyz
    errors = np.hypot(diff[:, 0], diff[:, 1])
    seg = np.hypot(*np.diff(truth_xyz[:, :2], axis=0).T)
    dist_mass = float(np.sum(np.concatenate([[0.0], np.cumsum(seg)])))
    if dist_mass <= 0.0:
        raise DataError("ground truth covers zero distance; relative error undefined")
    return ErrorReport(
        mean=float(np.mean(errors)),
        peak=float(np.max(errors)),
        relative_percent=100.0 * float(np.sum(errors)) / dist_mass,
        path_length=truth.path_length(),
        n_points=len(errors),
        vertical_mean=float(np.mean(np.abs(diff[:, 2]))),
        est_label=est.label,
        truth_label=truth.label,
    )


def format_table(report: ErrorReport) -> str:
    """Human-readable table: a header row and the report's row."""
    return (
        f"{'trajectory':<18} {'mean_m':>8} {'peak_m':>8} {'rel_%':>8} {'points':>7}\n"
        f"{report.est_label:<18} {report.mean:>8.3f} {report.peak:>8.3f} "
        f"{report.relative_percent:>8.2f} {report.n_points:>7d}"
    )
