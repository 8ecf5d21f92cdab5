"""Geodetic conversions and GPS waypoint clustering.

WGS84 <-> ECEF uses the standard ellipsoid closed form; the inverse refines
latitude iteratively to 1e-12 rad, which behaves better near the poles than
the closed-form variants.  ENU frames are tangent planes anchored at a
reference :class:`~fusenav.core.GpsFix`; every ENU-carrying structure records
its reference.

``wgs84_to_enu`` and ``enu_to_wgs84`` also take a stream (fixes, an (n, 3)
array): its frame, the reference's rotation and ECEF origin, is built once,
and each point takes its own 3x3 product, as a single point does.  One
(n, 3) @ R^T product would run another BLAS routine, off in the last bit.

Clustering is the dwell ("stay-point") detector used to label ground truth
from a walk with deliberate stops: fixes join the current cluster while they
stay within ``cluster_radius`` of its running centroid, and clusters shorter
than ``min_dwell`` seconds are discarded.  Distances are horizontal (E, N):
GPS altitude noise is far larger than the radii of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataError, GpsFix

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

_LAT_TOL_RAD = 1e-12
_MAX_ITER = 30


@dataclass(frozen=True)
class WaypointCluster:
    """A dwell cluster of GPS fixes with its ENU centroid."""

    members: tuple
    centroid: np.ndarray  # (3,) ENU meters relative to `ref`
    start_t: float
    end_t: float
    ref: GpsFix


@dataclass(frozen=True)
class GroundTruthPath:
    """Ordered (t, ENU) polyline chained from cluster centroids."""

    t: np.ndarray  # (n,)
    enu: np.ndarray  # (n, 3)
    ref: GpsFix


def wgs84_to_ecef(fix: GpsFix) -> np.ndarray:
    """Geodetic lat/lon/alt to ECEF meters."""
    lat = math.radians(fix.lat)
    lon = math.radians(fix.lon)
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    return np.array(
        [
            (n + fix.alt) * cos_lat * math.cos(lon),
            (n + fix.alt) * cos_lat * math.sin(lon),
            (n * (1.0 - WGS84_E2) + fix.alt) * sin_lat,
        ]
    )


def ecef_to_wgs84(p) -> tuple[float, float, float]:
    """ECEF meters to geodetic (lat deg, lon deg, alt m), iterative latitude."""
    x, y, z = np.asarray(p, dtype=float).tolist()
    lon = math.atan2(y, x)
    rho = math.hypot(x, y)
    if rho < 1e-9:
        # On the polar axis the longitude is arbitrary; report 0.
        lat = math.copysign(math.pi / 2.0, z)
        return math.degrees(lat), 0.0, abs(z) - WGS84_B
    def altitude(lat, n):
        # rho/cos degenerates near the poles, z/sin near the equator
        if abs(lat) < math.pi / 4:
            return rho / math.cos(lat) - n
        return z / math.sin(lat) - n * (1.0 - WGS84_E2)

    lat = math.atan2(z, rho * (1.0 - WGS84_E2))
    for _ in range(_MAX_ITER):
        sin_lat = math.sin(lat)
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
        alt = altitude(lat, n)
        new_lat = math.atan2(z, rho * (1.0 - WGS84_E2 * n / (n + alt)))
        if abs(new_lat - lat) < _LAT_TOL_RAD:
            lat = new_lat
            break
        lat = new_lat
    sin_lat = math.sin(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    return math.degrees(lat), math.degrees(lon), altitude(lat, n)


def _enu_rotation(ref: GpsFix) -> np.ndarray:
    """ECEF-to-ENU rotation at the reference fix."""
    lat = math.radians(ref.lat)
    lon = math.radians(ref.lon)
    sl, cl = math.sin(lat), math.cos(lat)
    so, co = math.sin(lon), math.cos(lon)
    return np.array(
        [
            [-so, co, 0.0],
            [-sl * co, -sl * so, cl],
            [cl * co, cl * so, sl],
        ]
    )


def ecef_to_enu(p, ref: GpsFix) -> np.ndarray:
    """ECEF point to local ENU meters relative to `ref`."""
    return _enu_rotation(ref) @ (np.asarray(p, dtype=float) - wgs84_to_ecef(ref))


def enu_to_ecef(enu, ref: GpsFix) -> np.ndarray:
    return _enu_rotation(ref).T @ np.asarray(enu, dtype=float) + wgs84_to_ecef(ref)


def wgs84_to_enu(fix, ref: GpsFix) -> np.ndarray:
    """ENU meters about ``ref`` of one fix (3,), or of a sequence of fixes (n, 3)."""
    if isinstance(fix, GpsFix):
        return wgs84_to_enu([fix], ref)[0]
    r, origin = _enu_rotation(ref), wgs84_to_ecef(ref)
    return np.array([r @ (wgs84_to_ecef(f) - origin) for f in fix]).reshape(-1, 3)


def enu_to_wgs84(enu, ref: GpsFix):
    """(lat, lon, alt) of one ENU point (3,) about ``ref``, or their list for (n, 3)."""
    enu = np.asarray(enu, dtype=float)
    if enu.ndim == 1:
        return enu_to_wgs84(enu[None], ref)[0]
    rt, origin = _enu_rotation(ref).T, wgs84_to_ecef(ref)
    return [ecef_to_wgs84(rt @ p + origin) for p in enu]


def enu_frame_transform(ref: GpsFix, target: GpsFix) -> tuple[np.ndarray, np.ndarray]:
    """Affine map taking ENU-about-``ref`` points into ENU-about-``target``.

    Returns ``(R, d)`` with ``p_target = R @ p_ref + d``; exact (goes
    through ECEF), so re-anchoring a trajectory loses nothing.
    """
    r = _enu_rotation(target) @ _enu_rotation(ref).T
    d = ecef_to_enu(wgs84_to_ecef(ref), target)
    return r, d


def enu_to_enu(points, ref: GpsFix, target: GpsFix) -> np.ndarray:
    """Re-anchor an (n, 3) array of ENU points from ``ref`` to ``target``."""
    r, d = enu_frame_transform(ref, target)
    return np.asarray(points, dtype=float) @ r.T + d


def cluster_waypoints(
    fixes, cluster_radius: float = 3.0, min_dwell: float = 3.0
) -> list[WaypointCluster]:
    """Sequential running-centroid clustering of time-sorted fixes.

    A fix joins the current cluster only while it is within
    ``cluster_radius`` of the running centroid *and* admitting it keeps
    every existing member within the radius of the updated centroid (the
    second check protects the cluster invariant against slowly drifting
    sequences).  Clusters with dwell shorter than ``min_dwell`` seconds are
    dropped.  The ENU reference is the first fix of the stream.

    Walking traverses a cluster-sized region in about
    ``2 * cluster_radius / speed`` seconds; pick ``min_dwell`` above that
    or walking legs will survive the dwell filter.
    """
    fixes = list(fixes)
    if not fixes:
        return []
    ref = fixes[0]
    enu = wgs84_to_enu(fixes, ref)

    clusters: list[WaypointCluster] = []
    start = 0
    centroid = enu[0].copy()

    def close(i: int, j: int):
        nonlocal start, centroid
        # members are fixes[i:j]
        if j > i and fixes[j - 1].t - fixes[i].t >= min_dwell:
            clusters.append(
                WaypointCluster(
                    members=tuple(fixes[i:j]),
                    centroid=enu[i:j].mean(axis=0),
                    start_t=fixes[i].t,
                    end_t=fixes[j - 1].t,
                    ref=ref,
                )
            )

    for k in range(1, len(fixes)):
        count = k - start
        cand = (centroid * count + enu[k]) / (count + 1)
        d = np.hypot(*(enu[k, :2] - centroid[:2]))
        members_ok = np.all(
            np.hypot(*(enu[start : k + 1, :2] - cand[:2]).T) <= cluster_radius
        )
        if d <= cluster_radius and members_ok:
            centroid = cand
        else:
            close(start, k)
            start = k
            centroid = enu[k].copy()
    close(start, len(fixes))
    return clusters


def label_ground_truth(clusters, max_gap: float) -> GroundTruthPath:
    """Chain consecutive cluster centroids into a ground-truth polyline.

    Keeps the longest run of consecutive clusters whose centroid spacing
    stays within ``max_gap`` meters (earliest run wins ties); each path
    point carries the cluster's mid-dwell timestamp.  This deterministic
    rule stands in for manual labeling.

    Raises DataError when fewer than two clusters qualify.
    """
    clusters = list(clusters)
    if len(clusters) < 2:
        raise DataError("need at least 2 clusters to label a ground-truth path")

    # Longest run of adjacent clusters with spacing <= max_gap.
    best = (0, 1)  # (start, length)
    run_start = 0
    for i in range(1, len(clusters)):
        gap = np.hypot(
            *(clusters[i].centroid[:2] - clusters[i - 1].centroid[:2])
        )
        if gap > max_gap:
            run_start = i
        if i - run_start + 1 > best[1]:
            best = (run_start, i - run_start + 1)
    start, length = best
    if length < 2:
        raise DataError(
            f"no two consecutive clusters within max_gap={max_gap} m"
        )
    chain = clusters[start : start + length]
    t = np.array([0.5 * (c.start_t + c.end_t) for c in chain])
    enu = np.array([c.centroid for c in chain])
    return GroundTruthPath(t=t, enu=enu, ref=chain[0].ref)
