import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import geo
from fusenav.core import DataError, GpsFix


def heikkinen_inverse(x, y, z):
    """Closed-form ECEF->geodetic (independent of the iterative inverse)."""
    a = 6378137.0
    b = a * (1 - 1 / 298.257223563)
    e2 = 1 - b * b / (a * a)
    ep2 = e2 / (1 - e2)
    big_e2 = a * a - b * b
    r = math.hypot(x, y)
    f = 54 * b * b * z * z
    g = r * r + (1 - e2) * z * z - e2 * big_e2
    c = e2 * e2 * f * r * r / (g * g * g)
    s = (1 + c + math.sqrt(c * c + 2 * c)) ** (1 / 3)
    p = f / (3 * (s + 1 / s + 1) ** 2 * g * g)
    q = math.sqrt(1 + 2 * e2 * e2 * p)
    r0 = -p * e2 * r / (1 + q) + math.sqrt(
        0.5 * a * a * (1 + 1 / q) - p * (1 - e2) * z * z / (q * (1 + q)) - 0.5 * p * r * r
    )
    u = math.hypot(r - e2 * r0, z)
    v = math.hypot(r - e2 * r0, z * b / a)
    z0 = b * b * z / (a * v)
    lat = math.degrees(math.atan((z + ep2 * z0) / r))
    lon = math.degrees(math.atan2(y, x))
    alt = u * (1 - b * b / (a * v))
    return lat, lon, alt


def test_equator_prime_meridian():
    # symmetry forces (a, 0, 0)
    assert_allclose(
        geo.wgs84_to_ecef(GpsFix(0, 0.0, 0.0, 0.0)), [6378137.0, 0.0, 0.0], atol=1e-9
    )


def test_pole_semi_minor_axis():
    ecef = geo.wgs84_to_ecef(GpsFix(0, 90.0, 0.0, 0.0))
    assert_allclose(ecef[:2], [0.0, 0.0], atol=1e-6)
    assert abs(ecef[2] - 6356752.3142) < 1e-3


def test_forward_matches_independent_closed_form_inverse():
    rng = np.random.default_rng(0)
    for _ in range(200):
        fix = GpsFix(
            0.0,
            rng.uniform(-85, 85),
            rng.uniform(-180, 180),
            rng.uniform(-100, 9000),
        )
        x, y, z = geo.wgs84_to_ecef(fix)
        lat, lon, alt = heikkinen_inverse(x, y, z)
        assert abs(lat - fix.lat) < 1e-9
        assert abs(lon - fix.lon) < 1e-9
        assert abs(alt - fix.alt) < 1e-6


@pytest.mark.parametrize("lat", [90.0, 60.0, 37.0, 0.0, -60.0])
def test_inverse_returns_python_floats(lat):
    # at |lat| >= 45 degrees the altitude takes its z / sin branch; 90 is the polar axis
    fix = GpsFix(0.0, lat, -122.0, 30.0)
    out = geo.ecef_to_wgs84(geo.wgs84_to_ecef(fix))
    assert [type(x) for x in out] == [float, float, float]  # np.float64 is a float subclass
    assert_allclose(out, (lat, 0.0 if lat == 90.0 else -122.0, 30.0), atol=1e-6)


def test_round_trip_10k_random_fixes():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        fix = GpsFix(
            0.0,
            rng.uniform(-90, 90),
            rng.uniform(-180, 180),
            rng.uniform(-100, 9000),
        )
        lat, lon, alt = geo.ecef_to_wgs84(geo.wgs84_to_ecef(fix))
        assert abs(lat - fix.lat) < 1e-9
        assert abs(lon - fix.lon) < 1e-9
        assert abs(alt - fix.alt) < 1e-6


def test_out_of_range_fix_rejected():
    with pytest.raises(DataError):
        GpsFix(0.0, 100.0, 0.0, 0.0)


def test_enu_reference_maps_to_origin():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    assert_allclose(geo.ecef_to_enu(geo.wgs84_to_ecef(ref), ref), 0.0, atol=1e-9)


def test_enu_small_displacement_tangent_plane():
    # 1 m due north of the reference at the equator: dlat = 1/M radians
    ref = GpsFix(0.0, 0.0, 0.0, 0.0)
    m_radius = 6378137.0 * (1 - geo.WGS84_E2)  # meridian curvature radius at equator
    north = GpsFix(0.0, math.degrees(1.0 / m_radius), 0.0, 0.0)
    enu = geo.wgs84_to_enu(north, ref)
    assert_allclose(enu, [0.0, 1.0, 0.0], atol=1e-6)


def test_enu_is_rigid():
    rng = np.random.default_rng(4)
    ref = GpsFix(0.0, 48.1, 11.5, 520.0)
    for _ in range(200):
        p1 = geo.wgs84_to_ecef(ref) + rng.standard_normal(3) * 500
        p2 = geo.wgs84_to_ecef(ref) + rng.standard_normal(3) * 500
        d_ecef = np.linalg.norm(p1 - p2)
        d_enu = np.linalg.norm(geo.ecef_to_enu(p1, ref) - geo.ecef_to_enu(p2, ref))
        assert abs(d_ecef - d_enu) < 1e-9 * max(d_ecef, 1.0)


def test_enu_to_enu_rebase_exact():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    target = GpsFix(0.0, 37.0003, -121.9996, 31.0)
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((50, 3)) * 100
    direct = np.array([geo.ecef_to_enu(geo.enu_to_ecef(p, ref), target) for p in pts])
    assert_allclose(geo.enu_to_enu(pts, ref, target), direct, atol=1e-9)


# fixes around walk110.cfg's anchor; frames at it, 0.1 degree away, far away,
# and above 45 degrees, where the inverse takes its other altitude branch
ANCHOR = GpsFix(0.0, 37.0, -122.0, 30.0)
FRAMES = [ANCHOR, GpsFix(0.0, 37.1, -122.0, 30.0), GpsFix(0.0, -33.9, 151.2, 40.0), GpsFix(0.0, 64.1, -21.9, 5.0)]


@pytest.mark.parametrize("ref", FRAMES, ids=["anchor", "near", "far", "north"])
def test_stream_conversions_equal_per_point_calls(ref):
    rng = np.random.default_rng(31)
    enu = rng.uniform(-300.0, 300.0, (400, 3)) * [1.0, 1.0, 0.05]
    enu[:20] = 0.0  # the frame's origin
    # the per-point conversions as written before streams: frame per call
    want = [geo.ecef_to_wgs84(geo.enu_to_ecef(p, ref)) for p in enu]
    assert geo.enu_to_wgs84(enu, ref) == want
    assert [geo.enu_to_wgs84(p, ref) for p in enu] == want
    fixes = [ANCHOR] + [GpsFix(float(i), *geo.enu_to_wgs84(p, ANCHOR)) for i, p in enumerate(enu)]
    want = np.array([geo.ecef_to_enu(geo.wgs84_to_ecef(f), ref) for f in fixes])
    for got in (geo.wgs84_to_enu(fixes, ref), np.array([geo.wgs84_to_enu(f, ref) for f in fixes])):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_empty_streams_convert_to_empty():
    assert geo.wgs84_to_enu([], ANCHOR).shape == (0, 3)
    assert geo.enu_to_wgs84(np.empty((0, 3)), ANCHOR) == []


def _fix_at(ref, e, n, t):
    lat, lon, alt = geo.enu_to_wgs84(np.array([e, n, 0.0]), ref)
    return GpsFix(t, lat, lon, alt)


def _dwell_walk_fixes(ref, stops, walk_speed=1.5, rate=2.0, jitter=0.5, seed=0):
    """Synthetic stop-and-go trace: dwell `dwell_s` at each stop, walk between."""
    rng = np.random.default_rng(seed)
    fixes = []
    t = 0.0
    prev = None
    for e, n, dwell_s in stops:
        if prev is not None:
            dist = math.hypot(e - prev[0], n - prev[1])
            steps = int(dist / walk_speed * rate)
            for k in range(1, steps + 1):
                frac = k / (steps + 1)
                fixes.append(
                    _fix_at(
                        ref,
                        prev[0] + frac * (e - prev[0]) + rng.normal(0, jitter),
                        prev[1] + frac * (n - prev[1]) + rng.normal(0, jitter),
                        t,
                    )
                )
                t += 1.0 / rate
        for _ in range(int(dwell_s * rate)):
            fixes.append(
                _fix_at(ref, e + rng.normal(0, jitter), n + rng.normal(0, jitter), t)
            )
            t += 1.0 / rate
        prev = (e, n)
    return fixes


def test_four_dwells_give_four_clusters():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    # four stops along a 230 m line, several seconds of standing at each;
    # min_dwell is above the ~2*radius/speed a walking leg spends in range
    stops = [(0, 0, 8), (75, 0, 8), (150, 0, 8), (230, 0, 8)]
    fixes = _dwell_walk_fixes(ref, stops)
    clusters = geo.cluster_waypoints(fixes, cluster_radius=3.0, min_dwell=5.0)
    assert len(clusters) == 4
    for cluster, (e, n, _) in zip(clusters, stops):
        # centroids live in the frame of the first fix of the stream
        expected = geo.wgs84_to_enu(_fix_at(ref, e, n, 0.0), cluster.ref)
        assert math.hypot(*(cluster.centroid[:2] - expected[:2])) < 1.5


def test_identical_fixes_one_cluster():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    fixes = [_fix_at(ref, 5.0, -2.0, t) for t in np.arange(0, 10, 0.5)]
    clusters = geo.cluster_waypoints(fixes, cluster_radius=3.0, min_dwell=3.0)
    assert len(clusters) == 1
    # all fixes identical, so in the stream's own frame the centroid is 0
    assert_allclose(clusters[0].centroid, [0.0, 0.0, 0.0], atol=1e-6)
    assert clusters[0].ref == fixes[0]


def test_continuous_walk_no_clusters():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    # steady 1.5 m/s walk; it crosses a 3 m-radius region in ~4 s < min_dwell
    fixes = [_fix_at(ref, 1.5 * t, 0.0, t) for t in np.arange(0, 60, 0.5)]
    assert geo.cluster_waypoints(fixes, cluster_radius=3.0, min_dwell=5.0) == []


def test_empty_input_empty_output():
    assert geo.cluster_waypoints([]) == []


def test_cluster_invariants_random_traces():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    rng = np.random.default_rng(77)
    for trial in range(20):
        stops = [
            (float(50 * i + rng.uniform(-5, 5)), float(rng.uniform(-5, 5)), 6)
            for i in range(4)
        ]
        fixes = _dwell_walk_fixes(ref, stops, jitter=0.8, seed=trial)
        radius = 3.0
        clusters = geo.cluster_waypoints(fixes, cluster_radius=radius, min_dwell=3.0)
        prev_end = -np.inf
        for c in clusters:
            assert c.start_t > prev_end  # pairwise time-disjoint, ordered
            prev_end = c.end_t
            for member in c.members:
                enu = geo.wgs84_to_enu(member, c.ref)
                assert math.hypot(*(enu[:2] - c.centroid[:2])) <= radius + 1e-9


def test_label_ground_truth_straight_line():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    stops = [(0, 0, 8), (75, 0, 8), (150, 0, 8), (230, 0, 8)]
    fixes = _dwell_walk_fixes(ref, stops)
    clusters = geo.cluster_waypoints(fixes, cluster_radius=3.0, min_dwell=5.0)
    path = geo.label_ground_truth(clusters, max_gap=100.0)
    assert len(path.t) == 4
    assert np.all(np.diff(path.t) > 0)
    assert_allclose(path.enu, [c.centroid for c in clusters], atol=1e-12)


def test_label_ground_truth_gap_rule():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    fixes = _dwell_walk_fixes(ref, [(0, 0, 8), (200, 0, 8)])
    clusters = geo.cluster_waypoints(fixes, cluster_radius=3.0, min_dwell=5.0)
    assert len(clusters) == 2
    with pytest.raises(DataError):
        geo.label_ground_truth(clusters, max_gap=50.0)


def test_label_ground_truth_needs_two_clusters():
    ref = GpsFix(0.0, 37.0, -122.0, 30.0)
    fixes = [_fix_at(ref, 0.0, 0.0, t) for t in np.arange(0, 10, 0.5)]
    clusters = geo.cluster_waypoints(fixes)
    with pytest.raises(DataError):
        geo.label_ground_truth(clusters, max_gap=10.0)
