import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import cli, geo, sim
from fusenav.core import (
    CHANNELS,
    INCLINED_CHANNELS,
    DataError,
    GpsFix,
    SonarChannel,
    quat_to_matrix,
)

FRONT = CHANNELS.index(SonarChannel.FRONT)


# all noise and biases zero (perfect sensors)
QUIET = sim.NoiseConfig(0.0, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0.0)


def quiet_scenario(route, **kw):
    return sim.Scenario(route=route, noise=QUIET, **kw)


class TestGenWalk:
    def test_straight_110m_duration_and_endpoint(self):
        truth = sim.gen_walk(quiet_scenario(((0, 0), (110, 0))))
        assert truth.duration == pytest.approx(110.0 / 1.52, abs=1e-9)
        assert truth.duration == pytest.approx(72.368, abs=1e-2)
        assert_allclose(truth.p[-1], [110.0, 0.0, 0.0], atol=1e-6)
        assert_allclose(truth.p[0], [0.0, 0.0, 0.0], atol=1e-12)

    def test_single_segment_heading_east(self):
        truth = sim.gen_walk(quiet_scenario(((0, 0), (50, 0))))
        for k in range(0, len(truth.t), 500):
            assert_allclose(quat_to_matrix(truth.q[k]) @ [1, 0, 0], [1, 0, 0], atol=1e-9)

    def test_square_route_returns_to_start(self):
        square = ((0, 0), (20, 0), (20, 20), (0, 20), (0, 0))
        truth = sim.gen_walk(quiet_scenario(square))
        assert_allclose(truth.p[-1], truth.p[0], atol=1e-6)
        # corner fillets shorten the path slightly
        assert truth.path_length < 80.0
        assert truth.path_length > 78.0

    def test_degenerate_waypoints_rejected(self):
        with pytest.raises(DataError, match=r"degenerate \(repeated\) waypoint at \(0, 0\)"):
            quiet_scenario(((0, 0), (0, 0)))

    def test_reversal_rejected(self):
        with pytest.raises(DataError, match="corner at waypoint 1 turns 180 deg; near-reversals"):
            sim.gen_walk(quiet_scenario(((0, 0), (10, 0), (0, 0))))

    def test_short_segment_between_corners_rejected(self):
        with pytest.raises(DataError, match=r"segment 1 \(0.40 m\) too short to blend"):
            sim.gen_walk(quiet_scenario(((0, 0), (10, 0), (10, 0.4), (20, 0.4))))

    def test_kinematic_consistency_curved_route(self):
        route = ((0, 0), (30, 0), (30, 25), (5, 25))
        truth = sim.gen_walk(quiet_scenario(route))
        speed = 1.52
        # central differences on the uniform part of the tick grid
        n = len(truth.t) - 2
        fd = (truth.p[2:n] - truth.p[: n - 2]) / (
            truth.t[2:n, None] - truth.t[: n - 2, None]
        )
        err = np.linalg.norm(fd - truth.v[1 : n - 1], axis=1)
        assert err.max() < 1e-3 * speed

    def test_speed_magnitude_constant(self):
        truth = sim.gen_walk(quiet_scenario(((0, 0), (20, 0), (20, 20))))
        assert_allclose(np.linalg.norm(truth.v, axis=1), 1.52, atol=1e-12)


class TestSynthImu:
    def test_statics_zero_noise(self):
        truth = sim.gen_walk(quiet_scenario(((0, 0), (30, 0))))
        log = sim.synth_imu(truth, QUIET, seed=0)
        # constant-speed straight walk: same readings as standing still
        for k in range(0, len(log), len(log) // 7):
            assert_allclose(log.accel[k], [0.0, 0.0, -9.80665], atol=1e-9)
            assert_allclose(log.gyro[k], 0.0, atol=1e-12)

    def test_bias_applied(self):
        truth = sim.gen_walk(quiet_scenario(((0, 0), (10, 0))))
        noise = sim.NoiseConfig(
            accel_sigma=0.0,
            gyro_sigma=0.0,
            accel_bias=(0.1, 0.2, -0.3),
            gyro_bias=(0.01, -0.02, 0.03),
            gps_sigma=0.0,
            sonar_sigma=0.0,
        )
        log = sim.synth_imu(truth, noise, seed=0)
        assert_allclose(log.accel[0], np.array([0.0, 0.0, -9.80665]) + [0.1, 0.2, -0.3], atol=1e-9)
        assert_allclose(log.gyro[0], [0.01, -0.02, 0.03], atol=1e-12)

    def test_same_seed_identical_streams(self):
        truth = sim.gen_walk(quiet_scenario(((0, 0), (20, 0))))
        noise = sim.NoiseConfig()
        a = sim.synth_imu(truth, noise, seed=5)
        b = sim.synth_imu(truth, noise, seed=5)
        assert np.array_equal(a.accel, b.accel) and np.array_equal(a.gyro, b.gyro)

    def test_dmp_preset_scales_noise(self):
        noise = sim.NoiseConfig()
        dmp = noise.dmp_like()
        assert dmp.accel_sigma == pytest.approx(noise.accel_sigma / 5)
        assert dmp.gyro_sigma == pytest.approx(noise.gyro_sigma / 5)
        assert dmp.accel_bias == (0.0, 0.0, 0.0)
        assert dmp.gps_sigma == noise.gps_sigma


class TestSynthGps:
    def test_fix_count_inclusive_endpoints(self):
        # 123.12 m at 1.52 m/s is an exactly 81 s walk: fixes at t = 0..81
        sc = quiet_scenario(((0, 0), (123.12, 0)))
        truth = sim.gen_walk(sc)
        assert truth.duration == pytest.approx(81.0, abs=1e-12)
        fixes = sim.synth_gps(truth, sc.noise, 0, 1.0, sc.anchor_fix())
        assert len(fixes) == 82
        assert fixes[0].t == 0.0 and fixes[-1].t == 81.0

    def test_noiseless_fixes_on_route(self):
        sc = quiet_scenario(((0, 0), (40, 0)))
        truth = sim.gen_walk(sc)
        fixes = sim.synth_gps(truth, sc.noise, 0, 1.0, sc.anchor_fix())
        for f in fixes:
            enu = geo.wgs84_to_enu(f, sc.anchor_fix())
            expected = [np.interp(f.t, truth.t, truth.p[:, i]) for i in range(3)]
            assert_allclose(enu, expected, atol=1e-6)

    def test_noise_std_in_chi2_band(self):
        sc = sim.Scenario(route=((0, 0), (50, 0)), noise=sim.NoiseConfig(gps_sigma=3.0), seed=2)
        truth = sim.gen_walk(sc)
        fixes = sim.synth_gps(truth, sc.noise, sc.seed, 1.0, sc.anchor_fix())[:30]
        resid = np.array(
            [
                geo.wgs84_to_enu(f, sc.anchor_fix())[:2]
                - [np.interp(f.t, truth.t, truth.p[:, i]) for i in range(2)]
                for f in fixes
            ]
        )
        for axis in range(2):
            std = resid[:, axis].std(ddof=1)
            assert 2.1 <= std <= 3.9  # chi-square 95% band for n = 30

    def test_dropout_window_omits_fixes(self):
        sc = quiet_scenario(((0, 0), (40, 0)))
        truth = sim.gen_walk(sc)
        fixes = sim.synth_gps(
            truth, sc.noise, 0, 1.0, sc.anchor_fix(), dropout_windows=((5.0, 10.0),)
        )
        ts = [f.t for f in fixes]
        assert all(not 5.0 <= t <= 10.0 for t in ts)
        # a window covering everything leaves an empty stream
        assert (
            sim.synth_gps(
                truth, sc.noise, 0, 1.0, sc.anchor_fix(), dropout_windows=((0.0, 1e9),)
            )
            == []
        )


def _oracle_synth_gps(truth, noise, seed, rate, anchor, dropout_windows=()):
    """synth_gps as a loop over epochs: a draw, three interpolations and
    a geodetic conversion per epoch."""
    rng = np.random.default_rng([seed, sim._STREAM_GPS])
    epochs = np.arange(0.0, truth.duration + 1e-9, 1.0 / rate)
    fixes = []
    for t in epochs:
        if any(t0 <= t <= t1 for t0, t1 in dropout_windows):
            rng.standard_normal(2)
            continue
        enu = np.array([np.interp(t, truth.t, truth.p[:, i]) for i in range(3)])
        enu[:2] += noise.gps_sigma * rng.standard_normal(2)
        lat, lon, alt = geo.ecef_to_wgs84(geo.enu_to_ecef(enu, anchor))
        fixes.append(GpsFix(t=float(t), lat=lat, lon=lon, alt=alt))
    return fixes


@pytest.mark.parametrize("mode", ["raw", "dmp"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "cfg",
    [
        Path(sim.__file__).parent / "scenarios" / "walk110.cfg",
        Path(__file__).resolve().parents[1] / "perfbench" / "city.cfg",
    ],
    ids=["walk110", "city"],
)
def test_synth_gps_equals_per_epoch_loop(cfg, seed, mode):
    sc = cli.load_scenario(cfg)
    noise = sc.noise.dmp_like() if mode == "dmp" else sc.noise
    truth = sim.gen_walk(sc)
    args = (truth, noise, seed, sc.gps_rate, sc.anchor_fix(), sc.gps_dropouts)
    got, want = sim.synth_gps(*args), _oracle_synth_gps(*args)
    assert len(got) == len(want) and all(type(f.t) is float for f in got)
    for g, w in zip(got, want):
        assert_bitwise_equal(np.array(astuple(g)), np.array(astuple(w)), f"fix at t={w.t}")
    if sc.gps_dropouts:  # city's two windows drop fixes
        assert len(want) < len(np.arange(0.0, truth.duration + 1e-9, 1.0 / sc.gps_rate))


class TestSynthSonar:
    def test_obstacle_dead_ahead(self):
        sc = quiet_scenario(
            ((0, 0), (30, 0)), obstacles=(sim.Obstacle(1.75, 0.0, 0.25),)
        )
        truth = sim.gen_walk(sc)
        log = sim.synth_sonar(truth, sc)
        first_front = np.flatnonzero(log.channel == FRONT)[0]
        assert log.valid[first_front]
        assert log.range_m[first_front] == pytest.approx(1.5, abs=1e-9)

    def test_no_obstacles_forward_channels_silent(self):
        sc = quiet_scenario(((0, 0), (20, 0)))
        truth = sim.gen_walk(sc)
        log = sim.synth_sonar(truth, sc)
        for c, valid in zip(log.channel, log.valid):
            if CHANNELS[c] in (SonarChannel.FRONT, SonarChannel.LEFT, SonarChannel.RIGHT):
                assert not valid
            else:
                assert valid  # inclined channels always see the ground

    def test_inclined_ground_range(self):
        sc = quiet_scenario(((0, 0), (20, 0)))
        truth = sim.gen_walk(sc)
        expected = sc.geometry.expected_ground_range
        assert_allclose(
            truth.sonar_true[SonarChannel.INCLINED_LEFT], expected, atol=1e-9
        )

    def test_dropoff_zone_lengthens_ground_echo(self):
        sc = quiet_scenario(((0, 0), (20, 0)), dropoffs=(sim.DropoffZone(8.0, 12.0, 0.5),))
        truth = sim.gen_walk(sc)
        ranges = truth.sonar_true[SonarChannel.INCLINED_RIGHT]
        normal = sc.geometry.expected_ground_range
        lifted = 1.5 / math.sin(math.radians(45.0))
        in_zone = np.isclose(ranges, lifted, atol=1e-9)
        assert in_zone.any()
        assert np.isclose(ranges[~in_zone], normal, atol=1e-9).all()
        # the look-ahead foot point triggers slightly before the zone itself
        first = np.argmax(in_zone)
        look = math.cos(math.radians(25.0)) * 1.0 / math.tan(math.radians(45.0))
        assert truth.arclength[first] == pytest.approx(8.0 - look, abs=0.02)

    def test_front_pair_independent_noise(self):
        sc = sim.Scenario(
            route=((0, 0), (10, 0)),
            noise=sim.NoiseConfig(sonar_sigma=0.01),
            obstacles=(sim.Obstacle(12.0, 0.0, 0.5),),
            seed=3,
        )
        truth = sim.gen_walk(sc)
        log = sim.synth_sonar(truth, sc)
        front = np.flatnonzero(log.channel == FRONT)
        assert len(front) == 2 * len(truth.t)
        k = next(i for i in range(0, len(front), 2) if log.valid[front[i]])
        a, b = front[k], front[k + 1]
        assert log.t[a] == log.t[b] and log.valid[b]
        assert log.range_m[a] != log.range_m[b]  # independent draws per sensor

    def test_determinism(self):
        sc = sim.Scenario(route=((0, 0), (15, 0)), obstacles=(sim.Obstacle(9, 0.4, 0.3),), seed=8)
        truth = sim.gen_walk(sc)
        a, b = sim.synth_sonar(truth, sc), sim.synth_sonar(truth, sc)
        for col in ("t", "channel", "range_m", "valid"):
            assert np.array_equal(getattr(a, col), getattr(b, col))


class TestStationarySource:
    def test_reading_statics(self):
        source = sim.stationary_imu_source(QUIET, seed=0)
        accel, gyro = source(100)
        assert_allclose(accel, np.tile([0.0, 0.0, -9.80665], (100, 1)), atol=1e-9)
        assert_allclose(gyro, 0.0, atol=1e-12)

    def test_draws_advance_deterministically(self):
        a = sim.stationary_imu_source(sim.NoiseConfig(), seed=1)
        b = sim.stationary_imu_source(sim.NoiseConfig(), seed=1)
        a1, _ = a(50)
        a2, _ = a(50)
        b1, _ = b(50)
        b2, _ = b(50)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
        assert not np.array_equal(a1, a2)


class TestRaycast:
    """Beam-edge, range-edge and ordering rules of the sonar ray-cast.

    The walk heads east from the origin, so tick 0 stands at (0, 0) with
    every channel's boresight at its mounting azimuth.
    """

    @staticmethod
    def first_tick(channel, **kw):
        truth = sim.gen_walk(quiet_scenario(((0, 0), (10, 0)), **kw))
        return truth.sonar_true[channel][0]

    @pytest.mark.parametrize("offset, seen", [(-1e-6, True), (1e-6, False)])
    def test_beam_half_angle_edge(self, offset, seen):
        bearing = math.radians(15.0) + offset
        e, n = 2.0 * math.cos(bearing), 2.0 * math.sin(bearing)
        got = self.first_tick(SonarChannel.FRONT, obstacles=(sim.Obstacle(e, n, 0.1),))
        assert got == (math.hypot(e, n) - 0.1 if seen else math.inf)

    @pytest.mark.parametrize("offset, seen", [(-1e-6, True), (1e-6, False)])
    def test_max_range_edge(self, offset, seen):
        e = 0.1 + 4.0 + offset
        got = self.first_tick(SonarChannel.FRONT, obstacles=(sim.Obstacle(e, 0.0, 0.1),))
        assert got == (e - 0.1 if seen else math.inf)

    def test_inside_obstacle_reads_1mm(self):
        truth = sim.gen_walk(
            quiet_scenario(((0, 0), (10, 0)), obstacles=(sim.Obstacle(0.2, 0.0, 0.5),))
        )
        for channel in CHANNELS:
            assert truth.sonar_true[channel][0] == 1e-3, channel

    def test_nearer_of_two_obstacles_wins(self):
        far, near = sim.Obstacle(3.0, 0.0, 0.2), sim.Obstacle(2.0, 0.1, 0.2)
        for obstacles in ((far, near), (near, far)):
            got = self.first_tick(SonarChannel.FRONT, obstacles=obstacles)
            assert got == math.hypot(2.0, 0.1) - 0.2

    def test_first_listed_overlapping_dropoff_sets_ground_echo(self):
        # the look-ahead point of tick 0 sits 0.91 m ahead, inside both zones
        shallow, deep = sim.DropoffZone(0.0, 5.0, 0.3), sim.DropoffZone(0.5, 5.0, 0.8)
        sin_dep = math.sin(math.radians(45.0))
        for zones, depth in (((shallow, deep), 0.3), ((deep, shallow), 0.8)):
            for channel in INCLINED_CHANNELS:
                got = self.first_tick(channel, dropoffs=zones)
                assert got == (1.0 + depth) / sin_dep


# ---------------------------------------------------------------------------
# Reference implementation: the walk sampled one tick at a time and the
# ray-cast as a scalar tick x channel x obstacle loop.  gen_walk's columns
# must equal what these produce bit for bit, signs of zero included.


def _oracle_quat_multiply(a, b):
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def _oracle_level_heading_quat(heading_rad):
    half = 0.5 * heading_rad
    qz = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    return _oracle_quat_multiply(qz, [0.0, 1.0, 0.0, 0.0])


def _oracle_sample(prim, s):
    if isinstance(prim, sim._Line):
        return prim.start + s * prim._dir, prim.heading, 0.0
    x = np.interp(s, prim._table_s, prim._table_xy[:, 0])
    y = np.interp(s, prim._table_s, prim._table_xy[:, 1])
    heading = prim.entry_heading + float(prim._psi(np.array([s]))[0])
    u = s / prim.length
    kappa = 2.0 * prim.dtheta / prim.length * 0.5 * (1.0 - math.cos(2.0 * math.pi * u))
    return prim.entry + prim._rot @ np.array([x, y]), heading, kappa


def _oracle_sample_path(pieces, total_len, s):
    s = min(max(s, 0.0), total_len)
    lo, hi = 0, len(pieces) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pieces[mid][0] <= s:
            lo = mid
        else:
            hi = mid - 1
    start_s, prim = pieces[lo]
    return _oracle_sample(prim, min(s - start_s, prim.length))


def _oracle_gen_walk(scenario):
    pieces, total_len = sim._build_path(scenario.route)
    duration = total_len / scenario.speed
    dt = 1.0 / scenario.imu_rate
    n_grid = int(math.floor(duration / dt + 1e-9))
    t = np.arange(n_grid + 1) * dt
    if duration - t[-1] > 1e-9:
        t = np.append(t, duration)
    n = len(t)

    p = np.zeros((n, 3))
    v = np.zeros((n, 3))
    q = np.zeros((n, 4))
    a_nav = np.zeros((n, 3))
    omega = np.zeros((n, 3))
    heading = np.zeros(n)
    arclength = scenario.speed * t
    speed = scenario.speed
    for k in range(n):
        xy, th, kappa = _oracle_sample_path(pieces, total_len, arclength[k])
        p[k, :2] = xy
        heading[k] = th
        v[k] = (speed * math.cos(th), speed * math.sin(th), 0.0)
        theta_dot = kappa * speed
        a_nav[k] = (
            -speed * theta_dot * math.sin(th),
            speed * theta_dot * math.cos(th),
            0.0,
        )
        omega[k] = (0.0, 0.0, -theta_dot)
        q[k] = _oracle_level_heading_quat(th)

    return sim.GroundTruth(
        t=t,
        p=p,
        v=v,
        q=q,
        a_nav=a_nav,
        omega_body=omega,
        heading=heading,
        arclength=arclength,
        sonar_true=_oracle_raycast_sonar(scenario, p, heading, arclength),
        path_length=total_len,
        duration=duration,
    )


def _oracle_raycast_sonar(scenario, p, heading, arclength):
    geom = scenario.geometry
    n = len(heading)
    half_angle = math.radians(geom.beam_half_angle_deg)
    dep = math.radians(geom.inclined_depression_deg)
    azimuths = sim._channel_azimuths(geom)
    obstacles = scenario.obstacles

    out = {}
    for channel, az in azimuths.items():
        inclined = channel in (SonarChannel.INCLINED_LEFT, SonarChannel.INCLINED_RIGHT)
        ranges = np.full(n, np.inf)
        for k in range(n):
            beam_dir = heading[k] + az
            best = math.inf
            for obs in obstacles:
                de = obs.e - p[k, 0]
                dn = obs.n - p[k, 1]
                dist_c = math.hypot(de, dn)
                if dist_c <= obs.radius:
                    best = 1e-3
                    continue
                bearing = sim._wrap_angle(math.atan2(dn, de) - beam_dir)
                if abs(bearing) > half_angle:
                    continue
                horiz = dist_c - obs.radius
                slant = horiz / math.cos(dep) if inclined else horiz
                if slant < best:
                    best = slant
            if inclined:
                look = arclength[k] + math.cos(az) * geom.belt_height / math.tan(dep)
                h_eff = geom.belt_height
                for zone in scenario.dropoffs:
                    if zone.start_s <= look <= zone.end_s:
                        h_eff = geom.belt_height + zone.depth
                        break
                ground = h_eff / math.sin(dep)
                best = min(best, ground)
            if best <= geom.max_range:
                ranges[k] = best
        out[channel] = ranges
    return out


N_RANDOM_ROUTES = 24


def random_route_scenario(index):
    """A short multi-corner walk in a random direction, crowded with obstacles.

    Each route has 3-5 segments with turns of 11-126 degrees, 30-36
    obstacles (two of them on the route line, so the walk passes through
    them), three drop-off zones of which the first two overlap, and random
    sonar geometry; even indices carry a single front sensor.
    """
    rng = np.random.default_rng([20251018, index])
    heading = rng.uniform(-math.pi, math.pi)
    verts = [rng.uniform(-50.0, 50.0, 2)]
    for _ in range(rng.integers(3, 6)):
        step = rng.uniform(3.0, 5.0) * np.array([math.cos(heading), math.sin(heading)])
        verts.append(verts[-1] + step)
        heading += rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.2)
    length = sum(math.dist(a, b) for a, b in zip(verts, verts[1:]))

    def beside_route(offset_sigma):
        i = rng.integers(len(verts) - 1)
        a, b = verts[i], verts[i + 1]
        d = (b - a) / math.dist(a, b)
        along = a + rng.uniform(0.3, 0.7) * (b - a)
        return along + rng.normal(0.0, offset_sigma) * np.array([-d[1], d[0]])

    centers = [beside_route(1.2) for _ in range(rng.integers(28, 35))]
    centers += [beside_route(0.0) for _ in range(2)]
    obstacles = tuple(
        sim.Obstacle(float(e), float(n), float(rng.uniform(0.1, 0.4))) for e, n in centers
    )
    z0 = rng.uniform(0.0, length - 4.0)
    dropoffs = (
        sim.DropoffZone(z0, z0 + 2.0, float(rng.uniform(0.2, 0.8))),
        sim.DropoffZone(z0 + 1.0, z0 + 3.0, float(rng.uniform(0.2, 0.8))),
        sim.DropoffZone(*sorted(rng.uniform(0.0, length, 2)), float(rng.uniform(0.2, 0.8))),
    )
    geometry = sim.SonarGeometry(
        belt_height=rng.uniform(0.8, 1.2),
        inclined_depression_deg=rng.uniform(20.0, 70.0),
        inclined_azimuth_deg=rng.uniform(10.0, 40.0),
        beam_half_angle_deg=rng.uniform(5.0, 40.0),
        max_range=rng.uniform(1.5, 6.0),
    )
    return quiet_scenario(
        tuple(tuple(map(float, v)) for v in verts),
        speed=float(rng.uniform(1.2, 1.8)),
        imu_rate=float(rng.choice([50.0, 100.0])),
        obstacles=obstacles,
        dropoffs=dropoffs,
        geometry=geometry,
    )


def assert_bitwise_equal(got, want, name):
    assert got.shape == want.shape, name
    assert np.array_equal(got, want), name
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{name}: sign of zero"


class TestGenWalkMatchesScalarReference:
    TRUTH_ARRAYS = ("t", "p", "v", "q", "a_nav", "omega_body", "heading", "arclength")

    def assert_matches_reference(self, scenario):
        got, want = sim.gen_walk(scenario), _oracle_gen_walk(scenario)
        for name in self.TRUTH_ARRAYS:
            assert_bitwise_equal(getattr(got, name), getattr(want, name), name)
        assert got.sonar_true.keys() == want.sonar_true.keys()
        for channel, ranges in want.sonar_true.items():
            assert_bitwise_equal(got.sonar_true[channel], ranges, channel.value)
        assert (got.path_length, got.duration) == (want.path_length, want.duration)

    @pytest.mark.parametrize(
        "cfg",
        [
            Path(sim.__file__).parent / "scenarios" / "walk110.cfg",
            Path(__file__).resolve().parents[1] / "perfbench" / "city.cfg",
        ],
        ids=["walk110", "city"],
    )
    def test_bundled_and_bench_scenarios(self, cfg):
        self.assert_matches_reference(cli.load_scenario(cfg))

    @pytest.mark.parametrize("index", range(N_RANDOM_ROUTES))
    def test_random_routes(self, index):
        self.assert_matches_reference(random_route_scenario(index))

    def test_random_routes_reach_the_edge_branches(self):
        inside = overlap = 0
        for index in range(N_RANDOM_ROUTES):
            sc = random_route_scenario(index)
            truth = sim.gen_walk(sc)
            inside += any(np.any(r == 1e-3) for r in truth.sonar_true.values())
            geom = sc.geometry
            reach = geom.belt_height / math.tan(math.radians(geom.inclined_depression_deg))
            look = truth.arclength + reach * math.cos(math.radians(geom.inclined_azimuth_deg))
            first, second = sc.dropoffs[:2]
            overlap += np.any((second.start_s <= look) & (look <= first.end_s))
        assert inside == N_RANDOM_ROUTES
        assert overlap == N_RANDOM_ROUTES
