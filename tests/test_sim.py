import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import geo, sim
from fusenav.core import CHANNELS, SonarChannel, quat_rotate

FRONT = CHANNELS.index(SonarChannel.FRONT)


def quiet_scenario(route, **kw):
    return sim.Scenario(route=route, noise=sim.NoiseConfig.quiet(), **kw)


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
            assert_allclose(quat_rotate(truth.q[k], [1, 0, 0]), [1, 0, 0], atol=1e-9)

    def test_square_route_returns_to_start(self):
        square = ((0, 0), (20, 0), (20, 20), (0, 20), (0, 0))
        truth = sim.gen_walk(quiet_scenario(square))
        assert_allclose(truth.p[-1], truth.p[0], atol=1e-6)
        # corner fillets shorten the path slightly
        assert truth.path_length < 80.0
        assert truth.path_length > 78.0

    def test_degenerate_waypoints_rejected(self):
        with pytest.raises(sim.ScenarioError):
            quiet_scenario(((0, 0), (0, 0)))

    def test_reversal_rejected(self):
        with pytest.raises(sim.ScenarioError):
            sim.gen_walk(quiet_scenario(((0, 0), (10, 0), (0, 0))))

    def test_short_segment_between_corners_rejected(self):
        with pytest.raises(sim.ScenarioError):
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
        log = sim.synth_imu(truth, sim.NoiseConfig.quiet(), seed=0)
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
        source = sim.stationary_imu_source(sim.NoiseConfig.quiet(), seed=0)
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
