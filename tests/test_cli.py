import importlib.resources

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import cli, sim
from fusenav.core import CHANNELS, DataError, GpsFix, ImuLog, SonarChannel, SonarLog
from fusenav.localizer import CalibrationOffsets

WALK110 = importlib.resources.files("fusenav") / "scenarios" / "walk110.cfg"

SHORT_SCENARIO = """\
# short test walk
route = 0, 0 ; 14, 0
speed = 1.4
imu_rate = 50
gps_rate = 1
seed = 7
accel_sigma = 0.1
gyro_sigma = 0.01
accel_bias = 0.02, -0.01, 0.005
gyro_bias = 0.001, 0, 0
gps_sigma = 1.5
sonar_sigma = 0.003
obstacles = 6, 0.3, 0.25
anchor = 37.0, -122.0, 30.0
"""


def sonar_log(*rows):
    """SonarLog from ``(t, channel, range, valid)`` rows."""
    t, channel, range_m, valid = zip(*rows)
    return SonarLog(
        t=np.array(t, dtype=float),
        channel=np.array([CHANNELS.index(c) for c in channel]),
        range_m=np.array(range_m, dtype=float),
        valid=np.array(valid, dtype=bool),
    )


def assert_same_log(a, b):
    for col in ("t", "channel", "range_m", "valid"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text(SHORT_SCENARIO)
    return path


@pytest.fixture
def tiny_streams(tmp_path):
    """A two-sample imu.csv and a one-fix gps.csv that localize accepts."""
    imu, gps = tmp_path / "imu.csv", tmp_path / "gps.csv"
    imu.write_text("t,ax,ay,az,gx,gy,gz\n0.0,0,0,-9.8,0,0,0\n0.01,0,0,-9.8,0,0,0\n")
    gps.write_text("t,lat,lon,alt\n0.0,37.0,-122.0,30.0\n")
    return imu, gps


class TestScenarioParsing:
    def test_load_bundled_fields(self, scenario_file):
        sc = cli.load_scenario(scenario_file)
        assert sc.route == ((0.0, 0.0), (14.0, 0.0))
        assert sc.speed == 1.4
        assert sc.seed == 7
        assert sc.obstacles == (sim.Obstacle(6.0, 0.3, 0.25),)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("route = 0,0 ; 10,0\nspeed = fast\n")
        with pytest.raises(DataError, match=r"bad\.cfg:2"):
            cli.load_scenario(path)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("route = 0,0 ; 10,0\nwarp_speed = 9\n")
        with pytest.raises(DataError, match=r"bad\.cfg:2.*warp_speed"):
            cli.load_scenario(path)

    def test_missing_route_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("speed = 1.0\n")
        with pytest.raises(DataError, match="route"):
            cli.load_scenario(path)

    def test_syntax_error_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("route = 0,0 ; 10,0\nnonsense line\n")
        with pytest.raises(DataError, match=r"bad\.cfg:2"):
            cli.load_scenario(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# header\n\nroute = 0,0 ; 5,0  # inline\n")
        assert cli.load_scenario(path).route == ((0.0, 0.0), (5.0, 0.0))

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("walk.cfg", "speed", "nan"),
            ("walk.cfg", "imu_rate", "nan"),
            ("walk.cfg", "anchor", "37.0, -122.0, nan"),
            ("walk.cfg", "belt_height", "inf"),
            ("walk.cfg", "belt_height", "0"),
            ("walk.cfg", "inclined_depression_deg", "0"),
            ("walk.cfg", "beam_half_angle_deg", "-5"),
            ("walk.cfg", "max_range", "0"),
            ("walk.cfg", "accel_sigma", "-0.25"),
            ("walk.cfg", "gyro_sigma", "-0.025"),
            ("walk.cfg", "gps_sigma", "-1"),
            ("walk.cfg", "sonar_sigma", "-0.003"),
            ("offsets.cfg", "accel_offset", "1, 2"),
            ("offsets.cfg", "accel_offset", "nan, 0, 0"),
        ],
    )
    def test_bad_numbers_rejected_with_key_context(
        self, tmp_path, tiny_streams, name, key, value
    ):
        path = tmp_path / name
        if name == "walk.cfg":
            base = WALK110.read_text()
            load = cli.load_scenario
            argv = ["simulate", "--scenario", str(path)]
        else:
            cli.write_offsets_cfg(path, CalibrationOffsets.zero())
            base = path.read_text()
            load = cli.read_offsets_cfg
            imu, gps = tiny_streams
            argv = ["localize", "--imu", str(imu), "--gps", str(gps), "--offsets", str(path)]
        # the key's line goes last, so its line number is the line count
        lines = [line for line in base.splitlines() if not line.startswith(f"{key} =")]
        lines.append(f"{key} = {value}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"{name}:{len(lines)}: key '{key}'"):
            load(path)
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_DATA


class TestCsvRoundTrips:
    def test_imu(self, tmp_path):
        k = np.arange(5)
        log = ImuLog(
            t=0.01 * k,
            accel=np.column_stack([0.1 * k, np.full(5, -1.0), np.full(5, 9.8)]),
            gyro=np.tile([0.0, 0.02, -0.3], (5, 1)),
        )
        path = tmp_path / "imu.csv"
        cli.write_imu_csv(path, log)
        back = cli.read_imu_csv(path)
        assert np.array_equal(log.t, back.t)
        assert_allclose(log.accel, back.accel, rtol=0, atol=0)
        assert_allclose(log.gyro, back.gyro, rtol=0, atol=0)

    def test_simulated_imu_byte_round_trip(self, scenario_file, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        again = tmp_path / "again.csv"
        cli.write_imu_csv(again, cli.read_imu_csv(out / "imu.csv"))
        assert again.read_bytes() == (out / "imu.csv").read_bytes()

    @pytest.mark.parametrize(
        "row, column",
        [
            ("nan,0,0,-9.8,0,0,0", "t"),
            ("inf,0,0,-9.8,0,0,0", "t"),
            ("0.01,0,0,-9.8,0,0,0", "t"),  # earlier than the row above
            ("0.1,nan,0,-9.8,0,0,0", "ax"),
            ("0.1,0,0,-inf,0,0,0", "az"),
            ("0.1,0,0,-9.8,inf,0,0", "gx"),
            ("0.1,0,0,-9.8,0,0,nan", "gz"),
        ],
    )
    def test_bad_imu_rows_rejected(self, tmp_path, tiny_streams, row, column):
        _, gps = tiny_streams
        path = tmp_path / "bad" / "imu.csv"
        path.parent.mkdir()
        path.write_text(f"t,ax,ay,az,gx,gy,gz\n0.05,0,0,-9.8,0,0,0\n{row}\n")
        with pytest.raises(DataError, match=rf"imu\.csv:3: column '{column}'"):
            cli.read_imu_csv(path)
        argv = ["localize", "--imu", str(path), "--gps", str(gps), "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_DATA

    def test_gps(self, tmp_path):
        fixes = [GpsFix(float(k), 37.0 + 1e-5 * k, -122.0, 30.0) for k in range(4)]
        path = tmp_path / "gps.csv"
        cli.write_gps_csv(path, fixes)
        assert cli.read_gps_csv(path) == fixes

    def test_sonar(self, tmp_path):
        log = sonar_log(
            (0.0, SonarChannel.FRONT, 2.0, True),
            (0.0, SonarChannel.INCLINED_LEFT, 1.41, True),
            (0.1, SonarChannel.LEFT, 4.0, False),
        )
        path = tmp_path / "sonar.csv"
        cli.write_sonar_csv(path, log)
        assert_same_log(cli.read_sonar_csv(path), log)

    def test_simulated_sonar_byte_round_trip(self, scenario_file, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        again = tmp_path / "again.csv"
        cli.write_sonar_csv(again, cli.read_sonar_csv(out / "sonar.csv"))
        assert again.read_bytes() == (out / "sonar.csv").read_bytes()

    @pytest.mark.parametrize(
        "row, column",
        [
            ("nan,front,2.0,1", "t"),
            ("0.01,front,2.0,1", "t"),  # earlier than the row above
            ("0.1,front,nan,1", "range"),
            ("0.1,front,inf,1", "range"),
            ("0.1,front,2.0,nan", "valid"),
            ("0.1,front,2.0,inf", "valid"),
        ],
    )
    def test_bad_sonar_rows_rejected(self, tmp_path, row, column):
        path = tmp_path / "sonar.csv"
        path.write_text(f"t,channel,range,valid\n0.05,front,2.0,1\n{row}\n")
        with pytest.raises(DataError, match=rf"sonar\.csv:3: column '{column}'"):
            cli.read_sonar_csv(path)
        assert (
            cli.main(["fuse-sonar", "--sonar", str(path), "--out", str(tmp_path)])
            == cli.EXIT_DATA
        )

    def test_offsets(self, tmp_path):
        offsets = CalibrationOffsets(np.array([0.1, -0.2, 0.3]), np.array([1e-3, 0.0, -2e-3]))
        path = tmp_path / "offsets.cfg"
        cli.write_offsets_cfg(path, offsets)
        back = cli.read_offsets_cfg(path)
        assert_allclose(back.accel_offset, offsets.accel_offset, rtol=0, atol=0)
        assert_allclose(back.gyro_offset, offsets.gyro_offset, rtol=0, atol=0)

    def test_schema_error_names_position(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0.0,1,2,3,4,5,oops\n")
        with pytest.raises(DataError, match=r"imu\.csv:2.*gz"):
            cli.read_imu_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("time,ax,ay,az,gx,gy,gz\n")
        with pytest.raises(DataError, match=r"imu\.csv:1"):
            cli.read_imu_csv(path)

    def test_unsorted_imu_rows_rejected(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0.02,0,0,-9.8,0,0,0\n0.01,0,0,-9.8,0,0,0\n"
        )
        with pytest.raises(DataError, match=r"imu\.csv:3.*not sorted"):
            cli.read_imu_csv(path)

    def test_unsorted_pose_rows_rejected(self, tmp_path):
        path = tmp_path / "est.csv"
        rows = ["t,e,n,u,ve,vn,vu,qw,qx,qy,qz"]
        rows.append("0.0,0,0,0,0,0,0,1,0,0,0")
        rows.append("0.0,1,0,0,0,0,0,1,0,0,0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"est\.csv:3"):
            cli.read_pose_csv(path, "est")


class TestExitCodes:
    def test_usage_errors_exit_1(self, tmp_path):
        assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
        assert cli.main(["simulate"]) == cli.EXIT_USAGE  # missing required flags
        assert (
            cli.main(
                ["simulate", "--scenario", "x", "--out", str(tmp_path), "--format", "json"]
            )
            == cli.EXIT_USAGE
        )

    def test_data_errors_exit_2(self, tmp_path):
        assert (
            cli.main(["simulate", "--scenario", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)])
            == cli.EXIT_DATA
        )
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert (
            cli.main(["evaluate", "--est", str(bad), "--truth", str(bad), "--out", str(tmp_path)])
            == cli.EXIT_DATA
        )

    def test_localize_non_finite_ref_exits_2(self, tmp_path, tiny_streams, capsys):
        imu, gps = tiny_streams
        argv = ["localize", "--imu", str(imu), "--gps", str(gps), "--out", str(tmp_path / "o")]
        assert cli.main([*argv, "--ref", "37.0, -122.0, nan"]) == cli.EXIT_DATA
        assert "--ref:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "est.csv").exists()

    def test_success_exit_0(self, scenario_file, tmp_path):
        assert cli.main(
            ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]
        ) == cli.EXIT_OK


class TestCommands:
    def test_simulate_outputs(self, scenario_file, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        for name in ("imu.csv", "gps.csv", "sonar.csv", "truth.csv"):
            assert (out / name).exists()
        truth = cli.read_pose_csv(out / "truth.csv", "truth")
        assert truth.t[-1] == pytest.approx(10.0, abs=1e-9)  # 14 m at 1.4 m/s

    def test_simulate_bundled_scenario_span(self, tmp_path):
        out = tmp_path / "walk110"
        assert cli.main(["simulate", "--scenario", str(WALK110), "--out", str(out)]) == 0
        truth = cli.read_pose_csv(out / "truth.csv", "truth")
        assert truth.t[-1] == pytest.approx(110.0 / 1.52, abs=1e-6)  # ~72.4 s
        assert truth.t[1] - truth.t[0] == pytest.approx(0.01)  # 100 Hz grid

    def test_simulate_gps_off_keeps_anchor_only(self, scenario_file, tmp_path):
        out = tmp_path / "off"
        assert (
            cli.main(
                ["simulate", "--scenario", str(scenario_file), "--out", str(out), "--gps", "off"]
            )
            == 0
        )
        fixes = cli.read_gps_csv(out / "gps.csv")
        assert len(fixes) == 1 and fixes[0].t == 0.0

    def test_simulate_seed_determinism(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(a), "--seed", "3"])
        cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(b), "--seed", "3"])
        for name in ("imu.csv", "gps.csv", "sonar.csv", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_calibrate_command(self, tmp_path):
        noise = sim.NoiseConfig(
            accel_sigma=0.02, gyro_sigma=0.002, accel_bias=(0.15, -0.1, 0.05),
            gyro_bias=(0.01, 0.0, -0.01),
        )
        source = sim.stationary_imu_source(noise, seed=4)
        accel, gyro = zip(*(source(1000) for _ in range(10)))
        log = ImuLog(0.01 * np.arange(10_000), np.concatenate(accel), np.concatenate(gyro))
        path = tmp_path / "imu.csv"
        cli.write_imu_csv(path, log)
        out = tmp_path / "cal"
        assert cli.main(["calibrate", "--imu", str(path), "--out", str(out)]) == 0
        offsets = cli.read_offsets_cfg(out / "offsets.cfg")
        assert_allclose(offsets.accel_offset, [0.15, -0.1, 0.05], atol=0.005)
        assert_allclose(offsets.gyro_offset, [0.01, 0.0, -0.01], atol=0.0005)

    def test_fuse_sonar_command(self, scenario_file, tmp_path):
        out = tmp_path / "sim"
        cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        assert (
            cli.main(["fuse-sonar", "--sonar", str(out / "sonar.csv"), "--out", str(out)]) == 0
        )
        text = (out / "fused.csv").read_text().splitlines()
        assert text[0] == "t,raw1,raw2,fused,p11,p22"
        assert len(text) > 1

    def test_fuse_sonar_single_sensor_layout_rejected(self, tmp_path):
        path = tmp_path / "sonar.csv"
        cli.write_sonar_csv(path, sonar_log((0.0, SonarChannel.FRONT, 2.0, True)))
        assert cli.main(["fuse-sonar", "--sonar", str(path), "--out", str(tmp_path)]) == cli.EXIT_DATA

    def test_localize_and_evaluate(self, scenario_file, tmp_path):
        out = tmp_path / "pipe"
        cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        assert (
            cli.main(
                [
                    "localize",
                    "--imu", str(out / "imu.csv"),
                    "--gps", str(out / "gps.csv"),
                    "--ref", "37.0, -122.0, 30.0",
                    "--gps-std", "1.5",
                    "--accel-noise", "0.1",
                    "--gyro-noise", "0.01",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "evaluate",
                    "--est", str(out / "est.csv"),
                    "--truth", str(out / "truth.csv"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        report = (out / "report.csv").read_text().splitlines()
        assert report[0].startswith("est_label,truth_label,mean_m")
        mean = float(report[1].split(",")[2])
        assert mean < 3.0

    def test_evaluate_no_overlap_exits_2(self, scenario_file, tmp_path):
        out = tmp_path / "sim"
        cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
        truth = cli.read_pose_csv(out / "truth.csv", "truth")
        shifted = out / "shifted.csv"
        cli.write_pose_csv(
            shifted,
            truth.t + 1e6,
            truth.xyz,
            np.zeros_like(truth.xyz),
            np.tile([1.0, 0, 0, 0], (len(truth.t), 1)),
        )
        assert (
            cli.main(
                ["evaluate", "--est", str(shifted), "--truth", str(out / "truth.csv"), "--out", str(out)]
            )
            == cli.EXIT_DATA
        )

    def test_run_pipeline_outputs(self, scenario_file, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        for name in (
            "imu.csv", "gps.csv", "sonar.csv", "truth.csv", "offsets.cfg",
            "fused.csv", "est.csv", "feedback.csv", "report.csv",
        ):
            assert (out / name).exists(), name
        feedback = (out / "feedback.csv").read_text().splitlines()
        assert feedback[0] == "t,kind,motor_or_priority,value"
        kinds = {line.split(",")[1] for line in feedback[1:]}
        assert "tactile" in kinds and "audio" in kinds
