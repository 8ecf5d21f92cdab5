import dataclasses
import hashlib
import importlib.resources
import os
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import cli, geo, sim
from fusenav.core import CHANNELS, MAX_ACCEL, MAX_GYRO, DataError, GpsFix, ImuLog, SonarChannel, SonarLog
from fusenav.localizer import MAX_IMU_DT, CalibrationOffsets

WALK110 = importlib.resources.files("fusenav") / "scenarios" / "walk110.cfg"
CITY = Path(__file__).resolve().parents[1] / "perfbench" / "city.cfg"

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


def read_est(path):
    return cli.read_pose_csv(path, "est")


# file name -> (reader, header, two valid data rows)
CSV_SAMPLES = {
    "imu.csv": (
        cli.read_imu_csv,
        "t,ax,ay,az,gx,gy,gz",
        ["0.0,0,0,-9.8,0,0,0", "0.01,0.5,0,-9.8,0,0,1e-3"],
    ),
    "gps.csv": (
        cli.read_gps_csv,
        "t,lat,lon,alt",
        ["0.0,37.0,-122.0,30.0", "1.0,37.00001,-122.0,30.5"],
    ),
    "sonar.csv": (
        cli.read_sonar_csv,
        "t,channel,range,valid",
        ["0.0,front,2.0,1", "0.1,left,4.0,0"],
    ),
    "est.csv": (
        read_est,
        "t,e,n,u,ve,vn,vu,qw,qx,qy,qz",
        ["0.0,0,0,0,0,0,0,1,0,0,0", "0.1,1,0,0,0,0,0,1,0,0,0"],
    ),
}


def same_result(a, b) -> bool:
    """Equal reader results: a list of fixes, or a dataclass of columns."""
    if isinstance(a, list):
        return a == b
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(a)
    )


@pytest.fixture(autouse=True)
def no_child_left():
    """No command leaves a child process behind: ``run`` waits for the
    children that write its files, on success and on error."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    @pytest.mark.parametrize(
        "name, text",
        [
            ("walk.cfg", "route = 0,0 ; 10,0\nwarp_speed = 9\n"),
            # a misspelt key would leave its offset at zero
            (
                "offsets.cfg",
                "accel_offset = 0, 0, 0\ngyro_offset = 0, 0, 0\naccel_ofset = 1, 2, 3\n",
            ),
        ],
        ids=["walk.cfg", "offsets.cfg"],
    )
    def test_unknown_key_rejected_with_line(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        load = cli.read_offsets_cfg if name == "offsets.cfg" else cli.load_scenario
        line = text.count("\n")
        key = text.splitlines()[-1].split(" =")[0]
        with pytest.raises(DataError, match=rf"{name}:{line}: unknown key '{key}'"):
            load(path)

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

    def test_lines_end_at_lf_only(self, tmp_path):
        # a form feed stays inside its comment and does not shift line numbers
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"route = 0,0 ; 10,0\r\n# page \x0c break\r\nspeed = fast\r\n")
        with pytest.raises(DataError, match=r"bad\.cfg:3: key 'speed'"):
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
            ("walk.cfg", "route", "0, 0 ; 10, 0 ; 0, 0.5"),
            ("walk.cfg", "route", "0, 0 ; 10, 0 ; 10, 0.4 ; 20, 0.4"),
            ("walk.cfg", "accel_sigma", "-0.25"),
            ("walk.cfg", "gyro_sigma", "-0.025"),
            # IMU noise beyond full scale, 16 g and 2000 deg/s (and one that overflows)
            ("walk.cfg", "accel_sigma", "156.91"),
            ("walk.cfg", "accel_sigma", "1e200"),
            ("walk.cfg", "gyro_sigma", "34.91"),
            ("walk.cfg", "gyro_sigma", "1e10"),
            ("walk.cfg", "gps_sigma", "-1"),
            # a horizontal sigma wider than the Earth: it carries no position, and
            # 1e160 and 1e200 overflow the filter, 1e308 the simulated fixes
            ("walk.cfg", "gps_sigma", "6378137.000001"),
            ("walk.cfg", "gps_sigma", "1e160"),
            ("walk.cfg", "gps_sigma", "1e200"),
            ("walk.cfg", "gps_sigma", "1e308"),
            ("walk.cfg", "sonar_sigma", "-0.003"),
            # a ranging sigma wider than max_range = 4 (and one that overflows)
            ("walk.cfg", "sonar_sigma", "4.000001"),
            ("walk.cfg", "sonar_sigma", "1e308"),
            # plain decimal only, though float() and int() read these
            ("walk.cfg", "speed", "1_5"),
            ("walk.cfg", "anchor", "37.0, -122.0, \u0663\u0660"),
            ("walk.cfg", "seed", "4_2"),
            ("walk.cfg", "seed", "\u0664"),
            ("walk.cfg", "seed", "-1"),  # the generators take no negative seed
            ("walk.cfg", "front_sensors", "1"),
            ("walk.cfg", "speed", "-1"),
            ("walk.cfg", "imu_rate", "-5"),
            ("walk.cfg", "imu_rate", "1e300"),
            # 110 m at 1.52 m/s: 1.0000013e7 samples, just above the cap
            ("walk.cfg", "imu_rate", "138182"),
            # the 0.1 s tick grids of these rates have steps above 0.1 s
            ("walk.cfg", "imu_rate", "10"),
            ("walk.cfg", "imu_rate", "10.000000000000002"),
            ("walk.cfg", "gps_rate", "0"),
            ("walk.cfg", "gps_rate", "1e300"),
            ("walk.cfg", "gps_rate", "200"),  # faster than imu_rate = 100
            ("walk.cfg", "anchor", "100, 0, 0"),
            ("walk.cfg", "obstacles", "30, 0.3, -0.25"),
            ("walk.cfg", "dropoffs", "93, 90, 0.5"),  # start after end
            # a floor raised to the 1.0 m belt or above it
            ("walk.cfg", "dropoffs", "90, 93, -1.5"),
            ("walk.cfg", "dropoffs", "90, 93, -1.0"),
            ("walk.cfg", "gps_dropouts", "30, 20"),
            # biases beyond the IMU's full scale, as for the offsets below
            ("walk.cfg", "accel_bias", "1000, 0, 0"),
            ("walk.cfg", "gyro_bias", "0, 0, 1e300"),
            ("offsets.cfg", "accel_offset", "1, 2"),
            ("offsets.cfg", "accel_offset", "nan, 0, 0"),
            # beyond the IMU's full scale, which no reading through the sensor can show
            ("offsets.cfg", "accel_offset", "1000, 0, 0"),
            ("offsets.cfg", "gyro_offset", "1e200, 0, 0"),
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
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"{name}:{len(lines)}: key '{key}'"):
            load(path)
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_DATA

    def test_imu_sigmas_load_at_full_scale(self, tmp_path):
        path = tmp_path / "walk.cfg"
        keys = ("accel_sigma =", "gyro_sigma =")
        lines = [line for line in WALK110.read_text().splitlines() if not line.startswith(keys)]
        lines += [f"accel_sigma = {MAX_ACCEL!r}", f"gyro_sigma = {MAX_GYRO!r}"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        noise = cli.load_scenario(path).noise
        assert (noise.accel_sigma, noise.gyro_sigma) == (MAX_ACCEL, MAX_GYRO)
        assert (MAX_ACCEL, MAX_GYRO) == (16 * 9.80665, 34.90658503988659)  # 16 g, 2000 deg/s
        # offsets take the same bounds, closed
        path = tmp_path / "offsets.cfg"
        cli.write_offsets_cfg(path, CalibrationOffsets(np.full(3, -MAX_ACCEL), np.full(3, MAX_GYRO)))
        offsets = cli.read_offsets_cfg(path)
        assert offsets.accel_offset.tolist() == [-MAX_ACCEL] * 3
        assert offsets.gyro_offset.tolist() == [MAX_GYRO] * 3

    def test_admitted_imu_rates_keep_grid_steps_within_bound(self, tmp_path):
        # the floats around the lowest rate load_scenario admits
        lowest = 1.0 / (MAX_IMU_DT * (1.0 - 1e-8))
        rates = [10.0, 10.000000000000002, 10.0000001, 10.00000011, 10.0000002, 10.5]
        below = above = lowest
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            rates += [float(below), float(above)]
        base = [ln for ln in WALK110.read_text().splitlines() if not ln.startswith("imu_rate =")]
        admitted = 0
        for rate in [lowest, *rates]:
            path = tmp_path / "walk.cfg"
            path.write_text("\n".join([*base, f"imu_rate = {rate!r}"]) + "\n")
            try:
                scenario = cli.load_scenario(path)
            except DataError:
                assert rate < lowest
                continue
            admitted += 1
            assert np.diff(sim.gen_walk(scenario).t).max() <= MAX_IMU_DT, rate
        assert admitted == 8


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
            # not plain decimal, though float() reads each
            ("0.1,1_0,0,-9.8,0,0,0", "ax"),
            ("0.1,0, 1 ,-9.8,0,0,0", "ay"),
            ("0.1,0,0,-9.8,0,0,\u0661", "gz"),
        ],
    )
    def test_bad_imu_rows_rejected(self, tmp_path, tiny_streams, row, column):
        _, gps = tiny_streams
        path = tmp_path / "bad" / "imu.csv"
        path.parent.mkdir()
        path.write_text(f"t,ax,ay,az,gx,gy,gz\n0.05,0,0,-9.8,0,0,0\n{row}\n", encoding="utf-8")
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
            (0.1, SonarChannel.RIGHT, -1.0, False),  # no echo: its range is not checked
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
            ("0.1,front,2.0,0.5", "valid"),
            ("0.1,front,2.0,7", "valid"),
            ("0.1,front,2.0,-3", "valid"),
            ("0.1,front,2.0,", "valid"),
            ("0.1,back,2.0,1", "channel"),
            ("0.1,front,-1.0,1", "range"),  # an echo needs a positive range
            ("0.1,left,0.0,1", "range"),
            ("0.1,front,1_0,1", "range"),
            (" 0.1 ,front,2.0,1", "t"),
            ("0.1,front,\u0661,1", "range"),
        ],
    )
    def test_bad_sonar_rows_rejected(self, tmp_path, capsys, row, column):
        path = tmp_path / "sonar.csv"
        path.write_text(f"t,channel,range,valid\n0.05,front,2.0,1\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"sonar\.csv:3: column '{column}'"):
            cli.read_sonar_csv(path)
        assert (
            cli.main(["fuse-sonar", "--sonar", str(path), "--out", str(tmp_path)])
            == cli.EXIT_DATA
        )
        assert f"sonar.csv:3: column '{column}'" in capsys.readouterr().err

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


class TestReaderContract:
    """What every CSV reader accepts and how it reports what it does not."""

    @pytest.mark.parametrize("name", CSV_SAMPLES)
    def test_blank_line_is_a_column_count_error(self, tmp_path, name):
        read, header, rows = CSV_SAMPLES[name]
        columns = len(header.split(","))
        path = tmp_path / name
        path.write_text(f"{header}\n{rows[0]}\n\n{rows[1]}\n")
        with pytest.raises(DataError, match=rf"{name}:3: expected {columns} columns, got 0"):
            read(path)
        path.write_text(f"{header}\n{rows[0]}\n{rows[1]}\n\n")
        with pytest.raises(DataError, match=rf"{name}:4: expected {columns} columns, got 0"):
            read(path)

    @pytest.mark.parametrize("name", CSV_SAMPLES)
    def test_crlf_reads_like_lf(self, tmp_path, name):
        read, header, rows = CSV_SAMPLES[name]
        lf, crlf = tmp_path / "lf" / name, tmp_path / "crlf" / name
        lf.parent.mkdir()
        crlf.parent.mkdir()
        lf.write_bytes("\n".join([header, *rows, ""]).encode())
        crlf.write_bytes("\r\n".join([header, *rows, ""]).encode())
        assert same_result(read(crlf), read(lf))

    @pytest.mark.parametrize("name", CSV_SAMPLES)
    def test_last_line_needs_no_line_end(self, tmp_path, name):
        read, header, rows = CSV_SAMPLES[name]
        ended, open_end = tmp_path / "a" / name, tmp_path / "b" / name
        ended.parent.mkdir()
        open_end.parent.mkdir()
        ended.write_text("\n".join([header, *rows, ""]))
        open_end.write_text("\n".join([header, *rows]))
        assert same_result(read(open_end), read(ended))

    @pytest.mark.parametrize("rows", [[], ["0.0,0,0,0,0,0,0,1,0,0,0"]])
    def test_pose_file_needs_two_rows(self, tmp_path, rows):
        path = tmp_path / "est.csv"
        path.write_text("\n".join(["t,e,n,u,ve,vn,vu,qw,qx,qy,qz", *rows, ""]))
        with pytest.raises(DataError, match=r"est\.csv: needs at least 2 data rows"):
            read_est(path)

    @pytest.mark.parametrize("name", CSV_SAMPLES)
    def test_quoted_cell_is_a_located_error(self, tmp_path, name):
        # Nothing is quoted: a quote is part of the cell, and "0.0" is no number.
        read, header, rows = CSV_SAMPLES[name]
        path = tmp_path / name
        quoted = rows[1].split(",")
        quoted[0] = f'"{quoted[0]}"'
        path.write_text("\n".join([header, rows[0], ",".join(quoted), ""]))
        with pytest.raises(DataError, match=rf"{name}:3: column 't': not a finite number"):
            read(path)

    @pytest.mark.parametrize("name", CSV_SAMPLES)
    def test_non_utf8_byte_names_its_row(self, tmp_path, name):
        read, header, rows = CSV_SAMPLES[name]
        path = tmp_path / name
        path.write_bytes(f"{header}\n{rows[0]}\n".encode() + b"0.1\xff\n")
        with pytest.raises(DataError, match=rf"{name}:3: not UTF-8 text"):
            read(path)

    def test_non_utf8_imu_exits_2_with_row(self, tmp_path, capsys):
        path = tmp_path / "imu.csv"
        path.write_bytes(b"t,ax,ay,az,gx,gy,gz\n0.0,0,0,-9.8,0,0,0\n0.01,0,0,-9.8,0,0,\xff\n")
        argv = ["calibrate", "--imu", str(path), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "imu.csv:3: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["walk.cfg", "offsets.cfg"])
    def test_non_utf8_key_value_file_exits_2_with_line(self, tmp_path, tiny_streams, capsys, name):
        path = tmp_path / name
        if name == "walk.cfg":
            path.write_bytes(b"# walk\nroute = 0,0 ; 10,0\nspeed = 1.\xff5\n")
            load = cli.load_scenario
            argv = ["simulate", "--scenario", str(path)]
        else:
            path.write_bytes(b"accel_offset = 0, 0, 0\ngyro_offset = 0, 0, \xff\n")
            load = cli.read_offsets_cfg
            imu, gps = tiny_streams
            argv = ["localize", "--imu", str(imu), "--gps", str(gps), "--offsets", str(path)]
        line = path.read_bytes().count(b"\n")
        with pytest.raises(DataError, match=rf"{name}:{line}: not UTF-8 text"):
            load(path)
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == cli.EXIT_DATA
        assert f"{name}:{line}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("column", cli.TRUTH_HEADER)
    @pytest.mark.parametrize("value", ["nan", "-inf", "oops", "1_0", " 1 ", "\u0661"])
    def test_pose_rejects_bad_value_in_any_column(self, tmp_path, column, value):
        header, rows = "t,e,n,u,ve,vn,vu,qw,qx,qy,qz", ["0.0,0,0,0,0,0,0,1,0,0,0"]
        cells = "0.1,1,0,0,0,0,0,1,0,0,0".split(",")
        cells[cli.TRUTH_HEADER.index(column)] = value
        est = tmp_path / "est.csv"
        text = "\n".join([header, *rows, ",".join(cells), "0.2,2,0,0,0,0,0,1,0,0,0", ""])
        est.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=rf"est\.csv:3: column '{column}'"):
            read_est(est)
        truth = tmp_path / "truth.csv"
        cli.write_pose_csv(truth, np.array([0.0, 0.2]), np.zeros((2, 3)), np.zeros((2, 3)),
                           np.tile([1.0, 0, 0, 0], (2, 1)))
        argv = ["evaluate", "--est", str(est), "--truth", str(truth), "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_DATA

    @pytest.mark.parametrize("block_end", [0, 1, 2])
    def test_errors_are_located_across_blocks(self, tmp_path, monkeypatch, block_end):
        # a block boundary just before, at or after the bad row changes nothing
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3 + block_end)
        path = tmp_path / "imu.csv"
        rows = [f"{0.01 * k!r},0,0,-9.8,0,0,0" for k in range(8)]
        rows[4] = "0.0,0,0,-9.8,0,0,0"  # earlier than the row above
        path.write_text("\n".join(["t,ax,ay,az,gx,gy,gz", *rows, ""]))
        with pytest.raises(DataError, match=r"imu\.csv:6: column 't': timestamps not sorted"):
            cli.read_imu_csv(path)

    def test_block_size_changes_no_byte(self, scenario_file, tmp_path, monkeypatch):
        whole, small = tmp_path / "whole", tmp_path / "small"
        argv = ["simulate", "--scenario", str(scenario_file), "--out"]
        assert cli.main([*argv, str(whole)]) == 0
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
        assert cli.main([*argv, str(small)]) == 0
        for name in ("imu.csv", "gps.csv", "sonar.csv", "truth.csv"):
            assert (small / name).read_bytes() == (whole / name).read_bytes(), name
        assert same_result(cli.read_sonar_csv(small / "sonar.csv"), cli.read_sonar_csv(
            whole / "sonar.csv"))

    def test_runs_of_equal_values_keep_the_sign_of_zero(self, tmp_path):
        path = tmp_path / "truth.csv"
        t = 0.1 * np.arange(8)
        e = np.array([0.0] * 4 + [-0.0] * 4)
        cli.write_pose_csv(path, t, np.column_stack([e, e, e]), np.zeros((8, 3)),
                           np.tile([1.0, 0, 0, 0], (8, 1)))
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.0"] * 4 + ["-0.0"] * 4
        assert np.array_equal(np.signbit(read_est(path).xyz[:, 0]), np.signbit(e))

    def test_text_that_needs_quoting_is_a_data_error(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        est = tmp_path / "a,b.csv"  # the report's est_label is the file's stem
        est.write_bytes((out / "truth.csv").read_bytes())
        argv = ["evaluate", "--est", str(est), "--truth", str(out / "truth.csv"), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "cannot write 'a,b' unquoted" in capsys.readouterr().err
        # no half-written report.csv and no temporary file left behind
        assert not (out / "report.csv").exists()
        assert {p.name for p in out.iterdir()} == {"gps.csv", "imu.csv", "sonar.csv", "truth.csv"}


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

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--seed", "-1"),  # the generators take no negative seed
            ("run", "--seed", "4_2"),
            ("simulate", "--seed", "\u0664"),
            ("localize", "--accel-noise", "inf"),
            ("localize", "--gyro-noise", "-0.5"),
            ("localize", "--gps-std", "nan"),
            # values whose squares or covariance overflowed, and each bound plus one ulp
            ("localize", "--accel-noise", "1e200"),
            ("localize", "--gyro-noise", "1e200"),
            ("localize", "--gps-std", "1e200"),
            ("localize", "--gps-std", "1.3e154"),
            ("localize", "--accel-noise", "1.3e155"),
            *(("localize", flag, repr(float(np.nextafter(bound, np.inf)))) for flag, bound in (
                ("--accel-noise", MAX_ACCEL), ("--gyro-noise", MAX_GYRO), ("--gps-std", geo.WGS84_A))),
            ("localize", "--ref", "37.0, -122.0, nan"),
            ("calibrate", "--tol", "nan"),
            ("calibrate", "--batch", "0"),
            ("calibrate", "--max-iter", "-5"),
        ],
    )
    def test_bad_numeric_flags_exit_1(self, tmp_path, tiny_streams, capsys, command, flag, value):
        imu, gps = tiny_streams
        inputs = {
            "simulate": ["--scenario", str(WALK110)],
            "run": ["--scenario", str(WALK110)],
            "localize": ["--imu", str(imu), "--gps", str(gps)],
            "calibrate": ["--imu", str(imu)],
        }[command]
        out = tmp_path / "o"
        assert cli.main([command, *inputs, flag, value, "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: fusenav") and f"argument {flag}: invalid" in err
        assert not out.exists()

    def test_gps_std_whose_square_is_zero_exits_1(self, tmp_path, tiny_streams, capsys):
        # a second fix on the anchor is applied before the first step, with S = std^2 alone:
        # 1e-200 squares to 0 (a singular S), 1e-160 to a positive subnormal
        imu, gps = tiny_streams
        imu.write_text(imu.read_text() + "0.02,0,0,-9.8,0,0,0\n")
        gps.write_text(gps.read_text() + "0.0,37.0,-122.0,30.0\n")
        argv = ["localize", "--imu", str(imu), "--gps", str(gps), "--out", str(tmp_path / "o")]
        assert cli.main([*argv, "--gps-std", "1e-200"]) == cli.EXIT_USAGE
        assert "argument --gps-std: invalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert cli.main([*argv, "--gps-std", "1e-160"]) == cli.EXIT_OK

    def test_localize_takes_every_noise_flag_at_its_bound(self, tmp_path, capsys):
        sim_out, out = tmp_path / "sim", tmp_path / "o"
        assert cli.main(["simulate", "--scenario", str(WALK110), "--out", str(sim_out)]) == 0
        argv = ["localize", "--imu", str(sim_out / "imu.csv"), "--gps", str(sim_out / "gps.csv")]
        argv += ["--accel-noise", repr(MAX_ACCEL), "--gyro-noise", repr(MAX_GYRO), "--gps-std", repr(geo.WGS84_A)]
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        assert "(72 fixes applied, 0 rejected)" in capsys.readouterr().out
        est = np.loadtxt(out / "est.csv", delimiter=",", skiprows=1)
        assert len(est) > 1000 and np.isfinite(est).all()

    @pytest.mark.parametrize(
        "key, value, code, want",
        [
            # the bench stream's mean does not settle within calibrate's tolerance
            ("accel_sigma", "5", cli.EXIT_NUMERICAL, "numerical failure: {}: keys 'accel_sigma', 'gyro_sigma': calibration"),
            ("gyro_sigma", "5", cli.EXIT_NUMERICAL, "numerical failure: {}: keys 'accel_sigma', 'gyro_sigma': calibration"),
            # about a third of the walk's gyro readings lie beyond full scale:
            # refused when the stream is simulated, before any file is written
            ("gyro_sigma", "34.9", cli.EXIT_DATA,
             "data error: {}: keys 'accel_bias', 'gyro_bias', 'accel_sigma', 'gyro_sigma': reading beyond full scale"),
        ],
        ids=["accel_sigma-5", "gyro_sigma-5", "gyro_sigma-34.9"],
    )
    def test_run_calibration_failure_names_the_keys(self, scenario_file, tmp_path, capsys, key, value, code, want):
        lines = [ln for ln in SHORT_SCENARIO.splitlines() if not ln.startswith(f"{key} =")]
        scenario_file.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == code
        assert want.format(scenario_file) in capsys.readouterr().err
        assert not (out / "est.csv").exists()
        assert out.exists() == (code == cli.EXIT_NUMERICAL)

    def test_run_takes_gps_sigma_at_its_bound(self, scenario_file, tmp_path):
        scenario_file.write_text(SHORT_SCENARIO.replace("gps_sigma = 1.5", "gps_sigma = 6378137"))
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "fault",
        ["gps_header_only", "gps_latitude_91", "gps_longitude_181", "imu_header_only",
         "imu_before_anchor", "one_front_row"],
    )
    def test_stream_faults_exit_2_naming_the_file(
        self, scenario_file, tmp_path, tiny_streams, capsys, fault
    ):
        imu, gps = tiny_streams
        argv = ["localize", "--imu", str(imu), "--gps", str(gps)]
        if fault == "gps_header_only":
            gps.write_text("t,lat,lon,alt\n")
            where, message = gps, "empty GPS stream: no fix to anchor the ENU frame"
        elif fault.startswith("gps_"):  # a fix off the globe, on file row 3
            row, message = {
                "gps_latitude_91": ("1.0,91.0,-122.0,30.0", "latitude out of range: 91.0"),
                "gps_longitude_181": ("1.0,37.0,181.0,30.0", "longitude out of range: 181.0"),
            }[fault]
            gps.write_text(gps.read_text() + row + "\n")
            where = f"{gps}:3"
        elif fault == "imu_header_only":
            imu.write_text("t,ax,ay,az,gx,gy,gz\n")
            where, message = imu, "empty IMU stream"
        elif fault == "imu_before_anchor":
            gps.write_text("t,lat,lon,alt\n1.0,37.0,-122.0,30.0\n")
            where, message = imu, "no IMU samples at or after the anchor fix"
        else:
            sim_out = tmp_path / "sim"
            assert cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(sim_out)]) == 0
            sonar = sim_out / "sonar.csv"
            lines = sonar.read_text().splitlines()
            first, second = [i for i, line in enumerate(lines) if ",front," in line][:2]
            t = float(lines.pop(first).split(",")[0])
            sonar.write_text("\n".join(lines) + "\n")
            argv = ["fuse-sonar", "--sonar", str(sonar)]
            # list index i is file row i + 1; the tick's other front row moved up by one
            where = f"{sonar}:{second}"
            message = f"unsupported sonar layout: 1 front ping(s) at t={t}; "
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_DATA
        assert f"data error: {where}: {message}" in capsys.readouterr().err
        assert not out.exists()  # refused before the output directory is made

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

    def test_unreadable_input_path_exits_2(self, tmp_path, capsys):
        argv = ["fuse-sonar", "--sonar", str(tmp_path), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"{tmp_path}: " in capsys.readouterr().err

    def test_calibrate_short_log_exits_2_with_path(self, tmp_path, capsys):
        # 500 stationary readings, where the first batch needs 1000
        path = tmp_path / "imu.csv"
        accel = np.tile([0.0, 0.0, -9.80665], (500, 1))
        cli.write_imu_csv(path, ImuLog(0.01 * np.arange(500), accel, np.zeros((500, 3))))
        out = tmp_path / "o"
        assert cli.main(["calibrate", "--imu", str(path), "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: calibration needs 1000 more readings but only 500 remain" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [("0.02,0,0,-9.8,1e200,0,0", "reading beyond full scale"), ("0.5,0,0,-9.8,0,0,0", "dt=")],
        ids=["huge_gyro", "gap"],
    )
    def test_localize_bad_imu_step_exits_2_with_row(
        self, tmp_path, tiny_streams, capsys, row, message
    ):
        imu, gps = tiny_streams
        imu.write_text(imu.read_text() + row + "\n")
        argv = ["localize", "--imu", str(imu), "--gps", str(gps), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"imu.csv:4: {message}" in err
        assert not (tmp_path / "out" / "est.csv").exists()

    def test_localize_reading_beyond_full_scale_exits_2_at_its_row(self, tmp_path, capsys):
        # readings that would overflow the state after the last of 111 samples
        # are refused at the first of them, data row 6
        sim_out, out = tmp_path / "sim", tmp_path / "o"
        argv = ["simulate", "--scenario", str(WALK110), "--gps", "off", "--out", str(sim_out)]
        assert cli.main(argv) == cli.EXIT_OK
        imu = sim_out / "imu.csv"
        header, *rows = imu.read_text().splitlines()
        rows = rows[:111]
        for i in range(5, 111):
            t, _, _, _, *gyro = rows[i].split(",")
            rows[i] = ",".join([t, "1.7e308", "1.7e308", "1.7e308", *gyro])
        imu.write_text("\n".join([header, *rows]) + "\n")
        argv = ["localize", "--imu", str(imu), "--gps", str(sim_out / "gps.csv"), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "imu.csv:7: reading beyond full scale" in capsys.readouterr().err
        assert not (out / "est.csv").exists()

    def test_run_bad_imu_sample_exits_2_with_row(self, tmp_path, capsys):
        # a bias that would rotate the simulated readings too far is refused
        # at its scenario line, before imu.csv or any other file is written
        path = tmp_path / "spin.cfg"
        lines = [ln for ln in WALK110.read_text().splitlines() if not ln.startswith("gyro_bias")]
        path.write_text("\n".join([*lines, "gyro_bias = 0, 0, 1e300"]) + "\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        where = f"{path}:{len(lines) + 1}: key 'gyro_bias'"
        assert f"data error: {where}: item '0, 0, 1e300' needs components within +-MAX_GYRO" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_simulated_reading_beyond_full_scale_exits_2_naming_the_keys(self, tmp_path, capsys, command):
        # a bias within full scale whose readings are not (z reads about
        # -9.8 - 156.9 m/s^2) is refused before the output directory is made
        path = tmp_path / "sink.cfg"
        lines = [ln for ln in WALK110.read_text().splitlines() if not ln.startswith("accel_bias")]
        path.write_text("\n".join([*lines, "accel_bias = 0, 0, -156.9"]) + "\n")
        out = tmp_path / "o"
        assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DATA
        keys = "keys 'accel_bias', 'gyro_bias', 'accel_sigma', 'gyro_sigma'"
        why = f"reading beyond full scale (accel +-{MAX_ACCEL} m/s^2, gyro +-{MAX_GYRO} rad/s)"
        assert capsys.readouterr().err == f"fusenav: data error: {path}: {keys}: {why} at t=0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "reading, where, message",
        [
            # a reading beyond full scale is refused at its row
            ("1000,0,-9.80665", "{imu}:2", f"reading beyond full scale (accel +-{MAX_ACCEL} m/s^2"),
            # readings within full scale whose offset is not, 150 + 9.80665 m/s^2 on z,
            # are refused in the words of the offsets.cfg reader
            ("0,0,150", "{out}/offsets.cfg",
             f"key 'accel_offset': item '0.0, 0.0, 159.80665' needs components within +-MAX_ACCEL = {MAX_ACCEL}"),
        ],
        ids=["ax_1000", "az_150"],
    )
    def test_calibrate_writes_no_offsets_that_localize_refuses(self, tmp_path, capsys, reading, where, message):
        imu, out = tmp_path / "imu.csv", tmp_path / "o"
        imu.write_text("t,ax,ay,az,gx,gy,gz\n" + "".join(f"{0.01 * i!r},{reading},0,0,0\n" for i in range(3000)))
        assert cli.main(["calibrate", "--imu", str(imu), "--out", str(out)]) == cli.EXIT_DATA
        assert f"data error: {where.format(imu=imu, out=out)}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, output",
        [
            ("simulate", "gps.csv"),
            ("calibrate", "offsets.cfg"),
            ("fuse-sonar", "fused.csv"),
            ("localize", "est.csv"),
            ("evaluate", "report.csv"),
            ("run", "est.csv"),  # written by a child process
        ],
    )
    @pytest.mark.parametrize("blocker", ["out_is_a_file", "out_under_a_file", "output_is_a_dir"])
    def test_unwritable_output_exits_2_with_path(
        self, scenario_file, tmp_path, capsys, command, output, blocker
    ):
        streams = tmp_path / "sim"
        assert cli.main(["simulate", "--scenario", str(scenario_file), "--out", str(streams)]) == 0
        still = tmp_path / "still.csv"
        accel = np.tile([0.0, 0.0, -9.80665], (200, 1))
        cli.write_imu_csv(still, ImuLog(0.01 * np.arange(200), accel, np.zeros((200, 3))))
        truth = str(streams / "truth.csv")
        inputs = {
            "simulate": ["--scenario", str(scenario_file)],
            "calibrate": ["--imu", str(still), "--batch", "100"],
            "fuse-sonar": ["--sonar", str(streams / "sonar.csv")],
            "localize": ["--imu", str(streams / "imu.csv"), "--gps", str(streams / "gps.csv")],
            "evaluate": ["--est", truth, "--truth", truth],
            "run": ["--scenario", str(scenario_file)],
        }
        file = tmp_path / "file"
        file.write_text("")
        out, path, why = {
            "out_is_a_file": (file, file, "File exists"),
            "out_under_a_file": (file / "o", file / "o", "Not a directory"),
            "output_is_a_dir": (tmp_path / "o", tmp_path / "o" / output, "Is a directory"),
        }[blocker]
        if blocker == "output_is_a_dir":
            path.mkdir(parents=True)
        argv = [command, *inputs[command], "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"data error: {path}: {why}\n" in capsys.readouterr().err
        assert list(tmp_path.glob("**/*.part")) == []

    def test_run_child_write_error_exits_2_with_path(self, tmp_path, capsys):
        # imu.csv is written by a child process; its os.replace fails
        out = tmp_path / "o"
        (out / "imu.csv").mkdir(parents=True)
        assert cli.main(["run", "--scenario", str(WALK110), "--out", str(out)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert f"data error: {out / 'imu.csv'}: Is a directory\n" in captured.err
        assert captured.out == ""  # no report table for a run that failed
        assert list(out.glob("*.part")) == []

    def test_run_checks_max_range_before_writing(self, tmp_path, capsys):
        path = tmp_path / "short_range.cfg"
        path.write_text(SHORT_SCENARIO + "max_range = 1.0\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path}: key 'max_range': threshold 2.0 for front outside" in err
        assert not out.exists()
        # simulate runs no detection
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "line, message, located",
        [
            # ground echo 4.24 m: every inclined reading is a no-echo
            ("belt_height = 3.0", "keys 'belt_height', 'inclined_depression_deg', 'max_range'", False),
            ("belt_height = 0.2", "keys 'belt_height', 'inclined_depression_deg', 'max_range'", False),
            # refused at load, so located at the key's line, the file's last
            ("imu_rate = 5", "key 'imu_rate': step 0.2 s above 0.099999999 s", True),
            # the 0.1 s tick grid has steps of 0.10000000000000003 s
            ("imu_rate = 10", "key 'imu_rate': step 0.1 s above 0.099999999 s", True),
            ("imu_rate = 10.000000000000002", "key 'imu_rate': step 0.09999999999999998 s", True),
        ],
    )
    def test_run_checks_scenario_before_writing(self, tmp_path, capsys, line, message, located):
        path = tmp_path / "walk.cfg"
        key = line.split(" =")[0]
        base = [x for x in WALK110.read_text().splitlines() if not x.startswith(f"{key} =")]
        path.write_text("\n".join(base + [line]) + "\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DATA
        where = f"{path}:{len(base) + 1}" if located else str(path)
        assert f"{where}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run"])
    @pytest.mark.parametrize(
        "drop, lines, message",
        [
            # 10^6 m at 1.52 m/s and 100 Hz: 65.8 M samples, (n, 3) arrays of 1.6 GB each
            ("imu_rate", ["route = 0, 0 ; 1000000, 0"], "key 'imu_rate' (default 100.0): above 15.2"),
            ("sonar_sigma", ["max_range = 0.002"], "key 'sonar_sigma' (default 0.003): above max_range"),
            # a route whose length overflows a float
            ("route", ["route = 0, 0 ; 1.7e308, 1.7e308"], "key 'route': route length overflows"),
            ("imu_rate", ["route = 0, 0 ; 1.7e308, 1.7e308"], "key 'route': route length overflows"),
            # 110 m in 1.1e-10 s, less than one 0.01 s IMU step
            ("speed", ["speed = 1e12"], "key 'speed': the 110.0 m route takes 1.1e-10 s"),
            # every fix of the 72.4 s walk dropped: none anchors the localizer
            ("gps_dropouts", ["gps_dropouts = 0, 100"],
             "key 'gps_dropouts': no GPS epoch of the 72.36842105263158 s walk"),
            ("route", ["route = 0, 0"], "key 'route': route needs at least 2 waypoints"),
            ("speed", ["speed = 1.52", "speed = 1.52"], "duplicate key 'speed'"),
        ],
        ids=["default_imu_rate", "default_sonar_sigma", "overflowing_route",
             "overflowing_route_default_imu_rate", "sub_step_walk", "every_gps_epoch_dropped",
             "one_waypoint_route", "duplicate_key"],
    )
    def test_scenario_bounds_refused_before_writing(
        self, tmp_path, capsys, command, drop, lines, message
    ):
        # the stated line goes last, so a located key is on the file's last line
        keys = tuple(f"{k} =" for k in {drop, *(line.split(" =")[0] for line in lines)})
        base = [x for x in WALK110.read_text().splitlines() if not x.startswith(keys)]
        path = tmp_path / "walk.cfg"
        path.write_text("\n".join(base + lines) + "\n")
        where = str(path) if "(default" in message else f"{path}:{len(base) + len(lines)}"
        with pytest.raises(DataError) as refused:  # first, so that no huge walk is simulated
            cli.load_scenario(path)
        assert str(refused.value).startswith(f"{where}: {message}")
        out = tmp_path / "o"
        assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DATA
        assert f"data error: {where}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_keeps_its_last_gps_epoch(self, tmp_path):
        # the window drops epochs 0 to 71 of walk110's 72.4 s walk, not 72
        path = tmp_path / "walk.cfg"
        path.write_text(WALK110.read_text() + "gps_dropouts = 0, 71.5\n")
        s = cli.load_scenario(path)
        epochs, keep = sim.gps_epochs(s.duration, s.gps_rate, s.gps_dropouts)
        assert epochs[keep].tolist() == [72.0]
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_run_rejects_one_front_sensor_before_writing(self, tmp_path, capsys):
        path = tmp_path / "walk.cfg"
        path.write_text(WALK110.read_text().replace("front_sensors = 2", "front_sensors = 1"))
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DATA
        assert f"{path}:25: key 'front_sensors'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_simulate_dmp_mode_draws_the_dmp_noise(self, scenario_file, tmp_path):
        out = tmp_path / "dmp"
        argv = ["simulate", "--scenario", str(scenario_file), "--mode", "dmp", "--out", str(out)]
        assert cli.main(argv) == 0
        sc = cli.load_scenario(scenario_file)
        truth = sim.gen_walk(sc)
        want = sim.synth_imu(truth, sc.noise.dmp_like(), sc.seed)
        got = cli.read_imu_csv(out / "imu.csv")
        for col in ("t", "accel", "gyro"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col
        # the scenario's own noise, with its biases, gives other readings
        raw = sim.synth_imu(truth, sc.noise, sc.seed)
        assert not np.array_equal(raw.accel, want.accel)

    @pytest.mark.parametrize("overrides", [[], ["--seed", "3"], ["--seed", "3", "--mode", "dmp"]])
    def test_overrides_build_the_route_in_no_extra_scenario(
        self, scenario_file, tmp_path, monkeypatch, overrides
    ):
        # the one Scenario and gen_walk build it
        builds = []
        build = sim._build_path
        monkeypatch.setattr(sim, "_build_path", lambda route: builds.append(route) or build(route))
        argv = ["simulate", "--scenario", str(scenario_file), *overrides, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        assert len(builds) == 2
        base = cli.load_scenario(scenario_file)
        want = dataclasses.replace(base, seed=3, noise=base.noise.dmp_like())
        assert cli.load_scenario(scenario_file, 3, "dmp") == want
        assert cli.load_scenario(scenario_file, 3) == dataclasses.replace(base, seed=3)
        # the file's own seed key is still read and refused
        bad = tmp_path / "bad.cfg"
        bad.write_text(SHORT_SCENARIO.replace("seed = 7", "seed = -1"))
        with pytest.raises(DataError, match=r"bad\.cfg:6: key 'seed'"):
            cli.load_scenario(bad, 3, "dmp")

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

    @pytest.mark.parametrize("scenario", [WALK110, CITY], ids=["walk110", "city"])
    def test_run_writes_what_simulate_and_localize_write(self, tmp_path, scenario):
        # run writes the streams and est.csv from child processes: no byte changes
        run, streams, est = tmp_path / "run", tmp_path / "sim", tmp_path / "est"
        common = ["--scenario", str(scenario), "--seed", "0"]
        assert cli.main(["run", *common, "--out", str(run)]) == 0
        assert cli.main(["simulate", *common, "--out", str(streams)]) == 0
        for name in ("truth.csv", "imu.csv", "gps.csv", "sonar.csv"):
            assert (run / name).read_bytes() == (streams / name).read_bytes(), name
        loaded = cli.load_scenario(scenario)
        cfg = cli._localizer_config(loaded.noise)
        argv = [
            "localize",
            "--imu", str(run / "imu.csv"),
            "--gps", str(run / "gps.csv"),
            "--offsets", str(run / "offsets.cfg"),
            "--ref", ", ".join(map(repr, loaded.anchor)),
            "--accel-noise", repr(cfg.accel_noise),
            "--gyro-noise", repr(cfg.gyro_noise),
            "--gps-std", repr(cfg.gps_pos_std),
            "--out", str(est),
        ]
        assert cli.main(argv) == 0
        assert (est / "est.csv").read_bytes() == (run / "est.csv").read_bytes()

    def test_run_writes_inline_without_fork(self, scenario_file, tmp_path, monkeypatch):
        # where os has no fork, run writes each file itself: the same bytes
        forked, inline = tmp_path / "forked", tmp_path / "inline"
        assert cli.main(["run", "--scenario", str(scenario_file), "--out", str(forked)]) == 0
        monkeypatch.delattr(os, "fork")
        assert cli.main(["run", "--scenario", str(scenario_file), "--out", str(inline)]) == 0
        names = sorted(path.name for path in forked.iterdir())
        assert len(names) == 9 and names == sorted(path.name for path in inline.iterdir())
        for name in names:
            assert (inline / name).read_bytes() == (forked / name).read_bytes(), name

    def test_run_reports_unspoken_audio(self, tmp_path, capsys):
        out = tmp_path / "city"
        assert cli.main(["run", "--scenario", str(CITY), "--seed", "0", "--out", str(out)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        prefix = "audio messages pending at end of run: "
        assert last.startswith(prefix) and int(last[len(prefix):]) > 0
        # the count is only reported: the scheduler is not polled again, so
        # feedback.csv keeps the bytes it had before the count was printed
        digest = hashlib.sha256((out / "feedback.csv").read_bytes()).hexdigest()
        assert digest == "742713a016923709195635e821db2c32031e645d007c65e9412b0329e2b3892b"
