"""Property tests: any bytes in an input file give a value or a DataError.

A reader never ends in another exception, and ``cli.main`` on such a file
returns one of the documented exit codes (MacIver et al., "Hypothesis: a
new approach to property-based testing", JOSS 2019).
"""

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fusenav import cli  # noqa: E402
from fusenav.core import DataError  # noqa: E402

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERICAL}
PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Cells near the readers' edges: numbers, non-finite and malformed ones,
# channel names, quotes, blanks and a few arbitrary strings.
CELLS = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "0.5", "7", "1e3", "90.5", "nan", "-inf", "1_0",
         "front", "left", "inclined_left", "", " ", '"0.0"', "0x1"]
    ),
    st.text(max_size=4),
)


def csv_bytes(header: list[str]):
    """Bytes that are a CSV file of ``header``'s shape, or close to one."""
    row = st.lists(CELLS, min_size=len(header) - 1, max_size=len(header) + 1).map(",".join)
    head = st.one_of(st.just(",".join(header)), st.text(max_size=12))
    text = st.tuples(head, st.lists(row, max_size=6), st.sampled_from(["\n", "\r\n", "\r"]))
    near = st.tuples(text.map(lambda x: (x[0] + x[2] + x[2].join(x[1])).encode()), st.binary(max_size=3))
    return st.one_of(near.map(b"".join), st.binary(max_size=200))


def scenario_bytes():
    value = st.one_of(CELLS, st.just("0, 0 ; 10, 0"), st.just("1, 2, 3"))
    key = st.one_of(st.sampled_from(["route", "speed", "anchor", "obstacles", "seed"]), st.text(max_size=6))
    line = st.one_of(st.tuples(key, value).map(" = ".join), st.text(max_size=10))
    text = st.lists(line, max_size=6).map("\n".join).map(str.encode)
    return st.one_of(st.tuples(text, st.binary(max_size=3)).map(b"".join), st.binary(max_size=200))


def read_est(path):
    return cli.read_pose_csv(path, "est")


TINY_IMU = b"t,ax,ay,az,gx,gy,gz\n0.0,0,0,-9.8,0,0,0\n0.01,0,0,-9.8,0,0,0\n"
TINY_GPS = b"t,lat,lon,alt\n0.0,37.0,-122.0,30.0\n"


def main_argv(name: str, path: Path, d: Path) -> list[str]:
    """A command that reads ``path`` as the file ``name``."""
    out = ["--out", str(d / "out")]
    if name == "imu.csv":
        return ["localize", "--imu", str(path), "--gps", str(d / "ok_gps.csv"), *out]
    if name == "gps.csv":
        return ["localize", "--imu", str(d / "ok_imu.csv"), "--gps", str(path), *out]
    if name == "sonar.csv":
        return ["fuse-sonar", "--sonar", str(path), *out]
    return ["evaluate", "--est", str(path), "--truth", str(path), *out]


CSV_READERS = {
    "imu.csv": (cli.read_imu_csv, cli.IMU_HEADER),
    "gps.csv": (cli.read_gps_csv, cli.GPS_HEADER),
    "sonar.csv": (cli.read_sonar_csv, cli.SONAR_HEADER),
    "est.csv": (read_est, cli.TRUTH_HEADER),
}


@pytest.mark.parametrize("name", CSV_READERS)
def test_csv_reader_gives_value_or_data_error(name):
    read, header = CSV_READERS[name]

    @PROPERTY
    @given(data=csv_bytes(header))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            path = d / name
            path.write_bytes(data)
            try:
                read(path)
            except DataError:
                pass
            (d / "ok_imu.csv").write_bytes(TINY_IMU)
            (d / "ok_gps.csv").write_bytes(TINY_GPS)
            assert cli.main(main_argv(name, path, d)) in EXIT_CODES

    check()


@PROPERTY
@given(data=scenario_bytes())
def test_load_scenario_gives_value_or_data_error(data):
    # cli.main is not run here: a scenario that parses may describe an
    # arbitrarily long walk, which simulate would then generate.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "walk.cfg"
        path.write_bytes(data)
        try:
            cli.load_scenario(path)
        except DataError:
            pass
