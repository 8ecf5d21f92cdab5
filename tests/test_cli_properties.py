"""Property tests: any bytes in an input file give a value or a DataError.

A reader never ends in another exception, and ``cli.main`` on such a file
returns one of the documented exit codes (MacIver et al., "Hypothesis: a
new approach to property-based testing", JOSS 2019).
"""

import dataclasses
import importlib.resources
import math
import re
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fusenav import cli  # noqa: E402
from fusenav.core import DataError, SonarGeometry  # noqa: E402

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


# walk110.cfg's keys and values, and the belt geometry's keys at their defaults
WALK110 = importlib.resources.files("fusenav") / "scenarios" / "walk110.cfg"
WALK110_KEYS = {
    **dict(line.split(" = ", 1) for line in WALK110.read_text().splitlines() if " = " in line),
    **{f.name: repr(f.default) for f in dataclasses.fields(SonarGeometry)},
}
# (numbers per item, fewest items, most items) of each list key; other keys hold one number
ITEMS = {
    "route": (2, 2, 3), "obstacles": (3, 0, 2), "dropoffs": (3, 0, 2),
    "accel_bias": (3, 1, 1), "gyro_bias": (3, 1, 1), "anchor": (3, 1, 1),
}
# finite numbers, often at or near a bound of some key
NUMBERS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-12, 0.002, 0.003, 0.5, 1.0, 1.52, 2.0, 4.0, 10.0,
                     45.0, 100.0, 1e6, 1e12, 1.7e308, -1.0, -1.5]),
    st.floats(allow_nan=False, allow_infinity=False),
).map(repr)


@st.composite
def walk110_variants(draw, redraw=tuple(WALK110_KEYS), drop=True) -> list[tuple[str, str]]:
    """walk110.cfg's (key, value) pairs less a subset of keys (with ``drop``),
    with the values of up to three keys of ``redraw`` drawn anew."""
    keys = st.sampled_from(list(WALK110_KEYS))
    dropped = draw(st.sets(keys)) if drop else set()
    drawn = draw(st.sets(st.sampled_from(list(redraw)), max_size=3))
    pairs = []
    for key, value in WALK110_KEYS.items():
        if key in dropped:
            continue
        if key == "seed" and key in drawn:
            value = str(draw(st.integers(0, 2**64)))
        elif key in drawn:
            arity, fewest, most = ITEMS.get(key, (1, 1, 1))
            item = st.lists(NUMBERS, min_size=arity, max_size=arity).map(", ".join)
            value = " ; ".join(draw(st.lists(item, min_size=fewest, max_size=most)))
        pairs.append((key, value))
    return pairs


def cross_bounds_hold(s) -> bool:
    """The bounds that tie a scenario's keys together: 1 to 10^7 IMU samples
    over the route (to a rounding of the two ways to compute them), a GPS rate
    within the IMU rate, a ranging sigma within max_range and drop-off floors
    below the belt."""
    samples = sum(map(math.dist, s.route, s.route[1:])) / s.speed * s.imu_rate
    return (
        1.0 - 1e-12 <= samples <= 1e7 * (1.0 + 1e-12)
        and s.gps_rate <= s.imu_rate
        and s.noise.sonar_sigma <= s.geometry.max_range
        and all(z.depth > -s.geometry.belt_height for z in s.dropoffs)
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pairs=walk110_variants())
def test_walk110_variants_load_within_bounds_or_name_the_key(pairs):
    # each key on its own line, so its line number is its index + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "walk.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs))
        try:
            scenario = cli.load_scenario(path)
        except DataError as exc:
            where = re.escape(str(path))
            found = re.match(
                rf"{where}(?::(\d+))?: (?:key '(\w+)'( \(default )?|missing required key '(\w+)')",
                str(exc),
            )
            assert found, str(exc)
            line, key, default, missing = found.groups()
            stated = {k: i for i, (k, _) in enumerate(pairs, start=1)}
            if key in stated:
                assert (line, default) == (str(stated[key]), None), str(exc)
            else:
                assert line is None and (default or missing), str(exc)
            return
    assert cross_bounds_hold(scenario), pairs


# a bias within full scale whose walk110 readings are not: z reads about -9.8 - 156.9 m/s^2
SINK = [(k, "0, 0, -156.9" if k == "accel_bias" else v) for k, v in WALK110_KEYS.items()]


@settings(max_examples=12, deadline=None, derandomize=True)
@example(pairs=SINK)
@given(pairs=walk110_variants(redraw=("accel_bias", "gyro_bias", "accel_sigma", "gyro_sigma", "seed"), drop=False))
def test_walk110_noise_variants_replay_or_leave_no_files(pairs):
    # the route is walk110's, so every walk has its 7,238 rows: a run refuses its
    # noise keys (or their sum) before it writes, or its files replay as they are
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        path, out, replay = d / "walk.cfg", d / "out", d / "replay"
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs))
        code = cli.main(["run", "--scenario", str(path), "--out", str(out)])
        event(f"run exits {code}")
        assert code in {cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERICAL}
        if code == cli.EXIT_DATA:
            assert not out.exists()
        if code != cli.EXIT_OK:
            return
        for argv in (
            ["fuse-sonar", "--sonar", str(out / "sonar.csv")],
            ["localize", "--imu", str(out / "imu.csv"), "--gps", str(out / "gps.csv"),
             "--offsets", str(out / "offsets.cfg"), "--ref", WALK110_KEYS["anchor"]],
            ["evaluate", "--est", str(replay / "est.csv"), "--truth", str(out / "truth.csv")],
        ):
            assert cli.main([*argv, "--out", str(replay)]) == cli.EXIT_OK, argv
