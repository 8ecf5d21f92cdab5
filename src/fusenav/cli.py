"""Command-line pipeline and all on-disk formats.

Commands::

    fusenav simulate   --scenario walk.cfg --out DIR [--seed N] [--mode raw|dmp] [--gps on|off]
    fusenav calibrate  --imu imu.csv --out DIR
    fusenav fuse-sonar --sonar sonar.csv --out DIR
    fusenav localize   --imu imu.csv --gps gps.csv --out DIR [--offsets offsets.cfg]
    fusenav evaluate   --est est.csv --truth truth.csv --out DIR
    fusenav run        --scenario walk.cfg --out DIR [...]

CSV schemas (header row mandatory, plain decimal, '.' radix):

    imu.csv      t,ax,ay,az,gx,gy,gz
    gps.csv      t,lat,lon,alt
    sonar.csv    t,channel,range,valid                (rows sorted by t)
    truth.csv    t,e,n,u,ve,vn,vu,qw,qx,qy,qz       (est.csv identical)
    fused.csv    t,raw1,raw2,fused,p11,p22
    feedback.csv t,kind,motor_or_priority,value

Scenario files are flat ``key = value`` text with ``#`` comments; list
values use ``;`` between items and ``,`` within (see scenarios/walk110.cfg).
Every command is deterministic given its inputs and seed, across
processes as well (no output depends on the hash seed).  Exit codes:
0 success, 1 usage, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import feedback as fb
from . import geo, metrics, perception, sim, sonar_ekf
from .core import CHANNELS, DataError, GpsFix, ImuLog, NumericalError, SonarLog
from .localizer import (
    CalibrationOffsets,
    LocalizerConfig,
    calibrate,
    run_localizer,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

IMU_HEADER = ["t", "ax", "ay", "az", "gx", "gy", "gz"]
GPS_HEADER = ["t", "lat", "lon", "alt"]
SONAR_HEADER = ["t", "channel", "range", "valid"]
TRUTH_HEADER = ["t", "e", "n", "u", "ve", "vn", "vu", "qw", "qx", "qy", "qz"]
FUSED_HEADER = ["t", "raw1", "raw2", "fused", "p11", "p22"]
FEEDBACK_HEADER = ["t", "kind", "motor_or_priority", "value"]
REPORT_HEADER = [
    "est_label",
    "truth_label",
    "mean_m",
    "peak_m",
    "relative_percent",
    "path_length_m",
    "n_points",
    "vertical_mean_m",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _finite_in(test, what: str):
    """A converter like _finite that also requires ``test(x)``; ``what``
    names the allowed range in the error."""

    def conv(text: str) -> float:
        x = _finite(text)
        if not test(x):
            raise ValueError(f"{text!r} is not {what}")
        return x

    return conv


# Geometry the ray-cast divides by and noise it scales: values outside
# these ranges crash the simulator or silently blind or flip a sensor.
_ANGLE_DEG = _finite_in(lambda x: 0.0 < x < 90.0, "in (0, 90) degrees")
_POSITIVE = _finite_in(lambda x: x > 0.0, "positive")
_SIGMA = _finite_in(lambda x: x >= 0.0, "non-negative")


# ---------------------------------------------------------------------------
# CSV reading/writing


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


class _CsvReader:
    """Header-checked row reader with file:row:column error context."""

    def __init__(self, path, header: list[str]):
        self.path = Path(path)
        self.header = header
        if not self.path.exists():
            raise DataError(f"{self.path}: file not found")
        with open(self.path, newline="") as f:
            self.rows = list(csv.reader(f))
        if not self.rows or self.rows[0] != header:
            raise DataError(
                f"{self.path}:1: expected header {','.join(header)}"
            )

    def __iter__(self):
        for i, row in enumerate(self.rows[1:], start=2):
            if len(row) != len(self.header):
                raise DataError(
                    f"{self.path}:{i}: expected {len(self.header)} columns, got {len(row)}"
                )
            yield i, dict(zip(self.header, row))

    def floats(self, row_no: int, row: dict, col: str) -> float:
        try:
            return _finite(row[col])
        except ValueError:
            raise DataError(
                f"{self.path}:{row_no}: column '{col}': not a finite number: {row[col]!r}"
            ) from None


def write_imu_csv(path, log: ImuLog) -> None:
    rows = np.column_stack((log.t, log.accel, log.gyro)).tolist()
    _write_csv(Path(path), IMU_HEADER, ([*map(_fmt, row)] for row in rows))


def read_imu_csv(path) -> ImuLog:
    reader = _CsvReader(path, IMU_HEADER)
    rows = []
    for i, row in reader:
        vals = [reader.floats(i, row, c) for c in IMU_HEADER]
        if rows and vals[0] < rows[-1][0]:
            raise DataError(f"{reader.path}:{i}: column 't': timestamps not sorted")
        rows.append(vals)
    cols = np.array(rows, dtype=float).reshape(-1, len(IMU_HEADER))
    return ImuLog(t=cols[:, 0], accel=cols[:, 1:4], gyro=cols[:, 4:7])


def write_gps_csv(path, fixes) -> None:
    _write_csv(
        Path(path),
        GPS_HEADER,
        ([_fmt(f.t), _fmt(f.lat), _fmt(f.lon), _fmt(f.alt)] for f in fixes),
    )


def read_gps_csv(path) -> list[GpsFix]:
    reader = _CsvReader(path, GPS_HEADER)
    out = []
    prev_t = -math.inf
    for i, row in reader:
        vals = [reader.floats(i, row, c) for c in GPS_HEADER]
        if vals[0] < prev_t:
            raise DataError(f"{reader.path}:{i}: column 't': timestamps not sorted")
        prev_t = vals[0]
        try:
            out.append(GpsFix(*vals))
        except DataError as exc:
            raise DataError(f"{reader.path}:{i}: {exc}") from None
    return out


def write_sonar_csv(path, log: SonarLog) -> None:
    names = [c.value for c in CHANNELS]
    columns = (log.t, log.channel, log.range_m, log.valid)
    rows = zip(*(col.tolist() for col in columns))
    _write_csv(
        Path(path),
        SONAR_HEADER,
        ([_fmt(t), names[c], _fmt(r), str(int(v))] for t, c, r, v in rows),
    )


def read_sonar_csv(path) -> SonarLog:
    reader = _CsvReader(path, SONAR_HEADER)
    index = {c.value: k for k, c in enumerate(CHANNELS)}
    t, channel, range_m, valid = [], [], [], []
    for i, row in reader:
        if row["channel"] not in index:
            raise DataError(
                f"{reader.path}:{i}: column 'channel': unknown channel {row['channel']!r}"
            )
        tk = reader.floats(i, row, "t")
        if t and tk < t[-1]:
            raise DataError(f"{reader.path}:{i}: column 't': timestamps not sorted")
        t.append(tk)
        channel.append(index[row["channel"]])
        range_m.append(reader.floats(i, row, "range"))
        valid.append(bool(int(reader.floats(i, row, "valid"))))
    return SonarLog(
        t=np.array(t, dtype=float),
        channel=np.array(channel, dtype=int),
        range_m=np.array(range_m, dtype=float),
        valid=np.array(valid, dtype=bool),
    )


def write_pose_csv(path, t, p, v, q) -> None:
    rows = (
        [_fmt(t[k]), *map(_fmt, p[k]), *map(_fmt, v[k]), *map(_fmt, q[k])]
        for k in range(len(t))
    )
    _write_csv(Path(path), TRUTH_HEADER, rows)


def read_pose_csv(path, label: str) -> metrics.Trajectory:
    reader = _CsvReader(path, TRUTH_HEADER)
    t, xyz = [], []
    prev_t = -math.inf
    for i, row in reader:
        tk = reader.floats(i, row, "t")
        if tk <= prev_t:
            raise DataError(f"{reader.path}:{i}: column 't': timestamps not increasing")
        prev_t = tk
        t.append(tk)
        xyz.append([reader.floats(i, row, c) for c in ("e", "n", "u")])
    if len(t) < 2:
        raise DataError(f"{reader.path}: needs at least 2 data rows")
    return metrics.Trajectory(t=np.array(t), xyz=np.array(xyz), label=label)


def write_offsets_cfg(path, offsets: CalibrationOffsets) -> None:
    with open(path, "w") as f:
        f.write("# IMU calibration offsets (subtract from raw readings)\n")
        f.write("accel_offset = " + ", ".join(map(_fmt, offsets.accel_offset)) + "\n")
        f.write("gyro_offset = " + ", ".join(map(_fmt, offsets.gyro_offset)) + "\n")


def read_offsets_cfg(path) -> CalibrationOffsets:
    kv = _KvFile(path)
    accel = kv.take("accel_offset", _parse_triple)
    gyro = kv.take("gyro_offset", _parse_triple)
    return CalibrationOffsets(np.array(accel), np.array(gyro))


# ---------------------------------------------------------------------------
# Scenario files

_REQUIRED = object()


class _KvFile:
    """Flat ``key = value`` file whose values are converted with file:line context."""

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.exists():
            raise DataError(f"{self.path}: file not found")
        self.entries: dict[str, str] = {}
        self.lines: dict[str, int] = {}
        for i, line in enumerate(self.path.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise DataError(f"{self.path}:{i}: expected 'key = value'")
            key, val = stripped.split("=", 1)
            key = key.strip()
            if key in self.entries:
                raise DataError(f"{self.path}:{i}: duplicate key '{key}'")
            self.entries[key] = val.strip()
            self.lines[key] = i

    def take(self, key: str, conv, default=_REQUIRED):
        """Remove ``key`` and return ``conv(value)``, or ``default`` if absent."""
        if key not in self.entries:
            if default is _REQUIRED:
                raise DataError(f"{self.path}: missing required key '{key}'")
            return default
        raw = self.entries.pop(key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise DataError(f"{self.path}:{self.lines[key]}: key '{key}': {exc}") from None


def _parse_tuple_list(value: str, arity: int):
    if not value:
        return ()
    out = []
    for item in value.split(";"):
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != arity:
            raise ValueError(f"expected {arity} comma-separated numbers per item")
        out.append(tuple(_finite(p) for p in parts))
    return tuple(out)


def _parse_triple(value: str):
    (triple,) = _parse_tuple_list(value, 3)
    return triple


def load_scenario(path) -> sim.Scenario:
    """Parse a scenario config file, reporting errors with line numbers."""
    kv = _KvFile(path)
    take = kv.take
    geometry = sim.SonarGeometry(
        belt_height=take("belt_height", _POSITIVE, 1.0),
        inclined_depression_deg=take("inclined_depression_deg", _ANGLE_DEG, 45.0),
        inclined_azimuth_deg=take("inclined_azimuth_deg", _finite, 25.0),
        beam_half_angle_deg=take("beam_half_angle_deg", _ANGLE_DEG, 15.0),
        max_range=take("max_range", _POSITIVE, 4.0),
    )
    defaults = sim.NoiseConfig()
    noise = sim.NoiseConfig(
        accel_sigma=take("accel_sigma", _SIGMA, defaults.accel_sigma),
        gyro_sigma=take("gyro_sigma", _SIGMA, defaults.gyro_sigma),
        accel_bias=take("accel_bias", _parse_triple, defaults.accel_bias),
        gyro_bias=take("gyro_bias", _parse_triple, defaults.gyro_bias),
        gps_sigma=take("gps_sigma", _SIGMA, defaults.gps_sigma),
        sonar_sigma=take("sonar_sigma", _SIGMA, defaults.sonar_sigma),
    )
    route = take("route", lambda v: _parse_tuple_list(v, 2))
    try:
        scenario = sim.Scenario(
            route=route,
            speed=take("speed", _finite, 1.52),
            imu_rate=take("imu_rate", _finite, 100.0),
            gps_rate=take("gps_rate", _finite, 1.0),
            noise=noise,
            obstacles=tuple(
                sim.Obstacle(*o)
                for o in take("obstacles", lambda v: _parse_tuple_list(v, 3), ())
            ),
            dropoffs=tuple(
                sim.DropoffZone(*z)
                for z in take("dropoffs", lambda v: _parse_tuple_list(v, 3), ())
            ),
            gps_dropouts=take("gps_dropouts", lambda v: _parse_tuple_list(v, 2), ()),
            seed=take("seed", int, 0),
            anchor=take("anchor", _parse_triple, (37.0, -122.0, 30.0)),
            geometry=geometry,
            front_sensors=take("front_sensors", int, 2),
        )
    except sim.ScenarioError as exc:
        raise DataError(f"{kv.path}: {exc}") from None
    if kv.entries:
        key = next(iter(kv.entries))
        raise DataError(f"{kv.path}:{kv.lines[key]}: unknown key '{key}'")
    return scenario


# ---------------------------------------------------------------------------
# Pipeline helpers


def _apply_cli_overrides(scenario: sim.Scenario, args) -> sim.Scenario:
    if getattr(args, "seed", None) is not None:
        scenario = replace(scenario, seed=args.seed)
    if getattr(args, "mode", "raw") == "dmp":
        scenario = replace(scenario, noise=scenario.noise.dmp_like())
    return scenario


def _localizer_config(noise: sim.NoiseConfig) -> LocalizerConfig:
    # Floors keep the gate and covariance well-conditioned on noiseless runs.
    return LocalizerConfig(
        accel_noise=max(noise.accel_sigma, 1e-4),
        gyro_noise=max(noise.gyro_sigma, 1e-5),
        gps_pos_std=max(noise.gps_sigma, 0.01),
    )


# ---------------------------------------------------------------------------
# Commands


def _simulate(args):
    """Simulate the scenario named by ``args`` and write its four streams."""
    scenario = _apply_cli_overrides(load_scenario(args.scenario), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = sim.gen_walk(scenario)
    imu = sim.synth_imu(truth, scenario.noise, scenario.seed)
    fixes = sim.synth_gps(
        truth,
        scenario.noise,
        scenario.seed,
        scenario.gps_rate,
        scenario.anchor_fix(),
        scenario.gps_dropouts,
    )
    if args.gps == "off":
        fixes = fixes[:1]  # keep only the anchor fix
    sonar = sim.synth_sonar(truth, scenario)
    write_pose_csv(out / "truth.csv", truth.t, truth.p, truth.v, truth.q)
    write_imu_csv(out / "imu.csv", imu)
    write_gps_csv(out / "gps.csv", fixes)
    write_sonar_csv(out / "sonar.csv", sonar)
    return scenario, truth, imu, fixes, sonar, out


def _fuse_sonar(log: SonarLog, out: Path) -> sonar_ekf.FusedFront:
    fused = sonar_ekf.fuse_front_pair(log)
    rows = np.column_stack(fused).tolist()
    _write_csv(out / "fused.csv", FUSED_HEADER, ([*map(_fmt, row)] for row in rows))
    return fused


def _write_est(out: Path, run, frame: GpsFix | None) -> None:
    """est.csv re-anchored into ``frame`` (None: the run's own frame)."""
    p, v = run.p, run.v
    if frame is not None:
        r, d = geo.enu_frame_transform(run.ref, frame)
        p, v = run.p @ r.T + d, run.v @ r.T
    write_pose_csv(out / "est.csv", run.t, p, v, run.q)


def _evaluate(out: Path, est: metrics.Trajectory, truth: metrics.Trajectory) -> None:
    report = metrics.evaluate(est, truth)
    _write_report_csv(out / "report.csv", [report])
    print(metrics.format_table([report]))


def cmd_simulate(args) -> int:
    _, truth, imu, fixes, sonar, out = _simulate(args)
    print(
        f"simulated {truth.path_length:.2f} m / {truth.duration:.2f} s "
        f"({len(imu)} IMU, {len(fixes)} GPS, {len(sonar)} sonar) -> {out}"
    )
    return EXIT_OK


def _file_batch_source(log: ImuLog):
    pos = 0

    def source(n: int):
        nonlocal pos
        if pos + n > len(log):
            raise DataError(
                f"calibration needs {n} more readings but only "
                f"{len(log) - pos} remain"
            )
        chunk = slice(pos, pos + n)
        pos += n
        return log.accel[chunk], log.gyro[chunk]

    return source


def cmd_calibrate(args) -> int:
    imu = read_imu_csv(args.imu)
    offsets = calibrate(
        _file_batch_source(imu),
        batch=args.batch,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_offsets_cfg(out / "offsets.cfg", offsets)
    print("accel_offset =", ", ".join(map(_fmt, offsets.accel_offset)))
    print("gyro_offset =", ", ".join(map(_fmt, offsets.gyro_offset)))
    return EXIT_OK


def cmd_fuse_sonar(args) -> int:
    log = read_sonar_csv(args.sonar)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fused = _fuse_sonar(log, out)
    print(f"fused {len(fused.t)} front-channel ticks -> {out / 'fused.csv'}")
    return EXIT_OK


def cmd_localize(args) -> int:
    imu = read_imu_csv(args.imu)
    fixes = read_gps_csv(args.gps)
    offsets = read_offsets_cfg(args.offsets) if args.offsets else None
    cfg = LocalizerConfig(
        accel_noise=args.accel_noise,
        gyro_noise=args.gyro_noise,
        gps_pos_std=args.gps_std,
    )
    frame = None
    if args.ref is not None:
        try:
            frame = GpsFix(0.0, *_parse_triple(args.ref))
        except ValueError as exc:
            raise DataError(f"--ref: {exc}") from None
    run = run_localizer(imu, fixes, cfg, offsets)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_est(out, run, frame)
    print(
        f"localized {len(run.t)} steps ({run.accepted_fixes} fixes applied, "
        f"{run.rejected_fixes} rejected) -> {out / 'est.csv'}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    est = read_pose_csv(args.est, Path(args.est).stem)
    truth = read_pose_csv(args.truth, Path(args.truth).stem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _evaluate(out, est, truth)
    return EXIT_OK


def _write_report_csv(path, reports) -> None:
    _write_csv(
        Path(path),
        REPORT_HEADER,
        (
            [
                r.est_label,
                r.truth_label,
                _fmt(r.mean),
                _fmt(r.peak),
                _fmt(r.relative_percent),
                _fmt(r.path_length),
                str(r.n_points),
                _fmt(r.vertical_mean),
            ]
            for r in reports
        ),
    )


def cmd_run(args) -> int:
    scenario, truth, imu, fixes, sonar, out = _simulate(args)

    # calibrate on a stationary bench stream with the scenario's sensors
    offsets = calibrate(
        sim.stationary_imu_source(scenario.noise, scenario.seed)
    )
    write_offsets_cfg(out / "offsets.cfg", offsets)

    fused = _fuse_sonar(sonar, out)

    # localize; est.csv shares truth.csv's frame (the scenario anchor)
    run = run_localizer(imu, fixes, _localizer_config(scenario.noise), offsets)
    _write_est(out, run, scenario.anchor_fix())

    # detect + feedback
    detector = perception.ObstacleDetector(
        perception.DetectionConfig(
            expected_ground_range=scenario.geometry.expected_ground_range,
            max_range=scenario.geometry.max_range,
        )
    )
    gate = perception.RecognitionGate(perception.MockRecognizer(seed=scenario.seed))
    scheduler = fb.AudioScheduler()
    feedback_rows = []

    def offer_results(results):
        for res in results:
            if res.failed or not res.labels:
                continue
            name, conf = res.labels[0]
            scheduler.offer(
                fb.AudioMessage(
                    priority=fb.PRIORITY_RECOGNITION,
                    text=f"label {name} {conf}",
                    t=res.completed_t,
                )
            )

    for t, ranges in perception.sonar_ticks(sonar, fused.t, fused.fused):
        offer_results(gate.poll(t))
        for event in detector.process(t, ranges):
            cmd = fb.route_event(event)
            feedback_rows.append(
                [_fmt(event.t), "tactile", str(cmd.motor), _fmt(cmd.intensity)]
            )
            scheduler.offer(
                fb.AudioMessage(
                    priority=fb.priority_for(event),
                    text=f"{event.kind.value} {event.channel.value}",
                    t=event.t,
                )
            )
            if event.kind is perception.DetectionKind.OBSTACLE:
                offer_results(gate.submit(event))
        msg = scheduler.poll(t)
        if msg is not None:
            feedback_rows.append([_fmt(t), "audio", str(msg.priority), msg.text])
    offer_results(gate.flush())
    _write_csv(out / "feedback.csv", FEEDBACK_HEADER, feedback_rows)

    _evaluate(
        out,
        run.trajectory("est", frame=scenario.anchor_fix()),
        sim.truth_trajectory(truth, "truth"),
    )
    print(f"pipeline outputs in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means data error here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(p, scenario: bool) -> None:
    if scenario:
        p.add_argument("--scenario", required=True, help="scenario config file")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--mode", choices=["raw", "dmp"], default="raw")
        p.add_argument("--gps", choices=["on", "off"], default="on")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fusenav", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate truth + sensor streams")
    _add_common(p, scenario=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="estimate IMU offsets from a stationary log")
    p.add_argument("--imu", required=True)
    p.add_argument("--batch", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=20)
    _add_common(p, scenario=False)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fuse-sonar", help="fuse the two front sonar sensors")
    p.add_argument("--sonar", required=True)
    _add_common(p, scenario=False)
    p.set_defaults(func=cmd_fuse_sonar)

    p = sub.add_parser("localize", help="run the GPS/IMU filter over CSV streams")
    p.add_argument("--imu", required=True)
    p.add_argument("--gps", required=True)
    p.add_argument("--offsets", default=None, help="offsets.cfg from calibrate")
    p.add_argument(
        "--ref",
        default=None,
        help="'lat, lon, alt' ENU frame for est.csv (default: first GPS fix)",
    )
    p.add_argument("--accel-noise", type=float, default=LocalizerConfig.accel_noise)
    p.add_argument("--gyro-noise", type=float, default=LocalizerConfig.gyro_noise)
    p.add_argument("--gps-std", type=float, default=LocalizerConfig.gps_pos_std)
    _add_common(p, scenario=False)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("evaluate", help="compare an estimate against ground truth")
    p.add_argument("--est", required=True)
    p.add_argument("--truth", required=True)
    _add_common(p, scenario=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline: simulate through evaluate")
    _add_common(p, scenario=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"fusenav: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"fusenav: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
