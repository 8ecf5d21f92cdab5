"""Command-line pipeline and all on-disk formats.

Commands::

    fusenav simulate   --scenario walk.cfg --out DIR [--seed N] [--mode raw|dmp] [--gps on|off]
    fusenav calibrate  --imu imu.csv --out DIR
    fusenav fuse-sonar --sonar sonar.csv --out DIR
    fusenav localize   --imu imu.csv --gps gps.csv --out DIR [--offsets offsets.cfg]
    fusenav evaluate   --est est.csv --truth truth.csv --out DIR
    fusenav run        --scenario walk.cfg --out DIR [...]

CSV files are UTF-8 text with a mandatory header row, no quoting and LF or
CRLF line ends; numbers are plain decimal with a '.' radix:

    imu.csv      t,ax,ay,az,gx,gy,gz
    gps.csv      t,lat,lon,alt
    sonar.csv    t,channel,range,valid     (rows sorted by t; valid is 0 or 1)
    truth.csv    t,e,n,u,ve,vn,vu,qw,qx,qy,qz       (est.csv identical)
    fused.csv    t,raw1,raw2,fused,p11,p22
    feedback.csv t,kind,motor_or_priority,value

Readers check every numeric column of a file, all 11 of a pose file, for
finite plain decimal numbers (ASCII digits, sign, '.', exponent; no '_',
blank or other digit), and report a fault as ``file:row: column '<c>'``.
Each format's bounds are checked by the type that holds its data alone (a
stream's by its ``core`` log, a scenario's by ``sim.Scenario`` and its
``NoiseConfig``), for a file and Python alike; ``offsets.cfg`` is written
only if its reader takes it.
Scenario files are flat UTF-8 ``key = value`` text with ``#`` comments;
list values use ``;`` between items and ``,`` within (see
scenarios/walk110.cfg).
Every command is deterministic given its inputs and seed, across
processes as well (no output depends on the hash seed).  Exit codes:
0 success, 1 usage, 2 data error, 3 numerical failure (only a calibration
that does not converge, or a LAPACK failure); an output that cannot be
written, stdout included, is a data error naming its path (``<stdout>``).
``run`` writes truth/imu/gps/sonar.csv from a forked child once the walk
is simulated, and est.csv from another once the filter has run, while it
computes on; it joins both before it returns, on success or error, and a
child's write error exits 2.
A process executes only the modules its command runs: ``feedback``,
``metrics``, ``perception``, ``sim`` and ``sonar_ekf`` are loaded on first
use, so ``calibrate`` and ``localize`` execute none of them, ``fuse-sonar``
only ``sonar_ekf`` and ``evaluate`` only ``metrics``.  OpenBLAS runs one
thread unless ``OPENBLAS_NUM_THREADS`` is set (``fusenav/__init__``), and
``main()`` with no argv, a process's own command line, freezes the import-time
heap first, so that neither a collection nor the exit walks it again.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import geo
from .core import CHANNELS, MAX_ACCEL, MAX_GYRO, DataError, GpsFix, ImuLog, NumericalError, SonarLog, StreamError
from .localizer import CalibrationOffsets, LocalizerConfig, calibrate, run_localizer


def _lazy(name: str):
    """fusenav.``name``, executed at its first attribute access.  The proxy is
    the module itself, in sys.modules and on the package: a wrapper set on it stays."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


fb, metrics, perception, sim, sonar_ekf = map(_lazy, ("feedback", "metrics", "perception", "sim", "sonar_ekf"))

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


# A plain decimal number is written with these bytes alone: no '_', no
# blank, no non-ASCII digit, all of which float() would accept.
_DECIMAL = b"0123456789.eE+-"


def _plain(text: str) -> bool:
    return not text.encode().translate(None, _DECIMAL)


def _finite(text: str) -> float:
    x = float(text) if _plain(text) else math.nan
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

    conv.__name__ = what  # argparse names a rejected value by it
    return conv


_POSITIVE = _finite_in(lambda x: x > 0.0, "positive")
# the fusion reads exactly one front pair; the key stays for files that state it
_FRONT_PAIR = _finite_in(lambda x: x == 2.0, "2, the front pair the fusion reads")


def _noise_flag(name: str):
    """A ``localize`` noise flag: positive, and a value LocalizerConfig takes as ``name``."""

    def conv(text: str) -> float:
        try:
            return getattr(LocalizerConfig(**{name: _POSITIVE(text)}), name)
        except ValueError as exc:  # DataError is one
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None

    return conv


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a non-negative plain decimal integer: {text!r}")
    return int(text)


def _count(text: str) -> int:
    n = _seed(text)
    if n == 0:
        raise ValueError(f"{text!r} is not positive")
    return n


# ---------------------------------------------------------------------------
# CSV reading/writing

_BLOCK_ROWS = 512  # rows parsed or formatted at a time: bounds the Python objects held
_CHANNEL_NAMES = np.array([c.value for c in CHANNELS], dtype=object)
_SONAR_CODES = {
    "channel": {name: k for k, name in enumerate(_CHANNEL_NAMES)},
    "valid": {"0": 0, "1": 1},
}


def _open(path: Path):
    try:
        return open(path, "rb")
    except OSError as exc:
        why = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        raise DataError(f"{path}: {why}") from None


def _decode(path: Path, row: int, data: bytes) -> str:
    """``data`` as UTF-8 text; ``row`` is the file row of its first byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = row + data.count(b"\n", 0, exc.start)
        raise DataError(f"{path}:{line}: not UTF-8 text") from None


def _cells(col) -> list[str]:
    """A column's text: ``repr`` of each float of a float array, formatted
    once per run of equal values (a sonar tick's rows share its time)."""
    col = np.asarray(col)
    if col.dtype.kind != "f":
        return col.tolist()
    bits = col.view(np.uint64)  # so that -0.0 and 0.0 stay apart
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    cells = np.array(list(map(repr, col[starts].tolist())), dtype=object)
    return np.repeat(cells, np.diff(np.r_[starts, len(col)])).tolist()


@contextmanager
def _writing(path: Path):
    """Make an OSError of the block a DataError naming the output ``path``."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None


def _out_dir(path) -> Path:
    """The output directory ``path``, made if missing."""
    out = Path(path)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write ``header``, then one row per index of ``columns``, _BLOCK_ROWS
    rows at a time.  Nothing is quoted: a text cell holding ',', '"' or a
    line break is a DataError.  The rows go to a sibling file that replaces
    ``path`` only when complete, so a failed write leaves no partial file."""
    n = len(columns[0]) if columns else 0
    part = path.with_name(path.name + ".part")
    with _writing(path):
        try:
            with open(part, "w", encoding="utf-8", newline="") as f:
                f.write(",".join(header) + "\n")
                for lo in range(0, n, _BLOCK_ROWS):
                    cells = [_cells(col[lo : lo + _BLOCK_ROWS]) for col in columns]
                    text = "\n".join(map(",".join, zip(*cells))) + "\n"
                    # a row holds len(header) - 1 commas and one newline, unless a cell needs quotes
                    if sum(map(text.count, ',"\r\n')) != len(cells[0]) * len(header):
                        bad = next(c for col in cells for c in col if set(c) & set(',"\r\n'))
                        raise DataError(f"{path}: cannot write {bad!r} unquoted")
                    f.write(text)
            os.replace(part, path)
        finally:
            part.unlink(missing_ok=True)


def _read_csv(path, header: list[str], increasing=False, codes=None) -> np.ndarray:
    """A UTF-8 CSV file with ``header`` as one (columns, rows) float array.

    Each cell is a finite plain decimal number, or in a column named in
    ``codes`` a key of its ``{text: code}`` map, read as the code; ``t``
    (column 0) never decreases, or with ``increasing`` always increases.
    Lines end in LF or CRLF.  Blocks of _BLOCK_ROWS lines are checked
    whole, and a per-cell scan names the first fault of a block that fails.
    """
    path, codes = Path(path), codes or {}
    coded = [(j, codes[c]) for j, c in enumerate(header) if c in codes]
    numeric = [j for j, c in enumerate(header) if c not in codes]
    blocks, prev_t, row = [], -math.inf, 2
    with _open(path) as f:
        first = _decode(path, 1, f.readline()).removesuffix("\n").removesuffix("\r")
        if first != ",".join(header):
            raise DataError(f"{path}:1: expected header {','.join(header)}")
        while lines := list(islice(f, _BLOCK_ROWS)):
            text = _decode(path, row, b"".join(lines)).replace("\r\n", "\n")
            rows = [line.split(",") for line in text.removesuffix("\n").split("\n")]
            try:
                if set(map(len, rows)) != {len(header)}:
                    raise ValueError
                cols = list(zip(*rows))
                if not all(_plain("".join(cols[j])) for j in numeric):
                    raise ValueError
                for j, code_of in coded:
                    cols[j] = list(map(code_of.__getitem__, cols[j]))
                values = np.array(cols, dtype=float)
                steps = np.diff(values[0], prepend=prev_t)
                unordered = steps <= 0 if increasing else steps < 0
                bad = unordered | ~np.isfinite(values).all(axis=0)
                if bad.any():  # the first fault is on the first bad row or above it
                    rows = rows[: int(np.argmax(bad)) + 1]
                    raise ValueError
            except (ValueError, KeyError):
                _raise_first_fault(path, header, row, rows, prev_t, increasing, codes)
            blocks.append(values)
            prev_t, row = values[0, -1], row + len(lines)
    return np.concatenate(blocks, axis=1) if blocks else np.empty((len(header), 0))


def _raise_first_fault(path, header, row, rows, prev_t, increasing, codes) -> None:
    """Name the first fault in the failed block ``rows``: cells left to
    right, then the row's ``t`` order."""
    for i, cells in enumerate(rows, start=row):
        if len(cells) != len(header):
            got = 0 if cells == [""] else len(cells)  # a blank line has no cells
            raise DataError(f"{path}:{i}: expected {len(header)} columns, got {got}")
        for col, cell in zip(header, cells):
            where = f"{path}:{i}: column '{col}'"
            if col in codes:
                if cell not in codes[col]:
                    raise DataError(f"{where}: {cell!r} is not one of {', '.join(codes[col])}")
                continue
            try:
                _finite(cell)
            except ValueError:
                raise DataError(f"{where}: not a finite number: {cell!r}") from None
        t = float(cells[0])
        if t < prev_t or (increasing and t == prev_t):
            order = "increasing" if increasing else "sorted"
            raise DataError(f"{path}:{i}: column 't': timestamps not {order}")
        prev_t = t
    raise DataError(f"{path}:{row}: a block of {len(rows)} rows failed its checks")


@contextmanager
def _stream_files(paths: dict):
    """Raise a StreamError of the block as a DataError at its stream's file
    ``paths[stream]``, named as the readers name it, and at file row i + 2
    (below the header) for item i."""
    try:
        yield
    except StreamError as exc:
        row = "" if exc.index is None else f":{exc.index + 2}"
        raise DataError(f"{Path(paths[exc.stream])}{row}: {exc}") from None


def write_imu_csv(path, log: ImuLog) -> None:
    _write_csv(Path(path), IMU_HEADER, [log.t, *log.accel.T, *log.gyro.T])


def read_imu_csv(path) -> ImuLog:
    cols = np.ascontiguousarray(_read_csv(path, IMU_HEADER).T)
    with _stream_files({"imu": path}):
        return ImuLog(t=cols[:, 0], accel=cols[:, 1:4], gyro=cols[:, 4:7])


def write_gps_csv(path, fixes) -> None:
    cols = np.array([(f.t, f.lat, f.lon, f.alt) for f in fixes], dtype=float)
    _write_csv(Path(path), GPS_HEADER, list(cols.reshape(-1, 4).T))


def read_gps_csv(path) -> list[GpsFix]:
    out = []
    for i, row in enumerate(_read_csv(path, GPS_HEADER).T.tolist(), start=2):
        try:
            out.append(GpsFix(*row))
        except DataError as exc:
            raise DataError(f"{Path(path)}:{i}: {exc}") from None
    return out


def write_sonar_csv(path, log: SonarLog) -> None:
    columns = [log.t, _CHANNEL_NAMES[log.channel], log.range_m, np.where(log.valid, "1", "0")]
    _write_csv(Path(path), SONAR_HEADER, columns)


def read_sonar_csv(path) -> SonarLog:
    t, channel, range_m, valid = _read_csv(path, SONAR_HEADER, codes=_SONAR_CODES)
    with _stream_files({"sonar": path}):
        return SonarLog(t=t, channel=channel.astype(int), range_m=range_m, valid=valid == 1.0)


def write_pose_csv(path, t, p, v, q) -> None:
    columns = [t, *np.transpose(p), *np.transpose(v), *np.transpose(q)]
    _write_csv(Path(path), TRUTH_HEADER, columns)


def read_pose_csv(path, label: str) -> metrics.Trajectory:
    cols = _read_csv(path, TRUTH_HEADER, increasing=True)
    if cols.shape[1] < 2:
        raise DataError(f"{Path(path)}: needs at least 2 data rows")
    return metrics.Trajectory(t=cols[0], xyz=np.ascontiguousarray(cols[1:4].T), label=label)


def _offsets_text(path, offsets: CalibrationOffsets) -> str:
    """offsets.cfg's two key lines, which calibrate also prints; a triple that
    read_offsets_cfg would refuse is a DataError at ``path``, in its words."""
    triples = [", ".join(map(_fmt, v)) for v in (offsets.accel_offset, offsets.gyro_offset)]
    for (key, conv), text in zip(_OFFSET_KEYS, triples):
        try:
            conv(text)
        except ValueError as exc:
            raise DataError(f"{path}: key '{key}': {exc}") from None
    return "\n".join(f"{key} = {text}" for (key, _), text in zip(_OFFSET_KEYS, triples))


def write_offsets_cfg(path, offsets: CalibrationOffsets) -> None:
    text = _offsets_text(path, offsets)
    with _writing(path), open(path, "w") as f:
        f.write(f"# IMU calibration offsets (subtract from raw readings)\n{text}\n")


def read_offsets_cfg(path) -> CalibrationOffsets:
    kv = _KvFile(path)
    accel, gyro = (np.array(kv.take(key, conv)) for key, conv in _OFFSET_KEYS)
    kv.done()
    return CalibrationOffsets(accel, gyro)


# ---------------------------------------------------------------------------
# Scenario files


class _KvFile:
    """Flat ``key = value`` file whose values are converted with file:line context."""

    def __init__(self, path):
        self.path = Path(path)
        with _open(self.path) as f:
            text = _decode(self.path, 1, f.read())
        self.entries: dict[str, str] = {}
        self.lines: dict[str, int] = {}
        for i, line in enumerate(text.split("\n"), start=1):  # LF or CRLF, as in CSV
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

    def where(self, key: str, value=None) -> str:
        """``file:line: key 'k'``, or ``file: key 'k' (default value)`` for a key not stated."""
        if key in self.lines:
            return f"{self.path}:{self.lines[key]}: key '{key}'"
        return f"{self.path}: key '{key}' (default {value})"

    def take(self, key: str, conv, default=MISSING):
        """Remove ``key`` and return ``conv(value)``, or ``default`` if absent."""
        if key not in self.entries:
            if default is MISSING:
                raise DataError(f"{self.path}: missing required key '{key}'")
            return default
        raw = self.entries.pop(key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise DataError(f"{self.where(key)}: {exc}") from None

    def take_fields(self, cls, **convs) -> dict:
        """``convs``' keys and ``cls``'s other fields with a float default, read by
        _finite, each taken as ``take`` does, with its field default."""
        convs = {f.name: _finite for f in fields(cls) if type(f.default) is float} | convs
        return {f.name: self.take(f.name, convs[f.name], f.default) for f in fields(cls) if f.name in convs}

    def done(self) -> None:
        """Refuse the first key that no ``take`` removed."""
        if self.entries:
            key = next(iter(self.entries))
            raise DataError(f"{self.path}:{self.lines[key]}: unknown key '{key}'")


def _items(arity: int, make=lambda *item: item):
    """A converter of ';'-separated items of ``arity`` ','-separated numbers, each giving ``make(*item)``."""

    def conv(value: str) -> tuple:
        out = []
        for text in value.split(";") if value else ():
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != arity:
                raise ValueError(f"expected {arity} comma-separated numbers per item")
            out.append(make(*[_finite(p) for p in parts]))
        return tuple(out)

    return conv


def _parse_triple(value: str, bound: float = math.inf, what: str = ""):
    """One 'x, y, z' triple, each component within +-``bound``; ``what`` names the bound."""
    (triple,) = _items(3)(value)
    if not max(map(abs, triple)) <= bound:
        raise ValueError(f"item {value.strip()!r} needs {what}")
    return triple


# an offset or a bias is read through the sensor, so it lies within the sensor's full scale
_ACCEL_TRIPLE = partial(_parse_triple, bound=MAX_ACCEL, what=f"components within +-MAX_ACCEL = {MAX_ACCEL} m/s^2")
_GYRO_TRIPLE = partial(_parse_triple, bound=MAX_GYRO, what=f"components within +-MAX_GYRO = {MAX_GYRO} rad/s")
_OFFSET_KEYS = (("accel_offset", _ACCEL_TRIPLE), ("gyro_offset", _GYRO_TRIPLE))  # offsets.cfg: reader and writer


def _position(value: str) -> tuple:
    """A 'lat, lon, alt' triple in a GPS fix's ranges."""
    position = _parse_triple(value)
    GpsFix(0.0, *position)  # its range check raises DataError, a ValueError
    return position


_position.__name__ = "'lat, lon, alt' position"  # argparse names a rejected value by it


def load_scenario(path, seed=None, mode="raw") -> sim.Scenario:
    """The one Scenario of a scenario config file, whose keys are read as plain numbers and lists; a ``seed``
    other than None, and ``mode`` "dmp" (``dmp_like`` noise, once NoiseConfig has checked the file's), replace
    the file's.  A ScenarioError is reported at the key's line, or with its default."""
    kv = _KvFile(path)
    geometry = sim.SonarGeometry(**kv.take_fields(sim.SonarGeometry))
    noise = kv.take_fields(sim.NoiseConfig, accel_bias=_ACCEL_TRIPLE, gyro_bias=_GYRO_TRIPLE)
    taken = kv.take_fields(sim.Scenario, route=_items(2), gps_dropouts=_items(2), seed=_seed,
                           anchor=_parse_triple, obstacles=_items(3, make=sim.Obstacle),
                           dropoffs=_items(3, make=sim.DropoffZone))
    kv.take("front_sensors", _FRONT_PAIR, 2.0)
    kv.done()
    try:
        noise = sim.NoiseConfig(**noise)
        taken |= {"noise": noise.dmp_like() if mode == "dmp" else noise, "geometry": geometry}
        return sim.Scenario(**taken | ({} if seed is None else {"seed": seed}))
    except sim.ScenarioError as exc:
        raise DataError(f"{kv.where(exc.key, exc.value)}: {exc}") from None


# ---------------------------------------------------------------------------
# Pipeline helpers


def _localizer_config(noise: sim.NoiseConfig) -> LocalizerConfig:
    # Floors keep the gate and covariance well-conditioned on noiseless runs.
    return LocalizerConfig(
        accel_noise=max(noise.accel_sigma, 1e-4),
        gyro_noise=max(noise.gyro_sigma, 1e-5),
        gps_pos_std=max(noise.gps_sigma, 0.01),
    )


# ---------------------------------------------------------------------------
# Commands


def _simulate(scenario: sim.Scenario, args):
    """Simulate ``scenario``'s four streams, then make the directory ``args.out``."""
    truth, noise, seed = sim.gen_walk(scenario), scenario.noise, scenario.seed
    try:
        imu = sim.synth_imu(truth, noise, seed)
    except StreamError as exc:  # a reading that the scenario's bias and noise put past full scale
        keys = "keys 'accel_bias', 'gyro_bias', 'accel_sigma', 'gyro_sigma'"
        raise DataError(f"{args.scenario}: {keys}: {exc} at t={truth.t[exc.index].item()}") from None
    fixes = sim.synth_gps(truth, noise, seed, scenario.gps_rate, scenario.anchor_fix(), scenario.gps_dropouts)
    if args.gps == "off":
        fixes = fixes[:1]  # keep only the anchor fix
    sonar = sim.synth_sonar(truth, scenario)
    return truth, imu, fixes, sonar, _out_dir(args.out)


def _write_streams(out: Path, truth: sim.GroundTruth, imu: ImuLog, fixes, sonar: SonarLog) -> None:
    write_pose_csv(out / "truth.csv", truth.t, truth.p, truth.v, truth.q)
    write_imu_csv(out / "imu.csv", imu)
    write_gps_csv(out / "gps.csv", fixes)
    write_sonar_csv(out / "sonar.csv", sonar)


def _localize(paths: dict, imu: ImuLog, fixes, cfg, offsets, ref):
    """Run the filter; returns the run and its positions and velocities in
    the ENU frame at the ``ref`` 'lat, lon, alt' (None: the run's own
    frame), est.csv's columns; a stream fault is one at its file in ``paths``."""
    with _stream_files(paths):
        run = run_localizer(imu, fixes, cfg, offsets)
    p, v = run.p, run.v
    if ref is not None:
        r, d = geo.enu_frame_transform(run.ref, GpsFix(0.0, *ref))
        p, v = run.p @ r.T + d, run.v @ r.T
    return run, p, v


def _evaluate(out: Path, est: metrics.Trajectory, truth: metrics.Trajectory) -> str:
    """Write ``report.csv``; return the table to print."""
    report = metrics.evaluate(est, truth)
    _write_report_csv(out / "report.csv", report)
    return metrics.format_table(report)


def cmd_simulate(args) -> str:
    scenario = load_scenario(args.scenario, args.seed, args.mode)
    truth, imu, fixes, sonar, out = _simulate(scenario, args)
    _write_streams(out, truth, imu, fixes, sonar)
    return (
        f"simulated {truth.path_length:.2f} m / {truth.duration:.2f} s "
        f"({len(imu)} IMU, {len(fixes)} GPS, {len(sonar)} sonar) -> {out}"
    )


def _file_batch_source(path):
    """calibrate's sample source: the readings of an imu.csv, in file order."""
    log = read_imu_csv(path)
    pos = 0

    def source(n: int):
        nonlocal pos
        if pos + n > len(log):
            raise DataError(
                f"{Path(path)}: calibration needs {n} more readings but only "
                f"{len(log) - pos} remain"
            )
        chunk = slice(pos, pos + n)
        pos += n
        return log.accel[chunk], log.gyro[chunk]

    return source


def cmd_calibrate(args) -> str:
    source = _file_batch_source(args.imu)
    offsets = calibrate(source, batch=args.batch, tol=args.tol, max_iter=args.max_iter)
    path = Path(args.out) / "offsets.cfg"
    text = _offsets_text(path, offsets)  # refused before the output directory is made
    _out_dir(args.out)
    write_offsets_cfg(path, offsets)
    return text


def cmd_fuse_sonar(args) -> str:
    log = read_sonar_csv(args.sonar)
    with _stream_files({"sonar": args.sonar}):
        fused = sonar_ekf.fuse_front_pair(log)
    out = _out_dir(args.out)
    _write_csv(out / "fused.csv", FUSED_HEADER, list(fused))
    return f"fused {len(fused.t)} front-channel ticks -> {out / 'fused.csv'}"


def cmd_localize(args) -> str:
    imu = read_imu_csv(args.imu)
    fixes = read_gps_csv(args.gps)
    offsets = read_offsets_cfg(args.offsets) if args.offsets else None
    cfg = LocalizerConfig(
        accel_noise=args.accel_noise,
        gyro_noise=args.gyro_noise,
        gps_pos_std=args.gps_std,
    )
    paths = {"imu": args.imu, "gps": args.gps}
    run, p, v = _localize(paths, imu, fixes, cfg, offsets, args.ref)
    out = _out_dir(args.out)
    write_pose_csv(out / "est.csv", run.t, p, v, run.q)
    return (
        f"localized {len(run.t)} steps ({run.accepted_fixes} fixes applied, "
        f"{run.rejected_fixes} rejected) -> {out / 'est.csv'}"
    )


def cmd_evaluate(args) -> str:
    est = read_pose_csv(args.est, Path(args.est).stem)
    truth = read_pose_csv(args.truth, Path(args.truth).stem)
    out = _out_dir(args.out)
    return _evaluate(out, est, truth)


def _write_report_csv(path, r: metrics.ErrorReport) -> None:
    nums = map(_fmt, (r.mean, r.peak, r.relative_percent, r.path_length))
    row = [r.est_label, r.truth_label, *nums, str(r.n_points), _fmt(r.vertical_mean)]
    _write_csv(Path(path), REPORT_HEADER, [[cell] for cell in row])


@contextmanager
def _forked_writes():
    """Yield ``spawn(write, *args)``, which runs ``write(*args)`` in a forked
    child while this process computes on; every child is joined on leaving
    the block, and the first one's error is raised here as a DataError.
    The children call no BLAS, and the parent has no OpenBLAS worker thread
    unless the user or an earlier numpy import chose more (``fusenav/__init__``);
    forking is safe either way.  Without ``os.fork`` the write runs inline."""
    children = []

    def spawn(write, *args) -> None:
        if not hasattr(os, "fork"):
            write(*args)
            return
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: leaves only through os._exit, never into the caller
            status = 1
            try:
                write(*args)
                status = 0
            except BaseException as exc:  # reported to the parent, which raises it
                os.write(w, (str(exc) if isinstance(exc, DataError) else repr(exc)).encode())
            finally:
                os._exit(status)
        os.close(w)
        children.append((pid, r))

    try:
        yield spawn
    finally:
        errors = []
        for pid, r in children:
            with open(r, "rb") as pipe:
                why = pipe.read().decode(errors="replace")
            if os.waitpid(pid, 0)[1]:
                errors.append(why or f"writer process {pid} ended abnormally")
        if errors:
            raise DataError(errors[0])


def cmd_run(args) -> str:
    scenario = load_scenario(args.scenario, args.seed, args.mode)
    try:  # before any file is written
        detector = perception.ObstacleDetector(scenario.geometry)
    except DataError as exc:
        raise DataError(f"{args.scenario}: {exc}") from None
    truth, imu, fixes, sonar, out = _simulate(scenario, args)
    with _forked_writes() as spawn:
        spawn(_write_streams, out, truth, imu, fixes, sonar)

        # calibrate on a stationary bench stream with the scenario's sensors
        try:
            offsets = calibrate(sim.stationary_imu_source(scenario.noise, scenario.seed))
        except NumericalError as exc:  # its noise is the scenario's
            keys = "keys 'accel_sigma', 'gyro_sigma'"
            raise NumericalError(f"{args.scenario}: {keys}: {exc}") from None
        write_offsets_cfg(out / "offsets.cfg", offsets)

        fused = sonar_ekf.fuse_front_pair(sonar)
        _write_csv(out / "fused.csv", FUSED_HEADER, list(fused))

        # localize; est.csv shares truth.csv's frame (the scenario anchor)
        cfg = _localizer_config(scenario.noise)
        paths = {"imu": out / "imu.csv", "gps": out / "gps.csv"}
        run, est_p, est_v = _localize(paths, imu, fixes, cfg, offsets, scenario.anchor)
        spawn(write_pose_csv, out / "est.csv", run.t, est_p, est_v, run.q)

        events = detector.process(sonar, fused.t, fused.fused)
        gate = perception.RecognitionGate(perception.MockRecognizer(seed=scenario.seed))
        scheduler = fb.AudioScheduler()
        rows = fb.respond(truth.t.tolist(), events, gate, scheduler)
        cells = [
            (_fmt(t), kind, str(n), v if kind == "audio" else _fmt(v)) for t, kind, n, v in rows
        ]
        _write_csv(out / "feedback.csv", FEEDBACK_HEADER, list(zip(*cells)))

        est = metrics.Trajectory(run.t, est_p, "est")
        table = _evaluate(out, est, sim.truth_trajectory(truth, "truth"))
    # printed once every child has written its files; the pending audio is
    # never spoken: the scheduler is not polled after the last tick
    return (
        f"{table}\npipeline outputs in {out}\n"
        f"audio messages pending at end of run: {scheduler.pending}"
    )


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
        p.add_argument("--seed", type=_seed, default=None, help="override scenario seed")
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
    p.add_argument("--batch", type=_count, default=1000)
    p.add_argument("--tol", type=_POSITIVE, default=1e-3)
    p.add_argument("--max-iter", type=_count, default=20)
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
        type=_position,
        default=None,
        help="'lat, lon, alt' ENU frame for est.csv (default: first GPS fix)",
    )
    p.add_argument("--accel-noise", type=_noise_flag("accel_noise"), default=LocalizerConfig.accel_noise)
    p.add_argument("--gyro-noise", type=_noise_flag("gyro_noise"), default=LocalizerConfig.gyro_noise)
    p.add_argument("--gps-std", type=_noise_flag("gps_pos_std"), default=LocalizerConfig.gps_pos_std)
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


def _print_report(text: str) -> None:
    """Print a command's report; a stdout that cannot take it is a data error, and
    is then pointed at os.devnull so that the interpreter's flush at exit succeeds."""
    try:
        print(text, flush=True)
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise DataError(f"<stdout>: {exc.strerror}") from None


def main(argv=None) -> int:
    """Run one command; returns its exit code.  ``argv=None`` is the process's
    command line, and the process ends when main returns: its import-time heap
    is frozen, so neither the command's collections nor the exit walk it."""
    if argv is None:
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _print_report(args.func(args))
        return EXIT_OK
    except DataError as exc:
        print(f"fusenav: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"fusenav: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
