#!/usr/bin/env python3
"""Check that two source trees give byte-identical ``fusenav`` results.

Usage::

    python3 tools/compare_runs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository.  Both trees run
``python -m fusenav.cli run`` on the parent's ``walk110.cfg`` and
``perfbench/city.cfg``, seeds 0-3, ``--mode raw|dmp`` and ``--gps on|off``:
32 configurations.  For each walk110 configuration, both trees then
replay the per-stage commands that the bench's replay110 job times,
``fuse-sonar``, ``localize --offsets --ref <walk110 anchor>`` and
``evaluate``, over the files of the parent's run, so that both read the
same bytes.  Last, both trees run seven commands that must be refused,
each with the exit code it states, over faulty copies of the first
walk110 run's files and of ``walk110.cfg``.  Six exit 2: a duplicate
time on ``imu.csv`` row 101 (``localize``);
a header-only ``gps.csv`` (``localize``); a ``sonar.csv`` with its first
front row removed (``fuse-sonar``); ``run`` with ``gyro_bias = 0, 0,
1e300``, a bias beyond the IMU's full scale (refused at its scenario
key, or, in a tree that reads any finite bias, at the first ``imu.csv``
step that it rotates too far); ``localize`` with ``imu.csv`` data row
3001's gyro cells at ``1e100``, readings beyond full scale (refused at
``imu.csv:3002``, or, in a tree that reads any finite reading, run to
the end); and ``run`` with ``accel_bias = 0, 0, -156.9``, a bias within
full scale whose simulated readings are not (refused at the scenario's
noise keys before any file is written, or, in a tree that bounds only
the localizer's input, at ``imu.csv:3`` after six files are written).
One exits 1: ``localize --gps-std 1e-200`` over the first three
``imu.csv`` rows and a ``gps.csv`` whose second row repeats the anchor
fix, a setting whose square is 0 (refused at the flag, or, in a tree
that takes any positive setting, exit 3 with ``Singular matrix``, as
the fix applied before the first step has S = 0).
That makes 55 configurations.  Each
command has ``PYTHONPATH=<root>/src``, ``PYTHONDONTWRITEBYTECODE=1`` and
``PYTHONHASHSEED=0``.  The script compares the exit codes, the stdout and
stderr with the output directory masked, the sets of files written, and
each file byte for byte.  It prints one line per configuration and
refusal case, and exits 1 on any difference or on a refusal case that
the changed tree does not exit with its stated code on.
Commands go one at a time, so at most one pipeline is in memory.  A last
line gives each tree's line total over ``src/fusenav/*.py``, as ``wc -l``
counts them.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = {
    "walk110": Path("src/fusenav/scenarios/walk110.cfg"),
    "city": Path("perfbench/city.cfg"),
}
SEEDS = range(4)
MODES = ("raw", "dmp")
GPS = ("on", "off")
WALK110_ANCHOR = "37.0, -122.0, 30.0"  # walk110.cfg's anchor, as the replay110 job passes it


def fusenav(root: Path, commands, out: Path) -> dict:
    """Exit codes, masked stdout and stderr, and files written of ``root``'s
    ``fusenav`` commands, each an argv without ``--out``, run in turn."""
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    result = {}
    for argv in commands:
        argv = [sys.executable, "-m", "fusenav.cli", *argv, "--out", str(out)]
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
        for key, value in (
            ("exit code", proc.returncode),
            ("stdout", proc.stdout.replace(str(out), "<OUT>")),
            ("stderr", proc.stderr.replace(str(out), "<OUT>")),
        ):
            result.setdefault(key, []).append(value)
    files = sorted(out.iterdir()) if out.is_dir() else []
    result["files"] = [f.name for f in files]
    return {**result, **{f.name: f.read_bytes() for f in files}}


def replay(run_dir: Path, out: Path) -> list:
    """The replay110 job's per-stage commands over the files of one run."""
    return [
        ["fuse-sonar", "--sonar", str(run_dir / "sonar.csv")],
        [
            "localize", "--imu", str(run_dir / "imu.csv"), "--gps", str(run_dir / "gps.csv"),
            "--offsets", str(run_dir / "offsets.cfg"), "--ref", WALK110_ANCHOR,
        ],
        ["evaluate", "--est", str(out / "est.csv"), "--truth", str(run_dir / "truth.csv")],
    ]


def refusals(run_dir: Path, scenario: Path, faults: Path) -> dict:
    """(exit code, commands) that must be refused, by label, over faulty
    copies of one walk110 run's files and of ``scenario``, written to ``faults``."""
    faults.mkdir()
    imu = (run_dir / "imu.csv").read_text().splitlines(keepends=True)
    time, rest = imu[99].split(",")[0], imu[100].partition(",")[2]
    (faults / "imu_dup.csv").write_text("".join([*imu[:100], f"{time},{rest}", *imu[101:]]))
    cells = imu[3001].split(",")  # t, accel x y z, gyro x y z
    spin = ",".join([*cells[:4], "1e100", "1e100", "1e100\n"])
    (faults / "imu_spin.csv").write_text("".join([*imu[:3001], spin, *imu[3002:]]))
    gps = (run_dir / "gps.csv").read_text().splitlines(keepends=True)
    (faults / "gps_head.csv").write_text(gps[0])
    (faults / "imu_3.csv").write_text("".join(imu[:4]))
    (faults / "gps_anchor_twice.csv").write_text("".join([*gps[:2], gps[1]]))
    sonar = (run_dir / "sonar.csv").read_text().splitlines(keepends=True)
    sonar.remove(next(line for line in sonar if ",front," in line))
    (faults / "sonar_front.csv").write_text("".join(sonar))
    for name, key, value in (("spin.cfg", "gyro_bias", "0, 0, 1e300"), ("sink.cfg", "accel_bias", "0, 0, -156.9")):
        lines = [ln for ln in scenario.read_text().splitlines(keepends=True) if not ln.startswith(key)]
        (faults / name).write_text("".join([*lines, f"{key} = {value}\n"]))
    imu_path, gps_path = str(run_dir / "imu.csv"), str(run_dir / "gps.csv")
    return {
        "refused: localize, duplicate time on imu.csv row 101": (2, [
            ["localize", "--imu", str(faults / "imu_dup.csv"), "--gps", gps_path]]),
        "refused: localize, header-only gps.csv": (2, [
            ["localize", "--imu", imu_path, "--gps", str(faults / "gps_head.csv")]]),
        "refused: fuse-sonar, first front row removed": (2, [
            ["fuse-sonar", "--sonar", str(faults / "sonar_front.csv")]]),
        "refused: run, gyro_bias = 0, 0, 1e300": (2, [
            ["run", "--scenario", str(faults / "spin.cfg")]]),
        "refused: localize, gyro cells of imu.csv data row 3001 at 1e100": (2, [
            ["localize", "--imu", str(faults / "imu_spin.csv"), "--gps", gps_path]]),
        "refused: run, accel_bias = 0, 0, -156.9": (2, [
            ["run", "--scenario", str(faults / "sink.cfg")]]),
        "refused: localize --gps-std 1e-200, anchor fix repeated": (1, [
            ["localize", "--imu", str(faults / "imu_3.csv"), "--gps", str(faults / "gps_anchor_twice.csv"),
             "--gps-std", "1e-200"]]),
    }


def compare(label: str, results: list) -> bool:
    """Print whether two trees' results agree; True when they do."""
    keys = sorted(set(results[0]) | set(results[1]))
    diffs = [k for k in keys if results[0].get(k) != results[1].get(k)]
    codes = " ".join(map(str, results[0]["exit code"]))
    if diffs:
        print(f"{label}: DIFFERENT ({', '.join(diffs)})")
    else:
        print(f"{label}: identical (exit {codes}, {len(results[0]['files'])} files)")
    return not diffs


def source_lines(root: Path) -> int:
    """Newlines in ``root/src/fusenav/*.py``, the ``wc -l`` total."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "fusenav").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for root in (parent, change):
        if not (root / "src" / "fusenav").is_dir():
            parser.error(f"{root} holds no src/fusenav")
    same = total = 0
    sides = (("parent", parent), ("change", change))
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        first_run = None  # the parent's first walk110 run
        for (name, rel), seed, mode, gps in itertools.product(
            SCENARIOS.items(), SEEDS, MODES, GPS
        ):
            label = f"{name} seed={seed} mode={mode} gps={gps}"
            argv = ["run", "--scenario", str(parent / rel), "--seed", str(seed)]
            argv += ["--mode", mode, "--gps", gps]
            outs = {side: Path(tmp) / side / label.replace(" ", "_") for side, _ in sides}
            results = [fusenav(root, [argv], outs[side]) for side, root in sides]
            same += compare(label, results)
            total += 1
            if name == "walk110":
                first_run = first_run or outs["parent"]
                results = []
                for side, root in sides:
                    out = outs[side].with_name(outs[side].name + "_replay")
                    results.append(fusenav(root, replay(outs["parent"], out), out))
                same += compare(f"{label} replay", results)
                total += 1
        cases = refusals(first_run, parent / SCENARIOS["walk110"], Path(tmp) / "faults")
        for i, (label, (code, commands)) in enumerate(cases.items()):
            outs = {side: Path(tmp) / side / f"refused_{i}" for side, _ in sides}
            results = [fusenav(root, commands, outs[side]) for side, root in sides]
            refused = results[1]["exit code"] == [code]
            if not refused:
                print(f"{label}: not refused with exit {code}")
            same += compare(label, results) and refused
            total += 1
    print(f"{same} of {total} configurations identical")
    print(f"src/fusenav/*.py lines: parent {source_lines(parent)}, change {source_lines(change)}")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
