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
same bytes.  Last, both trees run four commands that must be refused
with exit 2, over faulty copies of the first walk110 run's files: a
duplicate time on ``imu.csv`` row 101 (``localize``), a header-only
``gps.csv`` (``localize``), a ``sonar.csv`` with its first front row
removed (``fuse-sonar``), and ``run`` with ``gyro_bias = 0, 0, 1e300``,
whose first step rotates too far.  Each command has ``PYTHONPATH=<root>/src``,
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONHASHSEED=0``.  The script
compares the exit codes, the stdout and stderr with the output directory
masked, the sets of files written, and each file byte for byte.  It
prints one line per configuration and refusal case, and exits 1 on any
difference or on a refusal case that does not exit 2.
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
    """Commands that must exit 2, by label, over faulty copies of one
    walk110 run's files and of ``scenario``, written to ``faults``."""
    faults.mkdir()
    imu = (run_dir / "imu.csv").read_text().splitlines(keepends=True)
    time, rest = imu[99].split(",")[0], imu[100].partition(",")[2]
    (faults / "imu_dup.csv").write_text("".join([*imu[:100], f"{time},{rest}", *imu[101:]]))
    gps = (run_dir / "gps.csv").read_text().splitlines(keepends=True)
    (faults / "gps_head.csv").write_text(gps[0])
    sonar = (run_dir / "sonar.csv").read_text().splitlines(keepends=True)
    sonar.remove(next(line for line in sonar if ",front," in line))
    (faults / "sonar_front.csv").write_text("".join(sonar))
    lines = [ln for ln in scenario.read_text().splitlines(keepends=True)
             if not ln.startswith("gyro_bias")]
    (faults / "spin.cfg").write_text("".join([*lines, "gyro_bias = 0, 0, 1e300\n"]))
    imu_path, gps_path = str(run_dir / "imu.csv"), str(run_dir / "gps.csv")
    return {
        "refused: localize, duplicate time on imu.csv row 101": [
            ["localize", "--imu", str(faults / "imu_dup.csv"), "--gps", gps_path]],
        "refused: localize, header-only gps.csv": [
            ["localize", "--imu", imu_path, "--gps", str(faults / "gps_head.csv")]],
        "refused: fuse-sonar, first front row removed": [
            ["fuse-sonar", "--sonar", str(faults / "sonar_front.csv")]],
        "refused: run, gyro_bias = 0, 0, 1e300": [
            ["run", "--scenario", str(faults / "spin.cfg")]],
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
        for i, (label, commands) in enumerate(cases.items()):
            outs = {side: Path(tmp) / side / f"refused_{i}" for side, _ in sides}
            results = [fusenav(root, commands, outs[side]) for side, root in sides]
            refused = results[0]["exit code"] == [2]
            if not refused:
                print(f"{label}: not refused")
            same += compare(label, results) and refused
            total += 1
    print(f"{same} of {total} configurations identical")
    print(f"src/fusenav/*.py lines: parent {source_lines(parent)}, change {source_lines(change)}")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
