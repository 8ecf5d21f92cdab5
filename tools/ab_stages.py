#!/usr/bin/env python3
"""A/B timing of ``fusenav`` processes, as users start them, on two source trees.

Usage::

    python3 tools/ab_stages.py PARENT_ROOT CHANGE_ROOT [--pairs N]

Each root is a checkout of this repository.  Four cases are timed:

- ``replay110``: the bench's replay110 job, ``fuse-sonar``,
  ``localize --offsets --ref <walk110 anchor>`` and ``evaluate``, one
  process each, over the files of one walk110 ``run`` made by the
  parent tree (so both trees read the same bytes); its wall and CPU times
  are the three processes' sums and its maxrss their largest;
- ``city run``: one ``fusenav run`` of the parent's ``perfbench/city.cfg``,
  seed 0;
- ``import``: ``python -c "import fusenav.cli"``;
- ``--help``: ``python -m fusenav.cli --help``, the interpreter start, the
  imports and the parser, but no command.

Every child runs with ``PYTHONPATH=<root>/src`` and
``PYTHONDONTWRITEBYTECODE=1``, so each start compiles fusenav from source
as on the bench host, and is reaped with ``os.wait4`` for its own peak
RSS and its CPU time, user plus system, which includes the children it
reaped (``run``'s forked writers).  CPU time above wall time means threads
ran side by side, as an idle OpenBLAS worker spinning does.  For each of
``--pairs`` pairs, each case runs once per tree, alternating which tree
goes first.  Per case and tree the script prints the median and quartiles
of the wall time, the CPU time and the maxrss, then the ratio of the
median wall times (parent over change, above 1 when the change is faster)
and in how many pairs the change was faster.  A child
that exits non-zero stops the script with exit 1.  It checks no output;
``tools/compare_runs.py`` does.

Running the pairs back to back, alternating, keeps a shared host's drift,
which moves whole bench runs by several per cent, out of the ratio.  It
is the CLI companion of ``tools/ab_montecarlo.py``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

WALK110 = Path("src/fusenav/scenarios/walk110.cfg")
CITY = Path("perfbench/city.cfg")
WALK110_ANCHOR = "37.0, -122.0, 30.0"  # walk110.cfg's anchor, as the replay110 job passes it
SIDES = ("parent", "change")


def start(root: Path, argv: list, log: Path) -> tuple[float, float, float]:
    """Run ``python argv`` with ``root``'s fusenav; returns (wall s, CPU s, maxrss MiB)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with open(log, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{root}: {' '.join(map(str, argv))} exited {proc.returncode}:\n{log.read_text()}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def cases(parent: Path, run: Path, work: Path) -> dict:
    """Case name -> the argvs of its processes, run one after another."""
    cli = ["-m", "fusenav.cli"]
    out = str(work / "out")
    return {
        "replay110": [
            [*cli, "fuse-sonar", "--sonar", str(run / "sonar.csv"), "--out", out],
            [
                *cli, "localize", "--imu", str(run / "imu.csv"), "--gps", str(run / "gps.csv"),
                "--offsets", str(run / "offsets.cfg"), "--ref", WALK110_ANCHOR, "--out", out,
            ],
            [*cli, "evaluate", "--est", str(work / "out" / "est.csv"),
             "--truth", str(run / "truth.csv"), "--out", out],
        ],
        "city run": [[*cli, "run", "--scenario", str(parent / CITY), "--seed", "0", "--out", out]],
        "import": [["-c", "import fusenav.cli"]],
        "--help": [[*cli, "--help"]],
    }


def report(side: str, walls: list, cpus: list, rss: list) -> None:
    (w1, w2, w3), (c1, c2, c3), (r1, r2, r3) = (statistics.quantiles(x, n=4) for x in (walls, cpus, rss))
    print(
        f"  {side}: wall median {w2 * 1e3:.1f} ms, quartiles {w1 * 1e3:.1f}-{w3 * 1e3:.1f} ms; "
        f"cpu median {c2 * 1e3:.1f} ms, quartiles {c1 * 1e3:.1f}-{c3 * 1e3:.1f} ms; "
        f"maxrss median {r2:.2f} MiB, quartiles {r1:.2f}-{r3:.2f} MiB"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per case")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "src" / "fusenav").is_dir():
            parser.error(f"{root} holds no src/fusenav")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    with tempfile.TemporaryDirectory(prefix="ab_stages_") as tmp:
        work, run = Path(tmp), Path(tmp) / "walk110"
        scenario = str(roots["parent"] / WALK110)
        start(roots["parent"], ["-m", "fusenav.cli", "run", "--scenario", scenario, "--out", str(run)],
              work / "stderr.log")
        table = cases(roots["parent"], run, work)
        # times[case][side]: (wall s, CPU s, maxrss MiB) per pair
        times = {case: {side: [] for side in SIDES} for case in table}
        for i in range(args.pairs):
            for case, argvs in table.items():
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs = [start(roots[side], a, work / "stderr.log") for a in argvs]
                    walls, cpus, rss = zip(*runs)
                    times[case][side].append((sum(walls), sum(cpus), max(rss)))
    for case, by_side in times.items():
        print(f"{case} ({args.pairs} pairs, PYTHONDONTWRITEBYTECODE=1):")
        for side in SIDES:
            report(side, *zip(*by_side[side]))
        parent, change = ([w for w, _, _ in by_side[side]] for side in SIDES)
        faster = sum(c < p for p, c in zip(parent, change))
        ratio = statistics.median(parent) / statistics.median(change)
        print(f"  ratio parent/change {ratio:.3f}; change faster in {faster} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
