#!/usr/bin/env python3
"""Check that two source trees give byte-identical ``fusenav run`` results.

Usage::

    python3 tools/compare_runs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository.  Both trees run
``python -m fusenav.cli run`` on the parent's ``walk110.cfg`` and
``perfbench/city.cfg``, seeds 0-3, ``--mode raw|dmp`` and ``--gps on|off``:
32 configurations.  Each run has ``PYTHONPATH=<root>/src``,
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONHASHSEED=0``.  The script
compares the exit codes, the stdout and stderr with the output directory
masked, the sets of files written, and each file byte for byte.  It
prints one line per configuration and exits 1 on any difference.  Runs
go one at a time, so at most one pipeline is in memory.  A last line
gives each tree's line total over ``src/fusenav/*.py``, as ``wc -l``
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


def run(root: Path, scenario: Path, out: Path, seed: int, mode: str, gps: str) -> dict:
    """Exit code, masked stdout and stderr, and files of one run of ``root``."""
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    argv = [
        sys.executable, "-m", "fusenav.cli", "run", "--scenario", str(scenario),
        "--out", str(out), "--seed", str(seed), "--mode", mode, "--gps", gps,
    ]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout.replace(str(out), "<OUT>"),
        "stderr": proc.stderr.replace(str(out), "<OUT>"),
        "files": [f.name for f in files],
        **{f.name: f.read_bytes() for f in files},
    }


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
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        for (name, rel), seed, mode, gps in itertools.product(
            SCENARIOS.items(), SEEDS, MODES, GPS
        ):
            label = f"{name} seed={seed} mode={mode} gps={gps}"
            scenario = parent / rel
            results = [
                run(root, scenario, Path(tmp) / side / label.replace(" ", "_"), seed, mode, gps)
                for side, root in (("parent", parent), ("change", change))
            ]
            keys = sorted(set(results[0]) | set(results[1]))
            diffs = [k for k in keys if results[0].get(k) != results[1].get(k)]
            code = results[0]["exit code"]
            if diffs:
                differ += 1
                print(f"{label}: DIFFERENT ({', '.join(diffs)})")
            else:
                print(f"{label}: identical (exit {code}, {len(results[0]['files'])} files)")
    total = len(SCENARIOS) * len(SEEDS) * len(MODES) * len(GPS)
    print(f"{total - differ} of {total} configurations identical")
    print(f"src/fusenav/*.py lines: parent {source_lines(parent)}, change {source_lines(change)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
