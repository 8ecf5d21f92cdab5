#!/usr/bin/env python3
"""In-process A/B timing of the bench's ``montecarlo`` job on two source trees.

Usage::

    python3 tools/ab_montecarlo.py PARENT_ROOT CHANGE_ROOT [--rounds N]

Each root is a checkout of this repository.  Each tree's ``src/fusenav``
is copied into a temporary directory under its own package name
(``fusenav_parent``, ``fusenav_change``; the package imports itself
relatively), so both run in this one process.  The job is
``montecarlo_walks`` from CHANGE_ROOT's ``perfbench/workloads.py``: the
three localizer walks of one seed.

Both trees first run every seed once, untimed; the script exits 1 unless
each seed's three errors are identical between them, and so is each
walk's ``LocalizerRun``: its ``t``, ``p``, ``v`` and ``q`` arrays bit for
bit, and its accepted and rejected fix counts.  Then, for ``--rounds``
rounds over the seeds, it times one job of each tree per (round, seed),
alternating which tree goes first, and prints both trees' median job time
with its quartiles, their ratio (parent over change, above 1 when the
change is faster) and in how many of the pairs the change was faster.
It then prints the same medians, ratio and count for each kind of walk
(raw GPS on, raw GPS off, dmp), timed one walk at a time within the jobs:
a saving per GPS fix shows in the GPS-on walks alone, one per IMU step in
all three.

Running both trees side by side in one process keeps a shared host's
drift, which moves whole subprocess runs by up to 1.5x, out of the ratio.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

SEEDS = range(8)  # the montecarlo workload's k
KINDS = ("raw GPS on", "raw GPS off", "dmp")  # the walks of a job, in montecarlo_cases' order
MODULES = ("sim", "metrics", "localizer")


def load_tree(root: Path, name: str, tmp: Path) -> dict:
    """The modules the walks use, imported from a copy of ``root``'s package."""
    shutil.copytree(root / "src" / "fusenav", tmp / name)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location("ab_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def recorded(mods: dict, walks, seed: int) -> tuple[list, list]:
    """A seed's walk errors, and the ``LocalizerRun`` of each walk."""
    runs, loc = [], mods["localizer"]

    def run_localizer(*args, **kwargs):
        runs.append(loc.run_localizer(*args, **kwargs))
        return runs[-1]

    spy = types.SimpleNamespace(**{**vars(loc), "run_localizer": run_localizer})
    return walks({**mods, "localizer": spy}, seed), runs


def same_bits(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def run_differences(a, b) -> list[str]:
    """The fields in which two ``LocalizerRun`` differ, arrays bit for bit."""
    arrays = [k for k in ("t", "p", "v", "q") if not same_bits(getattr(a, k), getattr(b, k))]
    counts = [k for k in ("accepted_fixes", "rejected_fixes") if getattr(a, k) != getattr(b, k)]
    return arrays + counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    parser.add_argument("--rounds", type=int, default=6, help="timed rounds over the seeds")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for root in (parent, change):
        if not (root / "src" / "fusenav").is_dir():
            parser.error(f"{root} holds no src/fusenav")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workloads = load_workloads(change)
    walks = workloads.montecarlo_walks
    with tempfile.TemporaryDirectory(prefix="ab_montecarlo_") as tmp:
        sys.path.insert(0, tmp)
        trees = {
            "parent": load_tree(parent, "fusenav_parent", Path(tmp)),
            "change": load_tree(change, "fusenav_change", Path(tmp)),
        }
        differ = 0
        for seed in SEEDS:
            (errs, runs), (errs_c, runs_c) = (recorded(m, walks, seed) for m in trees.values())
            fields = [run_differences(a, b) for a, b in zip(runs, runs_c, strict=True)]
            if errs != errs_c or any(fields):
                differ += 1
                print(f"seed {seed}: errors {errs} and {errs_c}; runs differ in {fields}")
        if differ:
            print(f"{differ} of {len(SEEDS)} seeds differ; no timing run")
            return 1
        print(
            f"errors and runs (t, p, v, q bit for bit, fix counts) identical on seeds "
            f"{SEEDS.start}-{SEEDS.stop - 1} (three walks each)"
        )

        cases = {side: workloads.montecarlo_cases(mods["sim"]) for side, mods in trees.items()}
        # times[side][k]: walk kind k's times; a job's time is the sum of its three walks'
        times = {side: [[] for _ in KINDS] for side in trees}
        for rnd in range(args.rounds):
            for seed in SEEDS:
                order = ("parent", "change") if (rnd + seed) % 2 == 0 else ("change", "parent")
                for side in order:
                    for ts, case in zip(times[side], cases[side], strict=True):
                        t0 = perf_counter()
                        workloads.montecarlo_walk(trees[side], seed, *case)
                        ts.append(perf_counter() - t0)
    jobs = {side: [sum(walk) for walk in zip(*ts)] for side, ts in times.items()}
    med = {side: report(f"{side} job (three walks)", ts) for side, ts in jobs.items()}
    print(f"ratio parent/change {med['parent'] / med['change']:.3f}; {wins(jobs)}")
    for k, kind in enumerate(KINDS):
        ts = {side: times[side][k] for side in trees}
        p, c = (statistics.median(ts[side]) for side in trees)
        print(
            f"{kind} walks: median parent {p * 1e3:.2f} ms, change {c * 1e3:.2f} ms, "
            f"ratio parent/change {p / c:.3f}; {wins(ts)}"
        )
    return 0


def report(what: str, ts: list) -> float:
    """Print the median and quartiles of ``ts``; return the median."""
    q1, q2, q3 = statistics.quantiles(ts, n=4)
    print(f"{what}: median {q2 * 1e3:.2f} ms, quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f} ms")
    return q2


def wins(times: dict) -> str:
    faster = sum(c < p for p, c in zip(times["parent"], times["change"], strict=True))
    return f"change faster in {faster} of {len(times['parent'])} pairs"


if __name__ == "__main__":
    sys.exit(main())
