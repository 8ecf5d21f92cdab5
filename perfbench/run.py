#!/usr/bin/env python3
"""fusenav benchmark: end-to-end metrics per workload, traced per-layer timings.

Run from the repository root (it needs ``src/fusenav``)::

    python3 perfbench/run.py --workload city --seed 0 --seconds 30 --trace 0

Workloads: city, replay110, montecarlo (see README.md).  A run
sets up five times (the median is ``setup_s``), then runs jobs back to
back, one at a time, for ``--seconds`` and at least until each of the
workload's scenario seeds has run once.

``--trace 0`` runs every job as a user would (a ``fusenav`` subprocess
per CLI call; montecarlo in this process) and reports the end-to-end
metrics.  Their times are reference-host seconds: each set-up and each
job (for montecarlo, each walk) is scaled by how fast a fixed probe ran
just before and after it (``workloads.HostClock``); the unscaled figures
go to the info line.  ``--trace 1`` runs every job in this process, alternately plain
and with fusenav's public functions wrapped by span recorders, and
reports the per-layer metrics; ``trace.overhead_s`` is the traced minus
the plain job time.  Spans of the last traced job and a per-name summary
go to ``.bench_out/traces/``.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it carries the machine info and
the per-job records.  The bench measures only its own processes: it
drops no caches and tunes no cgroup or kernel setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import layers
import workloads as wl
from spans import Tracer, summarize

STOP_STARTING_S = 140.0  # no new job after this; the run must end within 180 s
DEADLINE_S = 170.0  # a child still running then is killed
MAX_CHILD_S = 120.0
END_TO_END_UNITS = {
    "walk_s_per_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "loc_mean_err_m": "m",
}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((wl.SRC / "fusenav").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            h.update(str(path.relative_to(wl.SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout; ``git`` resolves packed refs and worktrees."""
    if not (wl.ROOT / ".git").exists():  # do not let git search parent directories
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (git rev-parse failed)"


def machine_info(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "isolation": "own processes only; no cache dropping, no cgroup or kernel tuning",
    }


def run_jobs(seconds: float, min_jobs: int, started: float, one) -> None:
    """Call ``one(i)`` back to back until ``seconds`` have passed and at
    least ``min_jobs`` ran; after the first, none starts past the budget."""
    t0 = perf_counter()
    i = 0
    while (i < min_jobs or perf_counter() - t0 < seconds) and (
        i == 0 or perf_counter() - started < STOP_STARTING_S
    ):
        one(i)
        i += 1


def untraced(load, args, setup_ref_s, started):
    jobs: list[wl.Job] = []
    run_jobs(args.seconds, load.k, started, lambda i: jobs.append(load.job(i, False)))
    errs = [j.err_m for j in jobs[: load.k] if j.err_m is not None]
    metrics = {
        "walk_s_per_s": sum(j.walk_s for j in jobs) / sum(j.ref_s for j in jobs),
        "setup_s": statistics.median(setup_ref_s),
        "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
        "loc_mean_err_m": statistics.fmean(errs) if errs else 0.0,
    }
    return jobs, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, None


def traced(load, args, started):
    mods = load.modules()
    import_s = load.import_cost()
    jobs: list[wl.Job] = []
    plain, with_spans, per_job = [], [], []
    tracer = None

    def pair(i):
        nonlocal tracer
        job = load.job(i, True)
        jobs.append(job)
        plain.append(job.wall_s)
        tracer = Tracer()
        tracer.install(mods, layers.WRAPS)
        try:
            job = load.job(i, True)
        finally:
            tracer.uninstall()
        jobs.append(job)
        with_spans.append(job.wall_s)
        per_job.append(layers.layer_metrics(tracer.spans, import_s))

    run_jobs(args.seconds, 1, started, pair)
    values = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    values["trace.overhead_s"] = statistics.median(with_spans) - statistics.median(plain)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in layers.PER_LAYER.items()}
    t_zero = tracer.spans[0][1] if tracer.spans else 0.0
    trace = {
        "absent": tracer.absent,
        "per_job_metrics": per_job,
        "summary": summarize(tracer.spans),
        "spans": [
            [name, round((t0 - t_zero) * 1e6, 1), round((t1 - t_zero) * 1e6, 1), parent]
            for name, t0, t1, parent, _ in tracer.spans
        ],
    }
    return jobs, metrics, trace


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "fusenav" / "cli.py").is_file():
        print(f"perfbench: no src/fusenav/cli.py under {wl.ROOT}; run from the repository root",
              file=sys.stderr)
        return 2

    out_dir = wl.ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    load = wl.WORKLOADS[args.workload]()
    load.prepare(
        args.seed, work, wl.load_references(),
        lambda: max(1.0, min(MAX_CHILD_S, DEADLINE_S - (perf_counter() - started))),
    )
    try:
        clock = None if args.trace else load.host_clock()
        setup_times, setup_ref_s = [], []
        for rep in range(wl.SETUP_REPEATS):
            t0 = perf_counter()
            load.setup(rep)
            setup_times.append(perf_counter() - t0)
            setup_ref_s.append(clock.scale(setup_times[-1]) if clock else setup_times[-1])
        if args.trace:
            jobs, metrics, trace = traced(load, args, started)
        else:
            load.clock = clock
            jobs, metrics, trace = untraced(load, args, setup_ref_s, started)
    except wl.SetupError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not j.ok for j in jobs)
    info = {
        "machine": machine_info(args),
        "setup_wall_s": setup_times,
        "walk_s_per_wall_s": sum(j.walk_s for j in jobs) / sum(j.wall_s for j in jobs),
        "probe_s": [round(p, 6) for p in clock.probes] if clock else None,
        "jobs": [
            [round(j.wall_s, 6), round(j.ref_s, 6), j.walk_s, round(j.rss_mb, 3), j.err_m, j.ok]
            for j in jobs
        ],
    }
    if trace is not None:
        info["absent"] = trace["absent"]
        trace_path = out_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({**info, **trace}))
    for name, m in metrics.items():
        print(f"# {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
