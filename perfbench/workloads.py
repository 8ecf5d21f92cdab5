"""The three bench workloads, their jobs and their output checks.

A workload prepares its inputs from the run's seed, sets up (timed, and
repeated so the run can report a median), then runs jobs.  A job is one
unit of user-visible work: one ``fusenav run`` (city), one
``fuse-sonar`` + ``localize`` + ``evaluate`` replay over files
(replay110), or one Monte Carlo seed of three localizer walks
(montecarlo).  Every job is checked against references recorded at the
seed commit (``references.json``); a job whose exit code is not 0 or
whose check fails is a failed job.

fusenav is driven only from outside: subprocess jobs run
``python -m fusenav.cli`` with the checkout's ``src`` on ``PYTHONPATH``;
in-process jobs (montecarlo, and every job of a traced run) call public
functions and ``cli.main``.  ``PYTHONHASHSEED`` is never pinned.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WALK110_CFG = SRC / "fusenav" / "scenarios" / "walk110.cfg"
CITY_CFG = HERE / "city.cfg"
REFERENCES = HERE / "references.json"
WALK110_ANCHOR = "37.0, -122.0, 30.0"  # anchor of walk110.cfg, for localize --ref
REPORT_FLOATS = ("mean_m", "peak_m", "relative_percent", "path_length_m", "vertical_mean_m")
TOLERANCE_M = 1e-9
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median


class SetupError(RuntimeError):
    """The workload could not build its inputs; no job can run."""


@dataclass
class Job:
    wall_s: float
    ref_s: float  # wall_s at the reference host speed (HostClock)
    walk_s: float  # simulated walk seconds the job completed; 0 when failed
    rss_mb: float  # peak resident memory of the process that did the job
    err_m: float | None  # mean localization error from the job's report
    ok: bool


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def job_seeds(seed: int, k: int, n_refs: int) -> list[int]:
    """The k scenario seeds of a run: consecutive, wrapped onto the seeds
    that have references.  The same run seed always gives the same list."""
    return [(seed * k + j) % n_refs for j in range(k)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_python(argv, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run ``python argv`` to completion; returns (exit code, wall s, peak MiB).

    The child is reaped with ``wait4`` so its own peak RSS is read; a
    timer kills it after ``timeout`` seconds (exit code then non-zero).
    """
    with open(log, "ab") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], env=child_env(), stdout=out, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_cli(argv, log: Path, timeout: float):
    return run_python(["-m", "fusenav.cli", *argv], log, timeout)


def import_fusenav() -> dict:
    """Import fusenav from the checkout's src; returns its modules by name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("cli", "core", "feedback", "geo", "localizer", "metrics", "perception", "sim", "sonar_ekf")
    return {n: importlib.import_module(f"fusenav.{n}") for n in names}


def run_cli_inprocess(mods: dict, argv) -> tuple[int, float]:
    """``cli.main(argv)`` in this process with its output discarded.

    An exception that escapes ``main`` fails the job (exit code -1), as
    a traceback would fail the subprocess job; it is printed to stderr.
    """
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = mods["cli"].main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, perf_counter() - t0


def report_values(path: Path) -> dict:
    with open(path, newline="") as f:
        (row,) = csv.DictReader(f)
    out = {k: float(row[k]) for k in REPORT_FLOATS}
    out["n_points"] = int(row["n_points"])
    return out


def feedback_digest(path: Path) -> str:
    """sha256 of feedback.csv with the recognition label text masked.

    The labels and confidences that MockRecognizer draws are keyed on
    ``hash(channel.value)`` and so change with PYTHONHASHSEED (ROADMAP
    Open item 5).  Every other field is compared; tighten this to the
    whole file once that item lands.
    """
    rows = []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if len(row) == 4 and row[1] == "audio" and row[3].startswith("label "):
                row = row[:3] + ["label"]
            rows.append(",".join(row))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def run_outputs(out: Path) -> dict:
    """What a `fusenav run` job is checked on, in references.json's form."""
    return {"report": report_values(out / "report.csv"), "feedback": feedback_digest(out / "feedback.csv")}


def matches(got: dict, ref: dict) -> bool:
    g, r = got["report"], ref["report"]
    return (
        got["feedback"] == ref["feedback"]
        and g["n_points"] == r["n_points"]
        and all(abs(g[k] - r[k]) <= TOLERANCE_M for k in REPORT_FLOATS)
    )


def montecarlo_cases(sim) -> list:
    """(noise, GPS on) of the three walks of a Monte Carlo seed."""
    raw = sim.NoiseConfig()
    return [(raw, True), (raw, False), (raw.dmp_like(), True)]


def montecarlo_walk(mods: dict, seed: int, noise, gps_on: bool) -> float:
    """Mean horizontal error of one walk of the walk110 route.

    Mirrors the criteria 3/4 acceptance fixture: simulate, calibrate,
    localize and evaluate through the public API.
    """
    sim, metrics, loc = mods["sim"], mods["metrics"], mods["localizer"]
    sc = sim.Scenario(route=((0.0, 0.0), (110.0, 0.0)), noise=noise, seed=seed)
    truth = sim.gen_walk(sc)
    imu = sim.synth_imu(truth, noise, seed)
    fixes = sim.synth_gps(truth, noise, seed, sc.gps_rate, sc.anchor_fix())
    if not gps_on:
        fixes = fixes[:1]
    offsets = loc.calibrate(sim.stationary_imu_source(noise, seed))
    cfg = loc.LocalizerConfig(
        accel_noise=max(noise.accel_sigma, 1e-4),
        gyro_noise=max(noise.gyro_sigma, 1e-5),
        gps_pos_std=max(noise.gps_sigma, 0.01),
    )
    run = loc.run_localizer(imu, fixes, cfg, offsets)
    report = metrics.evaluate(
        run.trajectory("est", frame=sc.anchor_fix()), sim.truth_trajectory(truth, "truth")
    )
    return report.mean


def montecarlo_walks(mods: dict, seed: int) -> list[float]:
    """Mean errors of a seed's raw GPS-on, raw GPS-off and dmp walks."""
    return [montecarlo_walk(mods, seed, *case) for case in montecarlo_cases(mods["sim"])]


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Host speed
#
# The probes are the bench's own code, so they do the same work at every
# commit; how long they take says how fast the shared host runs the bench
# right now.  See README.md, "The shared host and reference-host seconds".

PROBE_REF_S = 0.015  # probe_s() on the 2-vCPU host the bench was built on, in its usual state
CHILD_PROBE_REF_S = 0.30  # the same for child_probe_s()
CHILD_PROBE = """
import numpy as np
pages = np.ones(5_000_000)
pages *= 2.0
cov, noise, x = np.eye(9) * 0.1, np.eye(9) * 1e-6, np.ones(3)
for i in range(2000):
    f = np.eye(9)
    f[0:3, 3:6] = np.eye(3) * 0.01
    f[0:3, 6:9] = -0.5e-4 * np.outer(x, x)
    cov = f @ cov @ f.T + noise
    cov = 0.5 * (cov + cov.T)
rows = [f"{i * 0.01:.6f},{i * 1.5:.9f}" for i in range(50000)]
vals = [float(r.split(",")[1]) for r in rows]
"""


def probe_s() -> float:
    """Mean seconds of three runs of a fixed in-process kernel: 9x9
    covariance products and Python-level bookkeeping, the mix the
    localizer's step is made of."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        cov, noise, x = np.eye(9) * 0.1, np.eye(9) * 1e-6, np.ones(3)
        acc = 0.0
        for i in range(600):
            f = np.eye(9)
            f[0:3, 3:6] = np.eye(3) * 0.01
            f[0:3, 6:9] = -0.5e-4 * np.outer(x, x)
            cov = f @ cov @ f.T + noise
            cov = 0.5 * (cov + cov.T)
            row = {"i": i, "t": i * 0.5}
            acc += row["t"] + len(str(i))
        times.append(perf_counter() - t0)
    return statistics.fmean(times)


def child_probe_s(work: Path, timeout: float) -> float:
    """Wall seconds of a fixed child process shaped like a CLI job:
    interpreter start, numpy import, 40 MB of fresh pages, 9x9 covariance
    products and CSV-like string work."""
    rc, wall, _ = run_python(["-c", CHILD_PROBE], work / "probe.log", timeout)
    if rc != 0:
        raise SetupError(f"the host-speed probe process failed (exit {rc})")
    return wall


class HostClock:
    """Converts wall seconds of a timed segment to reference-host seconds.

    The host is shared: for seconds to minutes at a time it runs the bench
    up to 1.7x faster or slower, which moves whole 30 s runs.  A probe runs
    before the first segment and after each one, and a segment's wall time
    is scaled by the probe's reference time over the mean of the two
    probes around it.  Segments last a few seconds at most, so the probes
    follow the host's changes.
    """

    def __init__(self, probe, ref_s: float):
        self.probe, self.ref_s = probe, ref_s
        self.probes = [probe()]

    def scale(self, wall: float) -> float:
        self.probes.append(self.probe())
        return wall * self.ref_s / statistics.fmean(self.probes[-2:])


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name: str
    k: int  # distinct scenario seeds per run; loc_mean_err_m averages them
    cli_starts: int  # interpreter starts per job; 0 for in-process jobs

    def prepare(self, seed: int, work: Path, refs: dict, time_left) -> None:
        self.refs = refs
        self.work = work
        self.time_left = time_left  # () -> seconds a child may still run
        self.seeds = job_seeds(seed, self.k, refs["n_seeds"])
        self.mods: dict | None = None
        self.clock: HostClock | None = None  # set for untraced runs

    def scaled(self, wall: float) -> float:
        return wall if self.clock is None else self.clock.scale(wall)

    def host_clock(self) -> HostClock:
        """A clock whose probe is a child process, as the CLI jobs are."""
        return HostClock(lambda: child_probe_s(self.work, self.time_left()), CHILD_PROBE_REF_S)

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def job(self, i: int, inprocess: bool) -> Job:
        raise NotImplementedError

    def modules(self) -> dict:
        if self.mods is None:
            self.mods = import_fusenav()
        return self.mods

    def probe_import(self) -> float:
        """One interpreter start plus ``import fusenav.cli``, in a child."""
        rc, wall, _ = run_python(["-c", "import fusenav.cli"], self.work / "probe.log", self.time_left())
        if rc != 0:
            raise SetupError(f"importing fusenav.cli from {SRC} failed (exit {rc})")
        return wall

    def import_cost(self) -> float:
        """Seconds per job spent starting interpreters and importing fusenav."""
        probes = [self.probe_import() for _ in range(SETUP_REPEATS)]
        return statistics.median(probes) * self.cli_starts


class CityWorkload(Workload):
    """``fusenav run`` on the city scenario, one process per job."""

    name = "city"
    k = 8
    cli_starts = 1

    def setup(self, rep: int) -> None:
        # the first start compiles bytecode and fills the file cache
        self.probe_import()

    def job(self, i: int, inprocess: bool) -> Job:
        seed = self.seeds[i % self.k]
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--scenario", str(CITY_CFG), "--out", str(out), "--seed", str(seed)]
        if inprocess:
            rc, wall = run_cli_inprocess(self.modules(), argv)
            rss = 0.0
        else:
            rc, wall, rss = run_cli(argv, self.work / "jobs.log", self.time_left())
        ref = self.scaled(wall)
        if rc == 0:
            try:
                got = run_outputs(out)
            except (OSError, ValueError, KeyError):  # missing or malformed outputs
                rc = -1
        if rc != 0:
            return Job(wall, ref, 0.0, rss, None, False)
        ok = matches(got, self.refs[self.name][str(seed)])
        walk_s = self.refs[self.name]["walk_s"] if ok else 0.0
        return Job(wall, ref, walk_s, rss, got["report"]["mean_m"], ok)


class ReplayWorkload(Workload):
    """The per-stage CLI path over the files of a walk110 ``run``."""

    name = "replay110"
    k = SETUP_REPEATS  # one input set per set-up repetition
    cli_starts = 3
    OUTPUTS = ("fused.csv", "est.csv", "report.csv")

    def setup(self, rep: int) -> None:
        seed = self.seeds[rep]
        inputs = self.work / f"in{rep}"
        shutil.rmtree(inputs, ignore_errors=True)
        argv = ["run", "--scenario", str(WALK110_CFG), "--out", str(inputs), "--seed", str(seed)]
        rc, _, _ = run_cli(argv, self.work / "setup.log", self.time_left())
        try:
            ok = rc == 0 and matches(run_outputs(inputs), self.refs["walk110"][str(seed)])
        except (OSError, ValueError, KeyError):
            ok = False
        if not ok:
            raise SetupError(f"walk110 run for replay inputs (seed {seed}) failed its check")

    def stages(self, inputs: Path, out: Path) -> list[list[str]]:
        return [
            ["fuse-sonar", "--sonar", str(inputs / "sonar.csv"), "--out", str(out)],
            [
                "localize",
                "--imu", str(inputs / "imu.csv"),
                "--gps", str(inputs / "gps.csv"),
                "--offsets", str(inputs / "offsets.cfg"),
                "--ref", WALK110_ANCHOR,
                "--out", str(out),
            ],
            ["evaluate", "--est", str(out / "est.csv"), "--truth", str(inputs / "truth.csv"), "--out", str(out)],
        ]

    def job(self, i: int, inprocess: bool) -> Job:
        inputs = self.work / f"in{i % self.k}"
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        wall = rss = 0.0
        for argv in self.stages(inputs, out):
            if inprocess:
                rc, w = run_cli_inprocess(self.modules(), argv)
            else:
                rc, w, r = run_cli(argv, self.work / "jobs.log", self.time_left())
                rss = max(rss, r)
            wall += w
            if rc != 0:
                return Job(wall, self.scaled(wall), 0.0, rss, None, False)
        ref = self.scaled(wall)  # one segment: the job's stages run back to back
        # replaying the files reproduces the run's own outputs byte for byte
        try:
            ok = all((out / f).read_bytes() == (inputs / f).read_bytes() for f in self.OUTPUTS)
            err = report_values(out / "report.csv")["mean_m"]
        except (OSError, ValueError, KeyError):
            return Job(wall, ref, 0.0, rss, None, False)
        return Job(wall, ref, self.refs["walk110"]["walk_s"] if ok else 0.0, rss, err, ok)


class MonteCarloWorkload(Workload):
    """Three localizer walks per seed, in this process, no sonar, no CSV."""

    name = "montecarlo"
    k = 8
    cli_starts = 0

    def prepare(self, *args) -> None:
        super().prepare(*args)
        self.import_times: list[float] = []

    def import_cost(self) -> float:
        return statistics.median(self.import_times)  # the set-ups' in-process imports

    def host_clock(self) -> HostClock:
        """A clock whose probe runs in this process, as the walks do."""
        return HostClock(probe_s, PROBE_REF_S)

    def setup(self, rep: int) -> None:
        # A fresh in-process import of fusenav (numpy stays imported), then
        # one checked warm-up walk so that lazy set-up is not timed as work.
        # The import alone takes 40-70 ms, and which of the two a process
        # gets varies from run to run; too little to report steadily.
        for mod in [m for m in sys.modules if m == "fusenav" or m.startswith("fusenav.")]:
            del sys.modules[mod]
        t0 = perf_counter()
        self.mods = import_fusenav()
        self.import_times.append(perf_counter() - t0)
        seed = self.seeds[rep % self.k]
        err = montecarlo_walk(self.mods, seed, *montecarlo_cases(self.mods["sim"])[0])
        if abs(err - self.refs["montecarlo"][str(seed)][0]) > TOLERANCE_M:
            raise SetupError(f"warm-up walk (seed {seed}) failed its check")

    def job(self, i: int, inprocess: bool) -> Job:
        seed = self.seeds[i % self.k]
        errs: list[float] = []
        wall = ref = 0.0
        for n, case in enumerate(montecarlo_cases(self.mods["sim"]), 1):  # a timed segment per walk
            t0 = perf_counter()
            try:
                errs.append(montecarlo_walk(self.mods, seed, *case))
            except Exception:
                traceback.print_exc()
            w = perf_counter() - t0
            wall += w
            ref += self.scaled(w)
            if len(errs) < n:
                return Job(wall, ref, 0.0, peak_rss_self_mb(), None, False)
        ref_errs = self.refs["montecarlo"][str(seed)]
        ok = all(abs(e - r) <= TOLERANCE_M for e, r in zip(errs, ref_errs, strict=True))
        # GPS-aided walks only (raw on, dmp): see README.md, loc_mean_err_m
        err = statistics.fmean((errs[0], errs[2]))
        walk_s = 3 * self.refs["walk110"]["walk_s"] if ok else 0.0
        return Job(wall, ref, walk_s, peak_rss_self_mb(), err, ok)


WORKLOADS = {
    "city": CityWorkload,
    "replay110": ReplayWorkload,
    "montecarlo": MonteCarloWorkload,
}
