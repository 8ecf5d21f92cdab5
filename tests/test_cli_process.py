"""Commands run as their own processes: the modules each one executes, the
threads and frozen heap it ends with, the environment it leaves, and a
stdout that cannot be written.

A child interpreter records the ``co_filename`` of every ``exec`` audit
event, which fires once per module whose code runs however it is loaded,
then runs ``fusenav.cli`` as ``python -m`` does.
"""

import errno
import gc
import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusenav import cli

WALK110 = importlib.resources.files("fusenav") / "scenarios" / "walk110.cfg"
SRC = Path(cli.__file__).resolve().parents[1]
PACKAGE = SRC / "fusenav"

# argv[1]: the report file; argv[2:]: the command
TRACED_MAIN = """
import gc, json, os, runpy, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
report, sys.argv = sys.argv[1], [sys.argv[0], *sys.argv[2:]]
try:
    runpy.run_module("fusenav.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(report, "w") as f:
    json.dump({
        "code": code,
        "ran": sorted(ran),
        "numpy.random": "numpy.random" in sys.modules,
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "frozen": gc.get_freeze_count(),
    }, f)
"""

STAGE = {"__init__", "cli", "core"}
# command -> the fusenav modules (file stems) whose code it executes
LOADS = {
    "--help": STAGE,
    "calibrate": STAGE | {"geo", "localizer"},
    "fuse-sonar": STAGE | {"sonar_ekf"},
    "localize": STAGE | {"geo", "localizer"},
    "evaluate": STAGE | {"metrics"},
    "simulate": STAGE | {"sim", "geo"},
    "run": {path.stem for path in PACKAGE.glob("*.py")},
}


def child_env(**extra) -> dict:
    """This environment with src on the path; OPENBLAS_NUM_THREADS only if given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | extra
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def walk110_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("walk110")
    assert cli.main(["run", "--scenario", str(WALK110), "--out", str(out)]) == 0
    return out


def command(name: str, run: Path, out: Path) -> list[str]:
    args = {
        "--help": [],
        "calibrate": ["--imu", run / "imu.csv", "--batch", "100"],
        "fuse-sonar": ["--sonar", run / "sonar.csv"],
        "localize": ["--imu", run / "imu.csv", "--gps", run / "gps.csv", "--offsets", run / "offsets.cfg"],
        "evaluate": ["--est", run / "est.csv", "--truth", run / "truth.csv"],
        "simulate": ["--scenario", WALK110],
        "run": ["--scenario", WALK110],
    }[name]
    return [name, *map(str, args)] + ([] if name == "--help" else ["--out", str(out)])


@pytest.mark.parametrize("name", LOADS)
def test_each_command_executes_only_its_modules(walk110_run, tmp_path, name):
    report = tmp_path / "report.json"
    argv = [sys.executable, "-c", TRACED_MAIN, str(report), *command(name, walk110_run, tmp_path / "out")]
    proc = subprocess.run(argv, env=child_env(), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(report.read_text())
    assert got["code"] == 0
    ran = {Path(f).stem for f in got["ran"] if Path(f).parent == PACKAGE}
    assert ran == LOADS[name]
    # the simulator's and the recognizer's generators are all that need numpy.random
    assert got["numpy.random"] == ("sim" in LOADS[name])
    # main froze the heap it found, and OpenBLAS started no worker thread
    assert got["frozen"] > 0
    if got["threads"] is not None:  # None: no /proc to count them in
        assert got["threads"] == 1


def test_main_with_argv_freezes_nothing(walk110_run, tmp_path):
    frozen = gc.get_freeze_count()
    assert cli.main(command("evaluate", walk110_run, tmp_path)) == 0
    assert gc.get_freeze_count() == frozen


# argv[1]: "numpy first" to import numpy before fusenav
IMPORT_FUSENAV = """
import json, os, sys
before = dict(os.environ)
if sys.argv[1] == "numpy first":
    import numpy
import fusenav
print(json.dumps({
    "same": dict(os.environ) == before,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
}))
"""


@pytest.mark.parametrize("order", ["fusenav first", "numpy first"])
@pytest.mark.parametrize("blas", [None, "2"])
def test_import_leaves_the_environment_and_keeps_a_users_blas_threads(blas, order):
    env = child_env() if blas is None else child_env(OPENBLAS_NUM_THREADS=blas)
    proc = subprocess.run([sys.executable, "-c", IMPORT_FUSENAV, order], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout)
    assert got["same"] and got["blas"] == blas
    if got["threads"] is None:  # no /proc to count them in
        return
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if blas is None and order == "fusenav first":
        assert got["threads"] == 1
    elif blas == "2" and cpus >= 2:  # the user's count, whichever loads OpenBLAS
        assert got["threads"] == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
def test_unwritable_stdout_exits_2_naming_it(walk110_run, tmp_path, sink, unbuffered):
    argv = [sys.executable, "-m", "fusenav.cli", *command("evaluate", walk110_run, tmp_path)]
    env = child_env(PYTHONUNBUFFERED=unbuffered)
    if sink == "/dev/full":
        with open(sink, "w") as stdout:
            proc = subprocess.run(argv, env=env, stdout=stdout, stderr=subprocess.PIPE)
        why = errno.ENOSPC
    else:
        r, w = os.pipe()
        os.close(r)  # every write to ``w`` fails
        try:
            proc = subprocess.run(argv, env=env, stdout=w, stderr=subprocess.PIPE)
        finally:
            os.close(w)
        why = errno.EPIPE
    # no traceback and no second report from the interpreter's flush at exit
    assert proc.stderr.decode() == f"fusenav: data error: <stdout>: {os.strerror(why)}\n"
    assert proc.returncode == cli.EXIT_DATA
    assert (tmp_path / "report.csv").exists()  # the outputs were written before
