"""Every public name of the package is used by the package or the bench.

A public module-level function, class or ALL_CAPS constant of
``src/fusenav``, or a public method or property of such a class, stays
only if a ``fusenav`` command, the bench (``perfbench/``) or other
package code uses it; one that only tests use is dead weight.  A name
counts as used where it appears as an identifier (a name or an
attribute) in ``src/`` or ``perfbench/`` outside its own definition
(for a constant, its assignment), or as a dotted part of a string in
``perfbench/layers.py``, the table of traced targets (its ``GEO_FUNCS``
lists the ``geo`` functions by name).

An exception class of the package stays only if an ``except`` clause in
``src/`` or ``perfbench/`` names it: one that nothing catches tells no
caller anything its base class does not.

The other way round, every target of the traced bench's ``WRAPS`` table
resolves to a function of the package.  The tracer lists a target that
does not as absent and runs on, so a rename would silently drop a layer
from the bench's per-layer metrics.  A traced ``run`` in a fresh
interpreter records a span in every layer, so that a module that ``cli``
loads on first use cannot drop one either.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fusenav"


def _identifiers(tree) -> Counter:
    """How often each name and attribute name occurs in ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _public_defs(module):
    """(dotted name, name, node) of each public function, class and ALL_CAPS
    constant of ``module`` and of each public method and property of its
    public classes."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                    yield f"{node.name}.{member.name}", member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and target.id.isupper() and target.id[0] != "_":
                    yield target.id, target.id, node


def _trees() -> dict:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    }


def test_every_public_name_is_used_outside_tests():
    trees = _trees()
    used = Counter()
    for tree in trees.values():
        used += _identifiers(tree)
    layers = trees[ROOT / "perfbench" / "layers.py"]
    for node in ast.walk(layers):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for dotted, name, node in _public_defs(trees[path]):
            # uses inside its own definition (recursion, methods) do not count
            if used[name] <= _identifiers(node)[name]:
                unused.append(f"{path.stem}.{dotted}")
    assert unused == [], f"public names used only by tests: {unused}"


def test_every_exception_class_is_caught_somewhere():
    caught = Counter()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught += _identifiers(node.type)

    uncaught = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"fusenav.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            own = cls.__module__ == module.__name__
            if own and issubclass(cls, BaseException) and not caught[name]:
                uncaught.append(f"{path.stem}.{name}")
    assert uncaught == [], f"exception classes no except clause names: {uncaught}"


def _load(name: str, monkeypatch):
    """Execute ``perfbench/<name>.py`` as module ``name``, known to
    ``sys.modules`` for this test only."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    spans = _load("spans", monkeypatch)  # layers imports it by this name
    layers = _load("layers", monkeypatch)
    names = {target.split(".")[0] for target, _, _ in layers.WRAPS}
    modules = {name: importlib.import_module(f"fusenav.{name}") for name in names}
    tracer = spans.Tracer()
    try:
        tracer.install(modules, layers.WRAPS)
    finally:
        tracer.uninstall()
    assert tracer.absent == [], f"traced targets that do not resolve: {tracer.absent}"


# argv[1]: the output directory.  perfbench's import order: fusenav.cli first.
TRACED_RUN = """
import json, sys
sys.path.insert(0, "perfbench")
import layers, workloads
from spans import Tracer
mods = workloads.import_fusenav()
cli, loc = mods["cli"], mods["localizer"]
same = cli.calibrate is loc.calibrate and cli.run_localizer is loc.run_localizer
tracer = Tracer()
tracer.install(mods, layers.WRAPS)
argv = ["run", "--scenario", str(workloads.WALK110_CFG), "--out", sys.argv[1]]
rc, _ = workloads.run_cli_inprocess(mods, argv)
print(json.dumps({"rc": rc, "same": same, "absent": tracer.absent, "spans": sorted({s[0] for s in tracer.spans})}))
"""


def test_traced_run_records_every_layer(tmp_path):
    """In a fresh interpreter, where cli has not yet run the modules it
    loads on first use, the wrappers the bench installs are the functions
    that ``run`` calls: no layer's per-layer metrics read 0.  The two names
    the bench wraps on ``cli`` are the localizer's own functions."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path / "out")], cwd=ROOT, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout.decode().splitlines()[-1])
    assert got["rc"] == 0 and got["same"] and got["absent"] == []
    layers = {
        "sim.gen_walk",
        "sim.synth_sonar",
        "localizer.calibrate",
        "localizer.run_localizer",
        "localizer.propagate",
        "sonar_ekf.update",
        "perception.process",
        "perception.submit",
        "feedback.poll",
        "metrics.evaluate",
    }
    assert layers <= set(got["spans"])
