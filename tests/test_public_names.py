"""Every public name of the package is used by the package or the bench.

A public module-level function or class of ``src/fusenav`` stays only if
a ``fusenav`` command, the bench (``perfbench/``) or other package code
uses it; one that only tests call is dead weight.  A name counts as used
where it appears as an identifier (a name or an attribute) in ``src/`` or
``perfbench/`` outside its own definition, or as a dotted part of a
string in ``perfbench/layers.py``, the table of traced targets (its
``GEO_FUNCS`` lists the ``geo`` functions by name).
"""

import ast
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


def test_every_public_name_is_used_outside_tests():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    }
    used = Counter()
    for tree in trees.values():
        used += _identifiers(tree)
    layers = trees[ROOT / "perfbench" / "layers.py"]
    for node in ast.walk(layers):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            # uses inside its own definition (recursion, methods) do not count
            if used[node.name] <= _identifiers(node)[node.name]:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == [], f"public names used only by tests: {unused}"
