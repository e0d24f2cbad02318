"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fracreg


def test_no_assert_statements_in_package():
    # invariants raise exceptions: asserts vanish under `python -O`
    found = []
    for path in sorted(Path(fracreg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_private_names_imported_across_modules():
    # a module's _-prefixed names are its own; other modules use its public entry points
    found = []
    for path in sorted(Path(fracreg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").split(".")[0] == "fracreg":
                continue
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                      if a.name.startswith("_")]
    assert found == []


def test_cli_import_loads_no_heavy_scipy_modules():
    # importing scipy.special alone costs about 0.3 s and 27 MB per run; the
    # package has its own ports of the three special functions it needs
    src = str(Path(fracreg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, fracreg, fracreg.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_public_name_is_used_by_the_package():
    # a public function, class or method that no package module reads is
    # surface kept only for tests; __init__ re-exports do not count as use
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(fracreg.__file__).resolve().parent.glob("*.py"))}
    used = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            if node.name not in used:
                unused.append(f"{name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{name}:{node.name}.{m.name}" for m in node.body
                           if isinstance(m, defs) and not m.name.startswith("_")
                           and m.name not in used]
    assert unused == []


def _is_bit_source(name: str) -> bool:
    obj = getattr(np.random, name, None)
    is_bit_generator = isinstance(obj, type) and issubclass(obj, np.random.BitGenerator)
    return name == "SeedSequence" or is_bit_generator


def test_randomness_comes_only_from_bit_generator_words():
    # Generator methods and the legacy samplers may change their streams
    # between numpy releases; raw bit-generator words and SeedSequence do not,
    # so the package reads numpy.random only for those
    found = []
    for path in sorted(Path(fracreg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "random" and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                names = [a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if not _is_bit_source(n)]
    assert found == []
