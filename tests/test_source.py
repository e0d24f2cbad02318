"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def _loaded_by_cli_import(package: str) -> list[str]:
    """The modules of ``package`` in ``sys.modules`` after a fresh ``import fracreg.cli``."""
    src = str(Path(fracreg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, fracreg, fracreg.cli; "
        f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout.strip())


def test_cli_import_loads_no_heavy_scipy_modules():
    # importing scipy.special alone costs about 0.3 s and 27 MB per run; the
    # package needs no special function beyond math.lgamma and numpy's ufuncs
    assert _loaded_by_cli_import("scipy") == []


def test_cli_import_loads_no_numpy_random():
    # Philox is ported to numpy arithmetic and no seed is hashed, so the
    # package never pays for importing numpy.random
    assert _loaded_by_cli_import("numpy.random") == []


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


def _is_numpy_random(module: str | None) -> bool:
    return module == "numpy.random" or (module or "").startswith("numpy.random.")


def test_randomness_comes_only_from_bit_generator_words():
    # Generator methods and the legacy samplers may change their streams
    # between numpy releases; the package draws raw Philox words from its
    # own port instead, so it reads nothing from numpy.random at all
    found = []
    for path in sorted(Path(fracreg.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.random")
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names
                          if _is_numpy_random(a.name)]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    _is_numpy_random(node.module)
                    or (node.module == "numpy" and any(a.name == "random" for a in node.names))):
                found.append(f"{path.name}:{node.lineno} from {node.module} import ...")
    assert found == []
