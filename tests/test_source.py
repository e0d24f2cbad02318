"""Rules on the package source itself."""

import ast
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
