"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polypoisson"


def test_no_bare_assert_in_package_source():
    # invariants must hold under `python -O`, which strips assert statements
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
