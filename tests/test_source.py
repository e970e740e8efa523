"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "opmc"


def _function_imports(tree):
    """(function name, line) of each import inside a function body."""
    return [(fn.name, node.lineno)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_imports_are_at_module_level():
    """No module of the package defers an import into a function: none
    guards an import cycle, so each module's dependencies show at its
    top."""
    found = [(path.name, name, line) for path in sorted(SRC.glob("*.py"))
             for name, line in _function_imports(
                 ast.parse(path.read_text("utf-8")))]
    assert found == []
