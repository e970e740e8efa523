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


# (module, expression) pairs allowed to touch a private attribute of
# another object: the benchmark tracer hooks MCProblem._decompose by
# that name, so the CLI calls it there
PRIVATE_ACCESS = {("cli.py", "problem._decompose")}


def _private_access(tree):
    """(expression, line) of each _-prefixed, non-dunder attribute
    touched on an object other than self or cls."""
    return [(ast.unparse(node), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls"))]


def test_private_attributes_stay_with_their_object():
    """A module reads what another object exposes, never its private
    state: each layer depends on the public interface only."""
    found = [(path.name, expr, line) for path in sorted(SRC.glob("*.py"))
             for expr, line in _private_access(ast.parse(path.read_text("utf-8")))
             if (path.name, expr) not in PRIVATE_ACCESS]
    assert found == []
