"""Checks on the package source itself."""

import ast
import importlib
import random
from pathlib import Path

from helpers import random_coderivation
from opmc.builders import ass_cochains
from opmc.cofree import coderivation_extend, cofree_build
from opmc.graded import BasisElement, GradedModule
from opmc.rings import ring_make

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


# functions and methods that no module, demo or benchmark calls, kept as
# library API that the tests exercise (the tests that do, by entry)
TESTED_API = {
    "CofreeCoalgebra.from_v",  # V -> uC(V): test_cofree, test_twisting
    "CofreeCoalgebra.tangent",  # uC(V) -> V: test_cofree, criterion 03
    "morphism_extend",  # coalgebra maps from corestrictions: test_cofree
    "HopfStructure.multiply",  # test_twisting, the dense_validators oracle
    "LinearMap.apply",  # test_graded, test_simplex_chains
    "surjection_boundary",  # the chain-map tests of surjection_action
    "OrbitModule.act_element",  # the dense_validators oracle
    # d(psi) and the arity sum, which mc_defect forms in one pass:
    # test_mc_space, criterion 02 of test_acceptance
    "MCProblem.differential",
    "MCProblem.star",  # test_mc_space
    # the chain operad's d^2 = 0 and chain-map tests of test_cooperad_builders
    "ChainOperad.differential",
}


def _definitions(tree):
    """(qualified name, name) of each function of a module and each
    method of its classes, dunder methods left out."""
    out = []
    for node in tree.body:
        fns = [(f"{node.name}.", fn) for fn in node.body] \
            if isinstance(node, ast.ClassDef) else [("", node)]
        out.extend((prefix + fn.name, fn.name) for prefix, fn in fns
                   if isinstance(fn, ast.FunctionDef)
                   and not (fn.name.startswith("__") and fn.name.endswith("__")))
    return out


def _references(tree):
    """The attribute names and the bare names that a module uses."""
    attrs, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return attrs, names


def test_every_function_has_a_caller():
    """Each function and method of the package is referenced from the
    package, the demos or the benchmark, or is tested API listed in
    TESTED_API: a helper that only tests call is dead code.  A method is
    reached through an attribute, so a local variable of the same name
    does not count for it."""
    root = SRC.parent.parent
    attrs, names = set(), set()
    for part in ("src", "demos", "bench"):
        for path in sorted((root / part).rglob("*.py")):
            a, n = _references(ast.parse(path.read_text("utf-8")))
            attrs |= a
            names |= n
    defs = [qual for path in sorted(SRC.glob("*.py"))
            for qual, name in _definitions(ast.parse(path.read_text("utf-8")))
            if name not in attrs and ("." in qual or name not in names)]
    assert sorted(defs) == sorted(TESTED_API)


TRACER = SRC.parent.parent / "bench" / "tracer.py"
# qualnames the tracer still names after their code was removed
STALE_TRACER_NAMES = {"builders.be1_to_ass_iso"}


def _tracer_tables():
    """The SPANS, COUNTED and HOOKS dicts of the benchmark tracer, read
    from its source without importing it."""
    tree = ast.parse(TRACER.read_text("utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SPANS", "COUNTED", "HOOKS")}


def test_tracer_hooks_resolve():
    """Every function the tracer wraps by qualified name exists, and the
    operator of coderivation_extend keeps the ``cache`` closure cell that
    the tracer's extend hook reads."""
    tables = _tracer_tables()
    assert set(tables) == {"SPANS", "COUNTED", "HOOKS"}
    missing = set()
    for qual in set().union(*tables.values()):
        layer, *path = qual.split(".")
        obj = importlib.import_module(f"opmc.{layer}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.add(qual)
    assert missing == STALE_TRACER_NAMES

    ring = ring_make({"kind": "integers"})
    C, _ = ass_cochains(ring, 2, validate=False)
    V = GradedModule(ring, [BasisElement("x", 0, 1), BasisElement("y", -1, 2)])
    cf = cofree_build(C, V, 2)
    Q = coderivation_extend(random_coderivation(cf, random.Random(0)))
    on_key = Q.on_key
    cache = on_key.__closure__[
        on_key.__code__.co_freevars.index("cache")].cell_contents
    key = cf.module.names[-1]
    assert cache == {}
    assert on_key(key) is cache[key]
