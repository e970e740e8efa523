"""Checks on the package source itself."""

import ast
import importlib.util
import io
import json
import random
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from helpers import random_coderivation
from opmc.builders import ass_cochains
from opmc.cli import main
from opmc.cofree import coderivation_extend, cofree_build
from opmc.graded import BasisElement, GradedModule
from opmc.rings import ring_make
from test_golden import CASES

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
             for expr, line in _private_access(ast.parse(path.read_text("utf-8")))]
    assert found == []


RINGS = [ring_make(spec) for spec in (
    {"kind": "integers"}, {"kind": "integers-mod-m", "modulus": 2},
    {"kind": "rationals"})]


def _ring_reads(tree):
    """(attribute, line) of each attribute read off a name ``ring`` or
    off an attribute ``.ring``, as in ``ring.one`` or ``cf.ring.collect``."""
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (isinstance(node.value, ast.Name) and node.value.id == "ring"
                 or isinstance(node.value, ast.Attribute)
                 and node.value.attr == "ring")]


def test_ring_reads_exist():
    """Every attribute a module reads off a ring handle exists on some
    ring.  A ring has no arithmetic methods, so a leftover ``ring.mul``
    fails here even on a path that no traced run reaches."""
    reads = [(path.name, attr, line) for path in sorted(SRC.glob("*.py"))
             for attr, line in _ring_reads(ast.parse(path.read_text("utf-8")))]
    assert {"normalize", "collect", "zero", "one"} <= {r[1] for r in reads}
    assert [r for r in reads if not any(hasattr(k, r[1]) for k in RINGS)] == []


def definitions(path):
    """{first line: qualified name} of each function of the module at
    ``path`` and each method of its classes, dunder methods left out.
    The first line is that of the ``def`` or of its first decorator,
    which is the ``co_firstlineno`` of the function's code (Python 3.10
    has no ``co_qualname``)."""
    out = {}
    for node in ast.parse(path.read_text("utf-8")).body:
        fns = [(f"{node.name}.", fn) for fn in node.body] \
            if isinstance(node, ast.ClassDef) else [("", node)]
        for prefix, fn in fns:
            if isinstance(fn, ast.FunctionDef) \
                    and not (fn.name.startswith("__") and fn.name.endswith("__")):
                line = min([d.lineno for d in fn.decorator_list] + [fn.lineno])
                out[line] = prefix + fn.name
    return out


def traced(runs):
    """The code objects that start running while ``runs`` are called in
    turn.  The trace hook records the code of each new frame and returns
    None, so no line event fires; the previous hook is restored after."""
    seen = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    return seen


def unreached(paths, codes):
    """The qualified names of the definitions in the modules at ``paths``
    whose code is not among ``codes``."""
    started = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}
    return {qual for path in paths
            for line, qual in definitions(path).items()
            if (path.resolve(), line) not in started}


SAMPLE = """\
import functools


def decorate(fn):
    @functools.wraps(fn)
    def wrapper():
        return fn()
    return wrapper


@decorate
def decorated():
    return {"a": 1}.copy()


class Box:
    @property
    def size(self):
        return 1

    @classmethod
    def make(cls):
        return cls()

    def copy(self):
        return Box()
"""


def test_caller_check_maps_code_to_definitions(tmp_path):
    """A decorated function maps by its first decorator's line, a
    property and a classmethod by theirs, and a method named ``copy``
    that never runs stays unreached while ``dict.copy`` runs."""
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, "utf-8")
    spec = importlib.util.spec_from_file_location("sample", path)
    sample = importlib.util.module_from_spec(spec)
    codes = traced([lambda: spec.loader.exec_module(sample),
                    lambda: sample.decorated(), lambda: sample.Box.make().size])
    lines = {qual: line for line, qual in definitions(path).items()}
    assert lines == {
        "decorate": sample.decorate.__code__.co_firstlineno,
        "decorated": sample.decorated.__wrapped__.__code__.co_firstlineno,
        "Box.size": sample.Box.size.fget.__code__.co_firstlineno,
        "Box.make": sample.Box.make.__func__.__code__.co_firstlineno,
        "Box.copy": sample.Box.copy.__code__.co_firstlineno,
    }
    assert SAMPLE.splitlines()[lines["decorated"] - 1] == "@decorate"
    assert unreached([path], codes) == {"Box.copy"}


ROOT = SRC.parent.parent
DATA = ROOT / "tests" / "data"
ASS = str(ROOT / "demos" / "instances" / "ass_z2.json")
# Golden commands (test_golden.CASES), run from tests/data: with the runs
# below they reach every function that all the golden commands and 1 s
# of each benchmark workload reach, and each reaches one that no other
# run does
GOLDEN_RUNS = (
    "ass_twist_x", "ass_z_twist_x", "ass_z3_decompose_top",
    "ass_build_cooperad", "ass_kan_check", "quad_horn_fill_2_0",
)


def _error_runs(tmp_path):
    """CLI commands that end in an error: (argv, exit code).  An E-infinity
    truncation cut at d_max 1 fails its Hopf check (the failed laws of
    the Report), a horn on e2_z.json meets its Q o Q != 0 (the internal
    check that blames the input), and a simplex that is not a solution
    fails --verify-simplex (the witness from the defect's support)."""
    doc = json.loads(Path(ASS).read_text("utf-8"))
    doc.update(coderivation=[], cooperad={
        "builder": "be", "r_max": 3, "d_max": 1, "n": None})
    files = {
        "einf.json": doc,
        "horn.json": {"format": "opmc-horn/1", "n": 2, "k": 0, "values": [
            {"class": [1], "value": [["z", "2"]]},
            {"class": [0, 1], "value": [["a", "1"]]}]},
        "simplex.json": {"format": "opmc-simplex/1", "n": 1, "values": [
            {"class": [0], "value": [["x", "1"]]}]},
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content), "utf-8")
    return [
        (["validate", str(tmp_path / "einf.json")], 1),
        (["horn-fill", "--instance", "e2_z.json",
          "--horn", str(tmp_path / "horn.json")], 1),
        (["mc-simplicial", "--instance", ASS,
          "--verify-simplex", str(tmp_path / "simplex.json")], 1),
    ]


def _cli(argv, code):
    def run():
        assert main(argv) == code, argv
    return run


def _library_tour():
    runpy.run_path(str(ROOT / "demos" / "library_tour.py"), run_name="__main__")


def _bench_selftest():
    """``bench/selftest.py``, in this process: its spoiled outputs reach
    ``ConvolutionElement.copy``.  The benchmark's own modules and its
    additions to ``sys.path`` are dropped afterwards."""
    bench = ROOT / "bench"
    path = list(sys.path)
    sys.path.insert(0, str(bench))
    try:
        assert runpy.run_path(str(bench / "selftest.py"))["main"]() == 0
    finally:
        sys.path[:] = path
        for name, module in list(sys.modules.items()):
            if str(getattr(module, "__file__", None)).startswith(f"{bench}/"):
                del sys.modules[name]


# Functions and methods that no program run reaches, kept as library API
# for the paper's objects or as a checked path no valid input takes,
# with the tests that use each
TESTED_API = {
    "Element.coeff": "test_graded, CofreeCoalgebra.counit_coefficient",
    "LinearMap.apply": "test_graded, test_simplex_chains",
    "OrbitModule.act_element": "the dense_validators oracle",
    "HopfStructure.multiply": "test_twisting, the dense_validators oracle",
    # the full equivariance loop, which the validator walks only when
    # the generators fail: the spoiled tables of test_validators
    "_block_permutations": "test_validators",
    # V -> uC(V) -> V, the counit and the components of x in
    # uC(k) (x) uC(V)^k
    "CofreeCoalgebra.from_v": "test_cofree, test_twisting",
    "CofreeCoalgebra.tangent": "test_cofree, test_acceptance",
    "CofreeCoalgebra.counit_coefficient": "test_cofree, morphism_extend",
    "CofreeCoalgebra.decompose": "test_cofree, test_twisting, helpers",
    "morphism_extend": "test_cofree",
    "ConvolutionElement.eq": "test_mc_space, test_acceptance",
}


def test_every_function_has_a_caller(tmp_path, monkeypatch):
    """Each function and method of the package starts running in some
    program run, or is listed in TESTED_API: a helper that only tests
    call is dead code.  The runs are CLI commands, the library tour and
    the benchmark's self-test, in this process, traced by code object,
    so a method is reached only when it runs, whatever shares its name.
    The package's memos are cleared first, so earlier tests leave no
    call answered from a warm cache."""
    for name, module in list(sys.modules.items()):
        if name.startswith("opmc"):
            for obj in vars(module).values():
                getattr(obj, "cache_clear", lambda: None)()
    monkeypatch.chdir(DATA)
    runs = [_cli(CASES[name], 0) for name in GOLDEN_RUNS]
    runs += [_cli(argv, code) for argv, code in _error_runs(tmp_path)]
    runs += [_library_tour, _bench_selftest]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = traced(runs)
    assert unreached(sorted(SRC.glob("*.py")), codes) == set(TESTED_API)


TRACER = SRC.parent.parent / "bench" / "tracer.py"
# qualnames the tracer still names after their code was removed
STALE_TRACER_NAMES = {"builders.be1_to_ass_iso", "builders.compose_permutations",
                      "mc_space.MCProblem._decompose", "mc_space.MCProblem.mu",
                      "simplex_chains.einfty_decompose"}


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
