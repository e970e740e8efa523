"""Declarative instance files.

An instance file is a JSON document with a versioned format tag that
describes a coefficient ring, a cooperad (by builder invocation), the
cogenerator module V and a sparse coderivation, plus options.  Parsing
runs the full validator cascade so that every command starts from a
checked structure.
"""

import json
from fractions import Fraction

from .builders import (
    ass_cochains,
    barratt_eccles,
    com_cochains,
    en_restriction_morphism,
)
from .cofree import Coderivation, cofree_build, completeness_check
from .errors import (
    DEFAULT_RESOURCE_CAP,
    CompletenessError,
    InstanceFormatError,
    UnsupportedError,
)
from .graded import BasisElement, GradedModule
from .mc_space import MCProblem
from .rings import ring_make

FORMAT = "opmc-instance/1"

__all__ = [
    "FORMAT",
    "Instance",
    "parse_instance",
    "load_instance",
    "read_json",
    "instance_to_dict",
    "expect",
    "field",
    "parse_scalar",
    "element_to_list",
    "element_from_list",
    "format_element",
    "make_problem",
]


def parse_scalar(s, ring):
    """Ring scalar from its string form (integers or a/b fractions)."""
    try:
        f = Fraction(str(s))
    except ValueError as exc:
        raise InstanceFormatError(f"bad coefficient {s!r}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise InstanceFormatError(f"bad coefficient {s!r}: zero denominator") from exc
    if not ring.contains_rationals and f.denominator != 1:
        raise InstanceFormatError(f"coefficient {s!r} is not integral")
    return ring.normalize(f if ring.contains_rationals else f.numerator)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def expect(value, kind, what):
    """``value`` when its JSON type is ``kind`` (a bool is no integer)."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise InstanceFormatError(
            f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def field(block, key, kind, what, default=None):
    """``block[key]``, of JSON type ``kind``, from the object ``block``;
    a missing key reads ``default`` and is refused when that is None."""
    expect(block, dict, what)
    if key not in block and default is None:
        raise InstanceFormatError(f"{what} has no {key!r}")
    return expect(block.get(key, default), kind, f"{key!r} in {what}")


def element_to_list(el):
    return [[str(n), str(c)] for n, c in sorted(el.terms.items())]


def element_from_list(V, data):
    terms = []
    for item in data:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(x, str) for x in item)):
            raise InstanceFormatError(f"bad element term {item!r}: need two strings")
        name, coeff = item
        if name not in V.basis:
            raise InstanceFormatError(f"unknown module generator {name!r}")
        terms.append((name, parse_scalar(coeff, V.ring)))
    return V.element(terms)


def format_element(el):
    """Human-readable element with unit coefficients elided."""
    if el.is_zero():
        return "0"
    parts = []
    for n, c in sorted(el.terms.items(), key=lambda kv: str(kv[0])):
        parts.append(str(n) if c == 1 else f"{c}*{n}")
    return " + ".join(parts)


class Instance:
    """A parsed and validated instance."""

    def __init__(self, ring, cooperad, hopf, V, cofree, Qt, options, spec):
        self.ring = ring
        self.cooperad = cooperad
        self.hopf = hopf
        self.V = V
        self.cofree = cofree
        self.Qt = Qt
        self.options = options
        self.spec = spec


def _build_cooperad(ring, block, validate):
    kind = block.get("builder")
    r_max = field(block, "r_max", int, "cooperad")
    if r_max < 1:
        raise InstanceFormatError(f"cooperad r_max must be a positive int, got {r_max!r}")
    if kind == "ass":
        return ass_cochains(ring, r_max, validate=validate)
    if kind == "com":
        return com_cochains(ring, r_max, validate=validate)
    if kind == "be":
        n = block.get("n")
        # without d_max, a finite n builds the whole truncation of E_n
        d_max = None
        if n is None or "d_max" in block:
            d_max = field(block, "d_max", int, "cooperad")
            if d_max < 0:
                raise InstanceFormatError(f"bad d_max {d_max!r}")
        if n is not None and (isinstance(n, bool) or not isinstance(n, int)
                              or n < 1):
            raise InstanceFormatError(
                f"be n must be null or an int >= 1, got {n!r}")
        return barratt_eccles(ring, r_max, d_max, n=n, validate=validate)
    raise InstanceFormatError(f"unknown cooperad builder {kind!r}")


def parse_instance(doc, validate=True):
    """Instance from a decoded JSON document (dict)."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    if doc.get("format") != FORMAT:
        raise InstanceFormatError(
            f"unsupported format tag {doc.get('format')!r} (expected {FORMAT!r})"
        )
    ring = ring_make(field(doc, "ring", dict, "instance"))
    C, H = _build_cooperad(ring, field(doc, "cooperad", dict, "instance"),
                           validate)
    basis = []
    for row in field(doc, "module", list, "instance"):
        what = f"module row {row!r}"
        weight = field(row, "weight", int, what, 1)
        if weight < 1:
            # weight 0 is the unit class's; horn filling needs weights >= 1
            raise InstanceFormatError(f"{what} has weight {weight}, need >= 1")
        basis.append(BasisElement(
            field(row, "name", str, what), field(row, "degree", int, what),
            weight))
    V = GradedModule(ring, basis)
    options = dict(field(doc, "options", dict, "instance", {}))
    w_max = field(options, "w_max", int, "options", 3)
    if w_max < 1:
        raise InstanceFormatError(f"bad w_max {w_max!r}")
    cf = cofree_build(C, V, w_max)
    comps = {}
    for row in field(doc, "coderivation", list, "instance", []):
        what = f"coderivation row {row!r}"
        r = field(row, "arity", int, what)
        inputs = tuple(expect(x, str, f"an input in {what}")
                       for x in field(row, "inputs", list, what, []))
        cname = field(row, "class", str, what) if r > 0 else C.unit_name
        key = (r, cname, inputs)
        val = element_from_list(V, field(row, "value", list, what, []))
        if key in comps:
            raise InstanceFormatError(f"duplicate coderivation entry {key!r}")
        comps[key] = val
    Qt = Coderivation(cf, comps)
    if validate:
        violations = completeness_check(Qt)
        if violations:
            kind, key, *_ = violations[0]
            raise CompletenessError(
                f"coderivation is not complete: {kind} at entry {key!r}"
            )
    return Instance(ring, C, H, V, cf, Qt, options, doc)


def read_json(path):
    """The decoded JSON document in the file at ``path``; a file that is
    not UTF-8 JSON text is refused as an instance-format error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


def load_instance(path):
    return parse_instance(read_json(path))


def instance_to_dict(inst):
    """Canonical (sorted, reproducible) document for an instance."""
    Qt = inst.Qt
    rows = []
    for key in sorted(Qt.comps, key=lambda k: (k[0], str(k[1]), k[2])):
        r, cname, inputs = key
        rows.append({
            "arity": r,
            "class": str(cname),
            "inputs": list(inputs),
            "value": element_to_list(Qt.comps[key]),
        })
    mod = [
        {"name": n, "degree": inst.V.degree(n), "weight": inst.V.weight(n)}
        for n in sorted(inst.V.names, key=str)
    ]
    return {
        "format": FORMAT,
        "ring": inst.ring.spec(),
        "cooperad": dict(inst.spec["cooperad"]),
        "module": mod,
        "coderivation": rows,
        "options": dict(inst.options),
    }


def make_problem(inst, cap=DEFAULT_RESOURCE_CAP):
    """The convolution-complex problem for an instance.

    An ``ass`` or ``be`` cooperad is permutation-tuple cochains (``ass``
    at complexity 1), whose chain coproduct it receives through itself.
    """
    kind = inst.spec["cooperad"].get("builder")
    if kind not in ("ass", "be"):
        raise UnsupportedError(
            f"no chain-coalgebra structure available for builder {kind!r}"
        )
    C = inst.cooperad
    phi = en_restriction_morphism(C, C, validate=False)
    return MCProblem(inst.Qt, phi, cap=cap)
