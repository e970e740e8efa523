"""Command-line interface.

Every command starts from a validated instance file; outputs are
deterministic (sorted basis names and terms, canonical JSON).  Exit
codes: 0 success, 1 computational/precondition failure (with a
machine-readable reason code), 2 usage error.
"""

import argparse
import json
import os
import sys
from functools import cache

from .errors import (
    DEFAULT_RESOURCE_CAP,
    InstanceFormatError,
    OpmcError,
    PreconditionError,
)
from .instances import (
    Instance,
    element_from_list,
    element_to_list,
    expect,
    field,
    format_element,
    instance_to_dict,
    load_instance,
    make_problem,
    parse_scalar,
    read_json,
)
from .mc_space import HornData
from .twisting import mc_enumerate, mc_residual, twist

HORN_FORMAT = "opmc-horn/1"
SIMPLEX_FORMAT = "opmc-simplex/1"


def resource_cap():
    raw = os.environ.get("OPMC_RESOURCE_CAP")
    if raw is None:
        return DEFAULT_RESOURCE_CAP
    try:
        return int(raw)
    except ValueError:
        raise InstanceFormatError(
            f"OPMC_RESOURCE_CAP must be an integer, got {raw!r}"
        ) from None


def parse_element_spec(V, spec):
    """Element of V from 'x=1,y=-2', a bare generator name, or '0'."""
    spec = spec.strip()
    if spec == "0":
        return V.zero()
    terms = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, _, coeff = part.partition("=")
            name, coeff = name.strip(), coeff.strip()
        else:
            name, coeff = part, "1"
        if name not in V.basis:
            raise InstanceFormatError(f"unknown module generator {name!r}")
        terms.append((name, parse_scalar(coeff, V.ring)))
    return V.element(terms)


def _emit(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path, want_format):
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != want_format:
        raise InstanceFormatError(
            f"{path}: expected a {want_format!r} document"
        )
    return doc


def simplex_to_doc(psi):
    return {
        "format": SIMPLEX_FORMAT,
        "n": psi.cx.n,
        "values": [
            {"class": list(I), "value": element_to_list(v)}
            for I, v in psi.items_sorted()
        ],
    }


def simplex_from_doc(problem, doc):
    n = field(doc, "n", int, "simplex file")
    if n < 0:
        raise InstanceFormatError(f"bad simplex dimension {n!r}")
    psi = problem.zero(n)
    for I, value in _value_rows(problem.V, doc).items():
        psi.set(I, value)
    return psi


def horn_from_doc(V, doc):
    n, k = field(doc, "n", int, "horn file"), field(doc, "k", int, "horn file")
    return HornData(n, k, V, _value_rows(V, doc))


def _value_rows(V, doc):
    """{class: value} of the rows of a horn or simplex file; a class is
    a tuple of vertices, and no two rows name the same class."""
    rows = {}
    for row in field(doc, "values", list, "the file", []):
        what = f"value row {row!r}"
        I = tuple(expect(v, int, f"a vertex in {what}")
                  for v in field(row, "class", list, what))
        if I in rows:
            raise InstanceFormatError(f"duplicate value row for class {list(I)}")
        rows[I] = element_from_list(V, field(row, "value", list, what, []))
    return rows


# -- commands ----------------------------------------------------------


def cmd_validate(args):
    load_instance(args.instance)
    print(f"ok: {args.instance}")
    return 0


def cmd_build_cooperad(args):
    inst = load_instance(args.instance)
    C = inst.cooperad
    for r in range(C.r_max + 1):
        names = sorted(C.basis_names(r), key=str)
        cells = ", ".join(f"{n}(deg {C.degree(r, n)})" for n in names)
        print(f"arity {r}: {len(names)} classes: {cells}")
    return 0


def cmd_twist(args):
    inst = load_instance(args.instance)
    v = parse_element_spec(inst.V, args.element)
    Tw = twist(inst.hopf, inst.Qt, v)
    out = Instance(inst.ring, inst.cooperad, inst.hopf, inst.V, inst.cofree,
                   Tw, inst.options, inst.spec)
    _emit(instance_to_dict(out), args.output)
    return 0


def cmd_mc(args):
    inst = load_instance(args.instance)
    if args.enumerate:
        cap = resource_cap()
        sols = mc_enumerate(inst.hopf, inst.Qt, cap=cap)
        body = ", ".join(sorted(format_element(s) for s in sols))
        print("{" + body + "}")
        return 0
    if args.element is None:
        raise PreconditionError("mc needs --element or --enumerate")
    v = parse_element_spec(inst.V, args.element)
    res = mc_residual(inst.hopf, inst.Qt, v)
    print(f"mc: {'true' if res.is_zero() else 'false'}")
    print(f"residual: {format_element(res)}")
    return 0


def cmd_mc_simplicial(args):
    inst = load_instance(args.instance)
    problem = make_problem(inst, cap=resource_cap())
    if args.verify_simplex:
        doc = _load_json(args.verify_simplex, SIMPLEX_FORMAT)
        psi = simplex_from_doc(problem, doc)
        ok, defect = problem.mc_check(psi)
        print(f"mc: {'true' if ok else 'false'}")
        if not ok:
            I = defect.support()[0]
            print(f"witness: e_{I} -> {format_element(defect.value(I))}")
        return 0 if ok else 1
    if not args.enumerate:
        raise PreconditionError(
            "mc-simplicial needs --enumerate or --verify-simplex"
        )
    sols = problem.mc_simplices(args.n)
    print(f"solutions on the {args.n}-simplex: {len(sols)}")
    lines = []
    for psi in sols:
        parts = [f"e_{I}={format_element(v)}" for I, v in psi.items_sorted()]
        lines.append("; ".join(parts) if parts else "0")
    for line in sorted(lines):
        print(line)
    return 0


def cmd_horn_fill(args):
    inst = load_instance(args.instance)
    problem = make_problem(inst, cap=resource_cap())
    horn = horn_from_doc(inst.V, _load_json(args.horn, HORN_FORMAT))
    psi = problem.horn_fill(horn)
    _emit(simplex_to_doc(psi), args.output)
    return 0


def cmd_kan_check(args):
    inst = load_instance(args.instance)
    problem = make_problem(inst, cap=resource_cap())
    rep = problem.kan_spot_check(trials=args.trials, seed=args.seed)
    print(f"kan-check: attempted={rep['attempted']} filled={rep['filled']}")
    for case in rep["cases"]:
        print(f"  filled horn n={case['n']} k={case['k']}")
    if "note" in rep:
        print(f"note: {rep['note']}")
    return 0


def cmd_decompose_simplex(args):
    inst = load_instance(args.instance)
    problem = make_problem(inst, cap=resource_cap())
    try:
        I = tuple(int(x) for x in args.simplex_class.split(","))
    except ValueError:
        raise InstanceFormatError(
            f"--class must be a comma list of vertices, got {args.simplex_class!r}"
        ) from None
    terms = problem._decompose(args.n, I, args.arity)
    for (cname, Js), c in sorted(terms.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        blocks = " ; ".join(",".join(str(v) for v in J) for J in Js)
        print(f"{cname} | {blocks} -> {c}")
    print(f"total: {len(terms)} terms")
    return 0


def cmd_export(args):
    inst = load_instance(args.instance)
    _emit(instance_to_dict(inst), args.output)
    return 0


@cache
def build_parser():
    """The argparse tree, built once per process: parsing leaves it as is."""
    ap = argparse.ArgumentParser(
        prog="opmc",
        description="Exact operadic twisting and simplicial solution spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--instance", required=True, help="instance file (JSON)")
        return p

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.set_defaults(fn=cmd_validate)
    p.add_argument("instance", help="instance file (JSON)")

    add("build-cooperad", cmd_build_cooperad,
        help="print the cooperad basis per arity")

    p = add("twist", cmd_twist, help="twist the coderivation by an element")
    p.add_argument("--element", required=True,
                   help="element of V: '0', 'x', or 'x=1,y=-2'")
    p.add_argument("--output", help="write the twisted instance here")

    p = add("mc", cmd_mc, help="solution condition at a point")
    p.add_argument("--element", help="candidate element of V")
    p.add_argument("--enumerate", action="store_true",
                   help="list all degree-0 solutions (finite rings)")

    p = add("mc-simplicial", cmd_mc_simplicial,
            help="solutions on a simplex")
    p.add_argument("--n", type=int, default=1, help="simplex dimension")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--verify-simplex", help="re-check an exported simplex file")

    p = add("horn-fill", cmd_horn_fill, help="fill a horn")
    p.add_argument("--horn", required=True, help="horn file (JSON)")
    p.add_argument("--output", help="write the filled simplex here")

    p = add("kan-check", cmd_kan_check, help="generate and fill random horns")
    p.add_argument("--trials", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)

    p = add("decompose-simplex", cmd_decompose_simplex,
            help="chain coproduct of a simplex basis class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="simplex_class", required=True,
                   help="comma list of vertices, e.g. 0,1")
    p.add_argument("--arity", type=int, required=True)

    p = add("export", cmd_export, help="canonical re-serialization")
    p.add_argument("--output", help="output path (default stdout)")

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except OpmcError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
