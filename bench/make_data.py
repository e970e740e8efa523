"""Regenerate the checked-in inputs of the e2-horns and linf-cli workloads.

Run from the repository root:

    python3 bench/make_data.py

It rewrites bench/data/e2_z2.json, bench/data/linf_q.json and the horn
files under bench/data/horns/ from the seeds recorded below, so the
files in the repository can be checked against a fresh run with
``git diff``.  The instance files are written in the canonical form of
``opmc export``.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import (  # noqa: E402
    E2_HORN_FILES_PER_DIM,
    E2_HORNS_DIMS,
    E2_HORNS_MODULE,
    E2_HORNS_W_MAX,
    LINF_MODULE,
    LINF_W_MAX,
    random_components,
    rational_scalar,
)
from opmc.builders import barratt_eccles, com_cochains  # noqa: E402
from opmc.cofree import cofree_build, square_check  # noqa: E402
from opmc.graded import BasisElement, GradedModule  # noqa: E402
from opmc.instances import instance_to_dict, make_problem, parse_instance  # noqa: E402
from opmc.mc_space import HornData, horn_basis  # noqa: E402
from opmc.rings import ring_make  # noqa: E402
from opmc.simplex_chains import degeneracy_map  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"

E2_SEED = 20
E2_DENSITY = 0.5
HORN_SEED = 7
LINF_SEED = 3
LINF_DENSITY = 0.8


def module_rows(spec):
    return [{"name": n, "degree": d, "weight": w} for n, d, w in spec]


def coderivation_rows(comps):
    rows = []
    for (r, cname, inputs), terms in comps.items():
        rows.append({
            "arity": r,
            "class": str(cname),
            "inputs": list(inputs),
            "value": [[vn, str(c)] for vn, c in sorted(terms.items())],
        })
    return rows


def canonical(doc):
    """The document as ``opmc export`` would write it."""
    inst = parse_instance(doc)
    text = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
    return inst, text


def make_e2():
    ring = ring_make({"kind": "integers-mod-m", "modulus": 2})
    C, _ = barratt_eccles(ring, 3, 2, n=2, validate=False)
    V = GradedModule(ring, [BasisElement(*row) for row in E2_HORNS_MODULE])
    cf = cofree_build(C, V, E2_HORNS_W_MAX)
    rng = random.Random(E2_SEED)
    comps = random_components(cf, rng, lambda _rng: 1, (2, 3), E2_DENSITY)
    doc = {
        "format": "opmc-instance/1",
        "ring": {"kind": "integers-mod-m", "modulus": 2},
        "cooperad": {"builder": "be", "r_max": 3, "d_max": 2, "n": 2},
        "module": module_rows(E2_HORNS_MODULE),
        "coderivation": coderivation_rows(comps),
        "options": {"w_max": E2_HORNS_W_MAX},
    }
    inst, text = canonical(doc)
    arities = {key[0] for key in inst.Qt.comps}
    if arities != {2, 3}:
        raise SystemExit(f"seed {E2_SEED}: components in arities {arities}")
    ok, witness = square_check(inst.Qt)
    if not ok:
        raise SystemExit(f"seed {E2_SEED}: the coderivation does not square "
                         f"to zero at {witness[0]!r}")
    (DATA / "e2_z2.json").write_text(text, encoding="utf-8")
    return inst


def horn_doc(horn):
    return {
        "format": "opmc-horn/1",
        "n": horn.n,
        "k": horn.k,
        "values": [
            {"class": list(I), "value": [[vn, str(c)] for vn, c in
                                         sorted(horn.value(I).terms.items())]}
            for I in horn_basis(horn.n, horn.k) if horn.value(I).terms
        ],
    }


def make_horns(inst):
    """Horns whose faces solve the equation, built up dimension by dimension.

    The horns of one dimension are the horns Lambda^n_k, k = 0, 1, ...,
    of as few base simplices as there are horns to fill, so that they
    cost about the same to fill.  In dimension 1 a base is a solution on
    the 1-simplex with a nonzero edge value; in higher dimensions it is a
    degeneracy of a filler from the dimension below.
    """
    problem = make_problem(inst)
    ring = inst.ring
    rng = random.Random(HORN_SEED)
    pool = {1: [e for e in problem.mc_simplices(1) if e.value((0, 1)).terms]}
    for old in (DATA / "horns").glob("*.json"):
        old.unlink()
    for n in E2_HORNS_DIMS:
        fillers = []
        for i in range(E2_HORN_FILES_PER_DIM):
            k = i % (n + 1)
            if k == 0:
                base = rng.choice(pool[n if n == 1 else n - 1])
                if n > 1:
                    j = rng.randrange(n)
                    base = base.precompose(degeneracy_map(ring, j, n - 1),
                                           problem.chains(n))
            horn = HornData.from_simplex(base, k)
            fillers.append(problem.horn_fill(horn))
            path = DATA / "horns" / f"e2_h{n}_{i}.json"
            path.write_text(json.dumps(horn_doc(horn), indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
        if n > 1:
            pool[n] = fillers


def make_linf():
    ring = ring_make({"kind": "rationals"})
    C, _ = com_cochains(ring, 4, validate=False)
    V = GradedModule(ring, [BasisElement(*row) for row in LINF_MODULE])
    cf = cofree_build(C, V, LINF_W_MAX)
    rng = random.Random(LINF_SEED)
    comps = random_components(cf, rng, rational_scalar, (0, 1, 2, 3, 4),
                              LINF_DENSITY)
    doc = {
        "format": "opmc-instance/1",
        "ring": {"kind": "rationals"},
        "cooperad": {"builder": "com", "r_max": 4},
        "module": module_rows(LINF_MODULE),
        "coderivation": coderivation_rows(comps),
        "options": {"w_max": LINF_W_MAX},
    }
    inst, text = canonical(doc)
    if inst.Qt.flat:
        raise SystemExit(f"seed {LINF_SEED}: the instance is not curved")
    (DATA / "linf_q.json").write_text(text, encoding="utf-8")


def main():
    (DATA / "horns").mkdir(parents=True, exist_ok=True)
    make_horns(make_e2())
    make_linf()
    print(f"wrote {DATA}")


if __name__ == "__main__":
    main()
