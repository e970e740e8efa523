"""Base change as an oracle: every structure map of the Barratt-Eccles
and associative cochains has integer coefficients, so a computation over
Z, reduced mod m, is the same computation over Z/m: the tables, and
above them the cofree decomposition, the twist, the residual, the
solution defect on the simplices and the horn fillers.  The Barratt-Eccles tables, Hopf
products and units over Z are also those over Q.  This
sees the ring-specific paths (``normalize`` and the zero tests of each
ring) that the same-ring oracles cannot."""

import random
from pathlib import Path

import pytest

from opmc.builders import barratt_eccles
from opmc.cofree import square_check
from opmc.instances import make_problem, parse_instance, read_json
from opmc.mc_space import HornData
from opmc.rings import ring_make
from opmc.simplex_chains import chains
from opmc.twisting import mc_residual, twist

Z = ring_make({"kind": "integers"})

BUILDS = {
    # (r_max, d_max, n): the shipped E2, complete E2 and E3, which the
    # dense oracle cannot reach
    "e2": (3, 2, 2),
    "e2c": (3, None, 2),
    "e3": (3, None, 3),
}


def reduced(ring, rows):
    """{key: [(name, terms)]} with each coefficient normalised in ring and
    the terms and rows that become 0 dropped, in their order."""
    out = {}
    for key, table in rows.items():
        kept = []
        for name, terms in table.items():
            terms = [(ring.normalize(t[0]),) + tuple(t[1:]) for t in terms]
            terms = [t for t in terms if t[0]]
            if terms:
                kept.append((name, terms))
        out[key] = kept
    return out


def as_lists(rows):
    return {key: list(table.items()) for key, table in rows.items()}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_be_structure_commutes_with_reduction(build):
    """Z -> Z/2 and Z -> Z/3 commute with the tables, the Hopf products
    and the units, and so does the inclusion Z -> Q: the tables are
    integral, so the build over Q is the build over Z."""
    r_max, d_max, n = BUILDS[build]
    C, H = barratt_eccles(Z, r_max, d_max, n=n, validate=False)
    for spec in (_mod(2), _mod(3), {"kind": "rationals"}):
        ring = ring_make(spec)
        Cm, Hm = barratt_eccles(ring, r_max, d_max, n=n, validate=False)
        assert reduced(ring, C.cocomp) == as_lists(Cm.cocomp), ring
        assert reduced(ring, H.products) == as_lists(Hm.products), ring
        units = {r: [(nm, ring.normalize(c)) for nm, c in u.terms.items()
                     if ring.normalize(c)] for r, u in H.units.items()}
        assert units == {r: list(u.terms.items())
                         for r, u in Hm.units.items()}, ring


# Instances over Z with r_max 3 and w_max 3, and for each a degree-0
# element v to twist by: coefficients that vanish mod 2 or mod 3 and
# one that is negative
INSTANCES = {
    "ass_z.json": [("x", 2)],
    "e2_z.json": [("x", 3), ("z", -2)],
}
DATA = Path(__file__).parent / "data"


def over(name, spec):
    """The instance in the file ``name``, its ring replaced by ``spec``."""
    doc = read_json(DATA / name)
    doc["ring"] = spec
    return parse_instance(doc, validate=False)


def cofree_layers(inst, v_terms):
    """What each layer above the tables computes on ``inst``: every basis
    class decomposed at each outer arity, the twist by v (verify off),
    its curvature and the residual of v, as plain dicts."""
    cf, H, Qt = inst.cofree, inst.hopf, inst.Qt
    v = inst.V.element(v_terms)
    twisted = twist(H, Qt, v, verify=False)
    return {
        "decompose": {(key, k): cf.decompose(cf.module.gen(key), k)
                      for key in cf.module.names
                      for k in range(1, cf.cooperad.r_max + 1)},
        "twist": {key: val.terms for key, val in twisted.comps.items()},
        "curvature": {"": twisted.curvature().terms},
        "residual": {"": mc_residual(H, Qt, v).terms},
    }


def reduce_layers(ring, layers):
    """``layers`` with each coefficient normalised in ring, and the terms
    and entries that become 0 dropped."""
    out = {}
    for layer, entries in layers.items():
        out[layer] = {}
        for key, terms in entries.items():
            terms = {t: ring.normalize(c) for t, c in terms.items()}
            terms = {t: c for t, c in terms.items() if c}
            if terms or layer in ("curvature", "residual"):
                out[layer][key] = terms
    return out


def _mod(m):
    return {"kind": "integers-mod-m", "modulus": m}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cofree_and_twist_commute_with_reduction(name):
    """Z -> Z/2, Z -> Z/3 and Z/4 -> Z/2 commute with cofree
    decomposition, the twist, its curvature and the residual."""
    v_terms = INSTANCES[name]
    layers = {m: cofree_layers(over(name, _mod(m)), v_terms) for m in (2, 3, 4)}
    layers[0] = cofree_layers(over(name, {"kind": "integers"}), v_terms)
    for source, target in ((0, 2), (0, 3), (4, 2)):
        ring = ring_make(_mod(target))
        got = reduce_layers(ring, layers[source])
        want = layers[target]
        for layer in want:
            assert got[layer] == want[layer], (source, target, layer)


# coefficients of the degree-0 elements on the simplices: negatives, and
# multiples of 2 and of 3 that vanish under one reduction and not the other
PSI_COEFFS = (-6, -3, -2, -1, 1, 2, 3, 4, 6)


def psi_terms(V, seed):
    """For each simplex dimension n <= 3, the terms of a degree-0 element
    on Delta^n over Z: {class: [(name, coeff)]}, drawn from ``seed``."""
    rng = random.Random(seed)
    out = {}
    for n in range(4):
        terms = {}
        for I in chains(Z, n).module.names:
            names = [b for b in V.names if V.degree(b) == len(I) - 1]
            terms[I] = [(b, rng.choice(PSI_COEFFS)) for b in names
                        if rng.random() < 0.8]
        out[n] = terms
    return out


def defect_layers(inst, terms):
    """The solution defect of each element of ``terms`` on its simplex."""
    P = make_problem(inst)
    out = {}
    for n, values in terms.items():
        psi = P.zero(n)
        for I, ts in values.items():
            psi.set(I, inst.V.element(ts))
        out.update({(n, I): v.terms for I, v in P.mc_defect(psi).values.items()})
    return {"defect": out}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_mc_defect_commutes_with_reduction(name):
    """Z -> Z/2, Z -> Z/3 and Z/4 -> Z/2 commute with the solution defect
    of a degree-0 element on the simplices of dimension 0 to 3."""
    rings = {m: over(name, _mod(m)) for m in (2, 3, 4)}
    rings[0] = over(name, {"kind": "integers"})
    terms = psi_terms(rings[0].V, 29)
    layers = {m: defect_layers(inst, terms) for m, inst in rings.items()}
    assert layers[0]["defect"]
    for source, target in ((0, 2), (0, 3), (4, 2)):
        ring = ring_make(_mod(target))
        got = reduce_layers(ring, layers[source])
        assert got == layers[target], (source, target)


def fill(P, n, k, values):
    """The filler of the (n, k) horn with values {class: terms}."""
    return P.horn_fill(HornData(
        n, k, P.V, {I: P.V.element(t) for I, t in values.items()}))


def z_horns(P, seed):
    """Horns over Z on ``ass_z.json``, three of each dimension 1 to 3, as
    (n, k, {class: terms}).  Its only degree-0 vertex over Z is zero (x
    squares to y), so the data are edges valued in u: a 1-horn is the
    vertex of such an edge, a 2-horn two such edges, and a 3-horn a
    degeneracy of a filler over Z of a 2-horn."""
    rng = random.Random(seed)
    fillers = []
    horns = []
    for n in (1, 2, 3):
        for _ in range(3):
            k = rng.randrange(n + 1)
            if n == 1:
                values = {(k,): {}}
            elif n == 2:
                values = {(min(k, i), max(k, i)): {"u": rng.choice(PSI_COEFFS)}
                          for i in range(3) if i != k}
                fillers.append(fill(P, n, k, values))
            else:
                full = P.degeneracy(rng.randrange(3), rng.choice(fillers),
                                    verify=False)
                values = {I: v.terms for I, v in
                          HornData.from_simplex(full, k).values.items()}
            horns.append((n, k, values))
    return horns


def test_horn_fillers_commute_with_reduction():
    """Z -> Z/2, Z -> Z/3 and Z/4 -> Z/2 commute with horn filling on
    ``ass_z.json``, which squares to zero over Z: the filler of a horn
    over Z, reduced, is the filler of the reduced horn."""
    rings = {m: over("ass_z.json", _mod(m)) for m in (2, 3, 4)}
    rings[0] = over("ass_z.json", {"kind": "integers"})
    assert square_check(rings[0].Qt)[0]
    P = make_problem(rings[0])
    # the (2, 0) horn with e_01 -> 2u and e_02 -> -3u fills with e_12 -> -5u
    filled = fill(P, 2, 0, {(0, 1): {"u": 2}, (0, 2): {"u": -3}})
    assert filled.value((1, 2)).terms == {"u": -5}
    horns = z_horns(P, 31)
    layers = {}
    for m, inst in rings.items():
        Pm = make_problem(inst)
        layers[m] = {"filler": {
            (i, I): v.terms for i, horn in enumerate(horns)
            for I, v in fill(Pm, *horn).values.items()}}
    assert any(len(I) == 2 for _, I in layers[0]["filler"])
    for source, target in ((0, 2), (0, 3), (4, 2)):
        ring = ring_make(_mod(target))
        got = reduce_layers(ring, layers[source])
        assert got == layers[target], (source, target)
