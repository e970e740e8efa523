"""Builders for the example cooperads: cochains of finite simplicial
operads, the Barratt-Eccles family with its complexity filtration (the
associative family is its complexity-1 member) and the commutative one.
"""

from itertools import combinations
from math import comb

from .cooperad import (
    CooperadMorphism,
    CooperadTruncation,
    HopfStructure,
    shapes,
    validate_cooperad,
    validate_hopf,
    validate_morphism,
)
from .errors import ShapeError
from .graded import BasisElement, LinearMap
from .operads import be_cocomposition
from .symmetric import OrbitModule, TrivialModule, all_permutations, compose, inverse

__all__ = [
    "ass_cochains",
    "com_cochains",
    "barratt_eccles",
    "en_restriction_morphism",
]

UNIT_NAME = "()"


def perm_name(p):
    """The images of p run together, joined by "-" from arity 10 on."""
    if not p:
        return UNIT_NAME
    return ("" if len(p) < 10 else "-").join(map(str, p))


def perm_from_name(name):
    if name == UNIT_NAME:
        return ()
    return tuple(map(int, name.split("-") if "-" in name else name))


def ass_cochains(ring, r_max, validate=True):
    """Functions on the symmetric groups, in degree 0: the complexity-1
    Barratt-Eccles cochains, whose simplices are single permutations.
    The cup product is pointwise multiplication, with unit the constant 1.
    """
    if r_max < 2:
        raise ShapeError("need r_max >= 2")
    return barratt_eccles(ring, r_max, 0, n=1, validate=validate)


def com_cochains(ring, r_max, validate=True):
    """Rank-one cochains with trivial symmetric group action (Q only).

    The action is not free, so coinvariants are handled through the
    norm over r! of ``TrivialModule``, which refuses a ring without
    the rationals (before the truncation is checked).
    """
    components = {r: TrivialModule(ring, r, f"c{r}") for r in range(r_max + 1)}
    if r_max < 2:
        raise ShapeError("need r_max >= 2")
    tables = {}
    for r in range(r_max + 1):
        for k, shape in shapes(r, r_max):
            tables[(k, shape)] = {
                f"c{r}": [(ring.one, f"c{k}", tuple(f"c{ri}" for ri in shape))]
            }
    C = CooperadTruncation(
        ring, r_max, components, tables,
        unit_name="c0", counit_name="c1",
    )
    products = {}
    units = {}
    for r in range(r_max + 1):
        name = f"c{r}"
        products[r] = {(name, name): [(ring.one, name)]}
        units[r] = C.component(r).module.gen(name)
    H = HopfStructure(C, products, units)
    if validate:
        validate_cooperad(C).require("com cochain cooperad")
        validate_hopf(C, H).require("com cochain hopf structure")
    return C, H


# ---------------------------------------------------------------------------
# Barratt-Eccles


def be_name(simplex):
    """Canonical name of a tuple of permutations."""
    return "|".join(perm_name(p) for p in simplex)


def be_from_name(name):
    return tuple(perm_from_name(part) for part in name.split("|"))


def be_simplices(r, d_max, n):
    """Non-degenerate simplices of dimension <= d_max, complexity <= n.

    The complexity is the largest number of runs in the restriction of a
    simplex to a pair of values {i, j} (which of i, j comes first, vertex
    by vertex).  Appending a vertex adds a run to exactly the pairs it
    reverses, so a simplex over the bound never extends to one under it:
    the frontier keeps only simplices within the bound, each with its
    per-pair run counts.  Simplices are listed by dimension, each
    dimension in the order of the vertex tuples.
    """
    perms = all_permutations(r)
    pairs = list(combinations(range(1, r + 1), 2))
    # order[p][t]: p puts the smaller value of pair t first
    order = {}
    for p in perms:
        inv = inverse(p)
        order[p] = tuple(inv[i - 1] < inv[j - 1] for i, j in pairs)

    def within(runs):
        return n is None or max(runs, default=0) <= n

    start = (1,) * len(pairs)
    frontier = [((p,), start) for p in perms if within(start)]
    out = [s for s, _ in frontier]
    for _ in range(d_max):
        nxt = []
        for s, runs in frontier:
            last = order[s[-1]]
            for p in perms:
                if p == s[-1]:
                    continue
                grown = tuple(c + (a != b) for c, a, b in zip(runs, last, order[p]))
                if within(grown):
                    nxt.append((s + (p,), grown))
        frontier = nxt
        out.extend(s for s, _ in frontier)
    return out


def barratt_eccles(ring, r_max, d_max=None, n=None, validate=True):
    """Normalized cochains on the Barratt-Eccles simplicial operad.

    ``n`` bounds the Berger-Fresse complexity (None: no bound, the full
    E-infinity truncation); n=1, d_max=0 is ``ass_cochains``.  For a
    finite ``n``, ``d_max`` defaults to the top dimension
    (n-1)*C(r_max, 2) of the complexity-n simplices of arity r_max, which
    gives the whole arity truncation of E_n.  The cocomposition is the
    transpose of the chain-level composition (the shuffle (EZ) map
    followed by vertex-wise block composition), which
    ``operads.be_cocomposition`` reads off each simplex; the Hopf
    product is the simplicial cup product (front face times back face).
    """
    if d_max is None:
        if n is None:
            raise ShapeError("an E-infinity truncation (n=None) needs d_max")
        d_max = (n - 1) * comb(r_max, 2)
    simplices = {r: {be_name(s): s for s in be_simplices(r, d_max, n)}
                 for r in range(r_max + 1)}
    C = CooperadTruncation(
        ring, r_max, be_components(ring, simplices),
        be_cocomposition(simplices),
        unit_name=be_name(((),)),
        counit_name=be_name(((1,),)),
    )
    H = be_cup_structure(ring, C)
    if validate:
        validate_cooperad(C).require("barratt-eccles cooperad")
        validate_hopf(C, H).require("barratt-eccles hopf structure")
    return C, H


def be_components(ring, simplices):
    """The cochain components, one per arity of ``simplices`` ({r: {name:
    simplex}}): the dual of a k-simplex has degree -k, the orbit
    representatives start at the identity, and sigma acts on every
    vertex."""
    components = {}
    for r, named in simplices.items():
        basis = [BasisElement(nm, 1 - len(s)) for nm, s in named.items()]
        ident = tuple(range(1, r + 1))
        reps = [nm for nm, s in named.items() if s[0] == ident]
        actions = {sigma: {nm: be_name(tuple(compose(sigma, p) for p in s))
                           for nm, s in named.items()}
                   for sigma in all_permutations(r)}
        components[r] = OrbitModule(ring, r, basis, reps, actions)
    return components


def be_cup_structure(ring, C):
    """Cup products a.b = a|b[1:] for a ending at the vertex b starts at,
    when that concatenation is a basis simplex; only these nonzero
    products are stored (``multiply_names`` reads a missing pair as 0)."""
    products = {}
    units = {}
    for r in range(C.r_max + 1):
        mod = C.component(r).module
        names = set(mod.names)
        vertices = {nm: nm.split("|") for nm in mod.names}
        by_first = {}
        for b in mod.names:
            by_first.setdefault(vertices[b][0], []).append(b)
        table = {}
        for a in mod.names:
            for b in by_first.get(vertices[a][-1], ()):
                nm = "|".join(vertices[a] + vertices[b][1:])
                if nm in names:
                    table[(a, b)] = [(ring.one, nm)]
        products[r] = table
        units[r] = mod.element(
            {n: ring.one for n in mod.names if C.degree(r, n) == 0})
    return HopfStructure(C, products, units)


def en_restriction_morphism(source, target, validate=True):
    """Restriction of cochains, dual to a simplicial suboperad inclusion.

    Basis names shared by both truncations map identically, everything
    else to zero; this realizes the maps from the full Barratt-Eccles
    cochains down the complexity filtration.
    """
    maps = {}
    for r in range(min(source.r_max, target.r_max) + 1):
        tgt = set(target.basis_names(r))
        maps[r] = LinearMap(
            source.component(r).module, target.component(r).module, 0,
            {(nm, nm): 1 for nm in source.basis_names(r) if nm in tgt})
    phi = CooperadMorphism(source, target, maps)
    if validate:
        validate_morphism(phi).require("cochain restriction morphism")
    return phi
