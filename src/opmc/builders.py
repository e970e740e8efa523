"""Builders for the example cooperads: cochains of finite simplicial
operads, with the associative family as the degenerate (discrete) case
and the Barratt-Eccles family with its complexity filtration.
"""

from itertools import combinations

from .cooperad import (
    CooperadMorphism,
    CooperadTruncation,
    HopfStructure,
    compositions,
    validate_cooperad,
    validate_hopf,
    validate_morphism,
)
from .errors import ShapeError
from .graded import BasisElement, LinearMap
from .operads import ChainOperad, dualize, nary_ez
from .symmetric import OrbitModule, Permutation, TrivialModule, all_permutations

__all__ = [
    "ass_cochains",
    "com_cochains",
    "barratt_eccles",
    "en_restriction_morphism",
    "be1_to_ass_iso",
]

UNIT_NAME = "()"


def perm_name(p):
    return p.oneline() if p.r else UNIT_NAME


def perm_from_name(name):
    if name == UNIT_NAME:
        return Permutation(())
    if "-" in name:
        return Permutation(tuple(int(t) for t in name.split("-")))
    return Permutation(tuple(int(ch) for ch in name))


def compose_permutations(mu, shape, taus):
    """gamma for the permutation (word) operad, substitution style.

    Input slot i of mu consumes the consecutive letters of block i (sizes
    given by shape); the output word splices the (shifted) word of
    taus[i-1] wherever mu's word reads i.  With this convention the
    operad structure is equivariant for the left-translation action.
    """
    k = mu.r
    offsets = [0]
    for s in shape:
        offsets.append(offsets[-1] + s)
    word = []
    for p in range(1, k + 1):
        i = mu(p)
        base = offsets[i - 1]
        tau = taus[i - 1]
        word.extend(base + tau(q) for q in range(1, shape[i - 1] + 1))
    return Permutation(tuple(word))


def ass_chain_operad(ring, r_max):
    components = {}
    for r in range(r_max + 1):
        def act(sigma, name, _r=r):
            return perm_name(sigma.compose(perm_from_name(name)))

        components[r] = OrbitModule.from_orbits(
            ring, r, [BasisElement(perm_name(Permutation.identity(r)), 0)], act
        )

    def compose_name(outer, shape, inners):
        mu = perm_from_name(outer)
        taus = [perm_from_name(n) for n in inners]
        return [(1, perm_name(compose_permutations(mu, shape, taus)))]

    return ChainOperad(
        ring, r_max, components, compose_name,
        id_name="1", unit_name=UNIT_NAME, label="ass-chains",
    )


def ass_cochains(ring, r_max, validate=True):
    """Functions on the symmetric groups, dual to the word operad.

    Cochains sit in degree 0; the Hopf product is pointwise
    multiplication of functions, with unit the constant function 1.
    """
    if r_max < 2:
        raise ShapeError("need r_max >= 2")
    C = dualize(ass_chain_operad(ring, r_max), label="ass-cochains")
    products = {}
    units = {}
    for r in range(r_max + 1):
        mod = C.component(r).module
        products[r] = {(a, a): [(ring.one, a)] for a in mod.names}
        eta = mod.zero()
        eta.terms = {n: ring.one for n in mod.names}
        units[r] = eta
    H = HopfStructure(C, products, units)
    if validate:
        validate_cooperad(C).require("ass cochain cooperad")
        validate_hopf(C, H).require("ass cochain hopf structure")
    return C, H


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
        for k in range(1, r_max + 1):
            for shape in compositions(r, k):
                if any(ri > r_max for ri in shape):
                    continue
                tables[(k, shape)] = {
                    f"c{r}": [(ring.one, f"c{k}", tuple(f"c{ri}" for ri in shape))]
                }
    C = CooperadTruncation(
        ring, r_max, components, tables,
        unit_name="c0", counit_name="c1", label="com-cochains",
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


def be_nondegenerate(simplex):
    return all(simplex[i] != simplex[i + 1] for i in range(len(simplex) - 1))


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
        inv = p.inverse()
        order[p] = tuple(inv(i) < inv(j) for i, j in pairs)

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


def barratt_eccles(ring, r_max, d_max, n=None, validate=True):
    """Normalized cochains on the Barratt-Eccles simplicial operad.

    ``n`` bounds the Berger-Fresse complexity (None: no bound, the full
    E-infinity truncation); n=1 reproduces the associative family in
    degree 0.  Chain-level composition is the shuffle (EZ) map followed
    by vertex-wise block composition; the Hopf product is the simplicial
    cup product (front face times back face).
    """
    op = be_chain_operad(ring, r_max, d_max, n)
    C = dualize(op, label=f"be{n if n is not None else 'inf'}-cochains")
    H = be_cup_structure(ring, C)
    if validate:
        validate_cooperad(C).require("barratt-eccles cooperad")
        validate_hopf(C, H).require("barratt-eccles hopf structure")
    return C, H


def be_chain_operad(ring, r_max, d_max, n=None):
    """Barratt-Eccles chains, with names as "|"-joined vertex names.

    Each basis name is split once into its tuple of vertex names, and
    each vertex composition (shape, vertex tuple) runs
    ``compose_permutations`` once per operad; compositions and faces
    then work on vertex names only.
    """
    components = {}
    for r in range(r_max + 1):
        simplices = be_simplices(r, d_max, n)
        # degree of a k-simplex is k; orbit reps start at the identity
        basis = [BasisElement(be_name(s), len(s) - 1) for s in simplices]
        reps = [be_name(s) for s in simplices if s[0].is_identity()]
        action = {}
        for s in simplices:
            nm = be_name(s)
            for sigma in all_permutations(r):
                moved = tuple(sigma.compose(p) for p in s)
                action[(sigma.images, nm)] = be_name(moved)
        components[r] = OrbitModule(ring, r, basis, reps, action)

    name_sets = {r: set(components[r].module.names) for r in range(r_max + 1)}
    vertices = {nm: tuple(nm.split("|")) for names in name_sets.values()
                for nm in names}
    perm_of = {perm_name(p): p for r in range(r_max + 1)
               for p in all_permutations(r)}
    composed = {}

    def compose_vertex(shape, vtx):
        """Name of gamma(vtx[0]; vtx[1:]), computed once per (shape, vtx)."""
        key = (shape, vtx)
        if key not in composed:
            composed[key] = perm_name(compose_permutations(
                perm_of[vtx[0]], shape, [perm_of[v] for v in vtx[1:]]))
        return composed[key]

    def compose_name(outer, shape, inners):
        out = {}
        factors = [vertices[outer]] + [vertices[nm] for nm in inners]
        for term, sign in nary_ez(factors):
            # term[j] = (w-vertex, v1-vertex, ..., vk-vertex) at position j
            names = [compose_vertex(shape, vtx) for vtx in term]
            if not be_nondegenerate(names):
                continue
            nm = "|".join(names)
            if nm not in name_sets[sum(shape)]:
                # outside the complexity/dimension truncation
                continue
            out[nm] = out.get(nm, 0) + sign
        return [(c, nm) for nm, c in out.items() if c]

    def faces(r, name):
        s = vertices[name]
        out = {}
        for i in range(len(s)):
            t = s[:i] + s[i + 1:]
            if not t or not be_nondegenerate(t):
                continue
            nm = "|".join(t)
            if nm not in name_sets[r]:
                continue
            out[nm] = out.get(nm, 0) + (1 if i % 2 == 0 else -1)
        return [(c, nm) for nm, c in out.items() if c]

    return ChainOperad(
        ring, r_max, components, compose_name,
        id_name=be_name((Permutation.identity(1),)),
        unit_name=be_name((Permutation.identity(0),)),
        faces=faces, label=f"be{n if n is not None else 'inf'}-chains",
    )


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
        eta = mod.zero()
        eta.terms = {
            n: ring.one for n in mod.names if C.degree(r, n) == 0
        }
        units[r] = eta
    return HopfStructure(C, products, units)


def en_restriction_morphism(source, target, validate=True):
    """Restriction of cochains, dual to a simplicial suboperad inclusion.

    Basis names shared by both truncations map identically, everything
    else to zero; this realizes the maps from the full Barratt-Eccles
    cochains down the complexity filtration.
    """
    maps = {}
    for r in range(min(source.r_max, target.r_max) + 1):
        f = LinearMap(source.component(r).module, target.component(r).module, 0)
        tgt = set(target.basis_names(r))
        for nm in source.basis_names(r):
            if nm in tgt:
                f.set(nm, nm, 1)
        maps[r] = f
    phi = CooperadMorphism(source, target, maps,
                           label=f"{source.label}->{target.label}")
    if validate:
        validate_morphism(phi).require("cochain restriction morphism")
    return phi


def be1_to_ass_iso(be1, ass, validate=True):
    """The renaming isomorphism from complexity-1 cochains to the
    associative family: the dual of a vertex permutation tuple goes to
    the dual of that permutation."""
    maps = {}
    for r in range(min(be1.r_max, ass.r_max) + 1):
        f = LinearMap(be1.component(r).module, ass.component(r).module, 0)
        for nm in be1.basis_names(r):
            s = be_from_name(nm)
            if len(s) != 1:
                raise ShapeError(
                    f"complexity-1 component has a positive-degree class {nm!r}"
                )
            f.set(nm, perm_name(s[0]), 1)
        maps[r] = f
    phi = CooperadMorphism(be1, ass, maps, label="be1->ass")
    if validate:
        validate_morphism(phi).require("be1 to ass renaming")
    return phi
