"""Dense reference builders: the oracle for ``opmc.operads.dualize`` and
the Barratt-Eccles construction in ``opmc.builders``, with the word
operad ``dense_ass_chain_operad`` as an oracle for ``ass_cochains`` that
does not go through Barratt-Eccles.

These are the straightforward loops that the pruned, memoised builder
replaces: ``dense_tables`` calls ``compose`` on every (outer, inners)
product of basis names, ``dense_be_chain_operad`` composes every vertex
of every shuffle term through ``compose_permutations``,
``dense_be_simplices`` filters the full enumeration of vertex tuples by
``be_complexity``, and ``dense_cup_products`` tries every pair of names.
They are slow (about 2 s for the tables of E2 at r_max=3, d_max=2), so
tests keep their instances small.
"""

from itertools import product as _product

from opmc.builders import (
    UNIT_NAME,
    be_from_name,
    be_name,
    be_nondegenerate,
    compose_permutations,
    perm_from_name,
    perm_name,
)
from opmc.cooperad import compositions
from opmc.graded import BasisElement
from opmc.operads import ChainOperad, nary_ez
from opmc.symmetric import OrbitModule, Permutation, all_permutations


def from_orbits(ring, arity, rep_basis, act_name):
    """The OrbitModule spanned by the orbits of ``rep_basis`` under a free
    action function ``act_name(sigma, name)``."""
    group = all_permutations(arity)
    basis, seen = [], set()
    for rep in rep_basis:
        for sigma in group:
            name = act_name(sigma, rep.name)
            if name not in seen:
                seen.add(name)
                basis.append(BasisElement(name, rep.degree, rep.weight))
    actions = {sigma.images: {b.name: act_name(sigma, b.name) for b in basis}
               for sigma in group}
    return OrbitModule(ring, arity, basis, [r.name for r in rep_basis], actions)


def dense_tables(op):
    """The cocomposition tables of ``op``, one ``compose`` per product."""
    ring = op.ring
    tables = {}
    for r in range(op.r_max + 1):
        for k in range(1, op.r_max + 1):
            for shape in compositions(r, k):
                if any(ri > op.r_max for ri in shape):
                    continue
                table = {}
                outer_names = op.components[k].module.names
                inner_choices = [op.components[ri].module.names for ri in shape]
                for b in outer_names:
                    for inners in _product(*inner_choices):
                        for coeff, out in op.compose(b, shape, inners):
                            coeff = ring.normalize(coeff)
                            if ring.is_zero(coeff):
                                continue
                            table.setdefault(out, []).append((coeff, b, inners))
                tables[(k, shape)] = table
    return tables


def dense_ass_chain_operad(ring, r_max):
    """The word operad: one basis word per permutation, in degree 0,
    composed by substitution."""
    components = {}
    for r in range(r_max + 1):
        def act(sigma, name, _r=r):
            return perm_name(sigma.compose(perm_from_name(name)))

        components[r] = from_orbits(
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


def be_complexity(simplex, r):
    """Largest variation count among restrictions to pairs of values."""
    if r < 2:
        return 0
    worst = 0
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            word = []
            for p in simplex:
                # restriction of p to the values {i, j}, in position order
                inv = p.inverse()
                first = i if inv(i) < inv(j) else j
                if not word or word[-1] != first:
                    word.append(first)
            worst = max(worst, len(word))
    return worst


def dense_be_simplices(r, d_max, n):
    """Every non-degenerate vertex tuple of dimension <= d_max, by
    dimension, kept when its complexity is at most n."""
    perms = all_permutations(r)
    out = []
    frontier = [(p,) for p in perms]
    for p in frontier:
        if n is None or be_complexity(p, r) <= n:
            out.append(p)
    for _ in range(d_max):
        frontier = [s + (p,) for s in frontier for p in perms if p != s[-1]]
        for t in frontier:
            if n is None or be_complexity(t, r) <= n:
                out.append(t)
    return out


def dense_be_chain_operad(ring, r_max, d_max, n=None):
    """Barratt-Eccles chains with vertex-by-vertex composition."""
    components = {}
    for r in range(r_max + 1):
        simplices = dense_be_simplices(r, d_max, n)
        basis = [BasisElement(be_name(s), len(s) - 1) for s in simplices]
        reps = [be_name(s) for s in simplices if s[0].is_identity()]
        action = {}
        for s in simplices:
            for sigma in all_permutations(r):
                moved = tuple(sigma.compose(p) for p in s)
                action.setdefault(sigma.images, {})[be_name(s)] = be_name(moved)
        components[r] = OrbitModule(ring, r, basis, reps, action)
    name_sets = {r: set(components[r].module.names) for r in range(r_max + 1)}

    def compose_name(outer, shape, inners):
        w = be_from_name(outer)
        vs = [be_from_name(nm) for nm in inners]
        out = {}
        for term, sign in nary_ez([w] + vs):
            composed = tuple(
                compose_permutations(vtx[0], shape, list(vtx[1:])) for vtx in term
            )
            if not be_nondegenerate(composed):
                continue
            nm = be_name(composed)
            if nm not in name_sets[sum(shape)]:
                continue
            out[nm] = out.get(nm, 0) + sign
        return [(c, nm) for nm, c in out.items() if c]

    return ChainOperad(
        ring, r_max, components, compose_name,
        id_name=be_name((Permutation.identity(1),)),
        unit_name=be_name((Permutation.identity(0),)),
    )


def dense_cup_products(C, d_max):
    """The nonzero cup products of the Barratt-Eccles cochains ``C``,
    per arity, found by trying every pair of names."""
    ring = C.ring
    products = {}
    for r in range(C.r_max + 1):
        names = C.component(r).module.names
        table = {}
        for a in names:
            sa = be_from_name(a)
            for b in names:
                sb = be_from_name(b)
                if sa[-1] != sb[0]:
                    continue
                z = sa + sb[1:]
                if len(z) - 1 > d_max or not be_nondegenerate(z):
                    continue
                nm = be_name(z)
                if nm in names:
                    table[(a, b)] = [(ring.one, nm)]
        products[r] = table
    return products
