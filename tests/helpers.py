"""Shared helpers for randomized test instances, and the algebra of
elements, linear maps and surjections that only the tests' identities
use (d o d = 0, dh + hd = id - p o eps, the surjection degree)."""

from fractions import Fraction
from itertools import chain

from opmc.builders import en_restriction_morphism
from opmc.cofree import Coderivation, coderivation_extend
from opmc.errors import DEFAULT_RESOURCE_CAP, ShapeError
from opmc.graded import LinearMap
from opmc.simplex_chains import c_coalgebra_decompose, coproduct_plan


# The Barratt-Eccles truncations at r_max 3 whose whole basis some tests
# walk, as (d_max, n): the shipped E2 (tests/data/e2_z2.json), complete
# E2 (e2c_z2.json, whose d_max defaults to 3) and E3 (d_max 6)
BE_AT_3 = {"e2": (2, 2), "e2c": (3, 2), "e3": (6, 3)}


def coleibniz_defect(cf, Qt, ks=(1, 2)):
    """Keys where decompose_k(Q x) differs from the coderivation rule.

    Terms whose cofactor weights sum beyond the truncation are dropped on
    the right-hand side: a curved Q raises weight, and such terms exist
    on neither side of the truncated identity.
    """
    C = cf.cooperad
    ring = cf.ring
    Q = coderivation_extend(Qt)
    bad = []
    for key in cf.module.names:
        x = cf.module.gen(key)
        for k in ks:
            lhs = cf.decompose(Q(x), k)
            rhs = {}
            for (a, keys), c in cf.decompose(x, k).items():
                adeg = C.degree(k, a)
                for i in range(k):
                    pre = adeg + sum(cf.module.degree(keys[j]) for j in range(i))
                    sign = -1 if pre % 2 else 1
                    for key2, c2 in Q.on_key(keys[i]).terms.items():
                        nk = (a, keys[:i] + (key2,) + keys[i + 1:])
                        if sum(cf.module.weight(kk) for kk in nk[1]) > cf.w_max:
                            continue
                        val = ring.normalize(c * c2 * sign)
                        rhs[nk] = ring.normalize(rhs.get(nk, 0) + val)
            rhs = {kk: v for kk, v in rhs.items() if v}
            if lhs != rhs:
                bad.append((key, k))
    return bad


def rand_scalar(ring, rng):
    if getattr(ring, "finite", False):
        return rng.randrange(ring.modulus)
    if ring.contains_rationals:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
    return rng.randint(-2, 2)


def random_coderivation(cf, rng, curved=False, density=0.6):
    """Random corestriction data respecting degree and weight additivity."""
    V = cf.V
    ring = cf.ring
    comps = {}
    for key in cf.module.names:
        r = key[0]
        if r == 0 and not curved:
            continue
        tdeg = cf.module.degree(key) - 1
        wt = cf.module.weight(key)
        terms = {}
        for vn in V.names:
            if V.degree(vn) != tdeg or V.weight(vn) < wt:
                continue
            if rng.random() < density:
                terms[vn] = rand_scalar(ring, rng)
        comps[key] = V.element(terms)
    return Coderivation(cf, comps)


def sub(x, y):
    """x - y for two elements of one module."""
    return x.add(y.scale(-1))


def chain_gen(cx, I, coeff=1):
    """coeff * e_I in the chains ``cx`` on a simplex, I in any order."""
    return cx.module.gen(tuple(sorted(I)), coeff)


def decompose_over(E, I, r, cap=DEFAULT_RESOURCE_CAP):
    """The arity-r chain coproduct of e_I over the cochains E themselves:
    ``c_coalgebra_decompose`` through the identity morphism, as
    ``make_problem`` sets it up."""
    phi = en_restriction_morphism(E, E, validate=False)
    return c_coalgebra_decompose(coproduct_plan(phi, r), I, cap=cap)


def surjection_degree(seq):
    """The degree of a surjection, given as its sequence of values: its
    length minus its arity."""
    return len(seq) - max(seq)


def map_pairs(f):
    """The nonzero entries of a linear map as ((src, tgt), coeff) pairs."""
    return (((src, tgt), c) for src, row in f.entries.items()
            for tgt, c in row.items())


def compose(f, g):
    """f after g (the source of f is the target of g)."""
    if g.target is not f.source:
        raise ShapeError("maps not composable")
    return LinearMap(g.source, f.target, f.degree + g.degree, (
        ((src, tgt), f.ring.normalize(c * e))
        for (src, mid), c in map_pairs(g)
        for tgt, e in f.entries.get(mid, {}).items()))


def map_add(f, g):
    if g.source is not f.source or g.target is not f.target:
        raise ShapeError("maps between different modules")
    if g.degree != f.degree:
        raise ShapeError("maps of different degrees")
    return LinearMap(f.source, f.target, f.degree,
                     chain(map_pairs(f), map_pairs(g)))


def map_scale(f, coeff):
    normalize = f.ring.normalize
    coeff = normalize(coeff)
    return LinearMap(f.source, f.target, f.degree,
                     ((key, normalize(c * coeff)) for key, c in map_pairs(f)))


def map_identity(module):
    return LinearMap(module, module, 0, (((n, n), 1) for n in module.names))


def map_eq(f, g):
    return (f.degree == g.degree and f.source is g.source
            and f.target is g.target and f.entries == g.entries)
