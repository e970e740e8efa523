"""Dense reference builders: the oracle for the Barratt-Eccles
construction in ``opmc.builders`` and its closed-form tables in
``opmc.operads``, with the word operad ``dense_ass_chain_operad`` as an
oracle for ``ass_cochains`` that does not go through Barratt-Eccles.

These are the straightforward loops that the closed form and the pruned
enumeration replace: ``dense_tables`` calls ``compose`` on every
(outer, inners) product of basis names of a ``ChainOperad``,
``dense_be_chain_operad`` composes every vertex of every shuffle term
(``nary_ez``) through ``compose_permutations``, ``dense_be_simplices``
filters the full enumeration of vertex tuples by ``be_complexity``, and
``dense_cup_products`` tries every pair of names.  They are slow (about
2 s for the tables of E2 at r_max=3, d_max=2), so tests keep their
instances small.

The chain-level oracles live here too: the package's cooperads carry no
differential, since their tables transpose the composition alone, so
the Barratt-Eccles face differential (``be_chain_differential``) and the
surjection boundary (``surjection_boundary``) serve only the tests that
d^2 = 0 and that composition and the interval-cut action are chain maps.
"""

from functools import cache
from itertools import combinations, product as _product

from opmc.builders import (
    UNIT_NAME,
    be_from_name,
    be_name,
    perm_from_name,
    perm_name,
)
from opmc.cooperad import compositions
from opmc.errors import ShapeError
from opmc.graded import BasisElement
from opmc.symmetric import OrbitModule, all_permutations, compose, inverse


class ChainOperad:
    """Truncated chain operad with free symmetric group actions.

    ``compose_name(outer_name, shape, inner_names)`` returns a list of
    (coeff, out_name) for gamma(outer; inners).
    """

    def __init__(self, ring, r_max, components, compose_name, id_name,
                 unit_name):
        self.ring = ring
        self.r_max = r_max
        self.components = dict(components)
        self._compose = compose_name
        self.id_name = id_name
        self.unit_name = unit_name
        for r in range(r_max + 1):
            if r not in self.components:
                raise ShapeError(f"missing chain component in arity {r}")

    def compose(self, outer, shape, inners):
        return self._compose(outer, tuple(shape), tuple(inners))


def compose_permutations(mu, shape, taus):
    """gamma for the permutation (word) operad, substitution style.

    Input slot i of mu consumes the consecutive letters of block i (sizes
    given by shape); the output word splices the (shifted) word of
    taus[i-1] wherever mu's word reads i.  With this convention the
    operad structure is equivariant for the left-translation action.
    """
    offsets = [0]
    for s in shape:
        offsets.append(offsets[-1] + s)
    word = []
    for i in mu:
        base = offsets[i - 1]
        word.extend(base + x for x in taus[i - 1])
    return tuple(word)


def be_nondegenerate(simplex):
    return all(simplex[i] != simplex[i + 1] for i in range(len(simplex) - 1))


# ---------------------------------------------------------------------------
# Eilenberg-Zilber shuffle map on vertex-tuple simplices
#
# All simplicial sets in this package are "nerve-like": a q-simplex is a
# (q+1)-tuple of vertices, faces drop entries, degeneracies repeat them,
# and a simplex is degenerate iff two adjacent entries are equal.  The
# shuffle map then has a clean staircase description: a term of
# EZ(x (x) y) picks a monotone lattice path from (0,0) to (p,q) and reads
# off the vertex pairs along it; the sign is the parity of the shuffle.


@cache
def _staircases(p, q):
    """Monotone paths as (vertex-index pairs, sign), memoised per (p, q)."""
    out = []
    n = p + q
    # choose which of the n steps advance the first factor
    for steps_x in combinations(range(n), p):
        sx = set(steps_x)
        a = b = 0
        pairs = [(0, 0)]
        for step in range(n):
            if step in sx:
                a += 1
            else:
                b += 1
            pairs.append((a, b))
        # sign: parity of the shuffle placing x-steps at steps_x
        inv = 0
        for i in steps_x:
            inv += sum(1 for j in range(i) if j not in sx)
        out.append((tuple(pairs), -1 if inv % 2 else 1))
    return tuple(out)


def binary_ez(x, y):
    """EZ(x (x) y) for vertex tuples x, y; terms ((paired tuple), sign).

    Each output term is a tuple of (vx, vy) vertex pairs of length
    len(x)-1 + len(y)-1 + 1; degenerate terms are not filtered here.
    """
    p, q = len(x) - 1, len(y) - 1
    out = []
    for pairs, sign in _staircases(p, q):
        out.append((tuple((x[a], y[b]) for a, b in pairs), sign))
    return out


def nary_ez(factors):
    """Iterated shuffle map on a list of vertex tuples.

    Returns terms (tuple-of-vertex-tuples, sign): each term is a simplex
    of the product, presented as one tuple of vertices per position, i.e.
    term[j] collects the j-th vertex of every factor.
    """
    if not factors:
        raise ShapeError("empty product of simplices")
    acc = [(tuple((v,) for v in factors[0]), 1)]
    for fac in factors[1:]:
        nxt = []
        for xs, s1 in acc:
            for pairs, s2 in binary_ez(xs, fac):
                merged = tuple(vx + (vy,) for vx, vy in pairs)
                nxt.append((merged, s1 * s2))
        acc = nxt
    return acc


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
    actions = {sigma: {b.name: act_name(sigma, b.name) for b in basis}
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
                            if not coeff:
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
            return perm_name(compose(sigma, perm_from_name(name)))

        components[r] = from_orbits(
            ring, r, [BasisElement(perm_name(tuple(range(1, r + 1))), 0)], act
        )

    def compose_name(outer, shape, inners):
        mu = perm_from_name(outer)
        taus = [perm_from_name(n) for n in inners]
        return [(1, perm_name(compose_permutations(mu, shape, taus)))]

    return ChainOperad(
        ring, r_max, components, compose_name,
        id_name="1", unit_name=UNIT_NAME,
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
                inv = inverse(p)
                first = i if inv[i - 1] < inv[j - 1] else j
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
        reps = [be_name(s) for s in simplices if s[0] == tuple(range(1, r + 1))]
        action = {}
        for s in simplices:
            for sigma in all_permutations(r):
                moved = tuple(compose(sigma, p) for p in s)
                action.setdefault(sigma, {})[be_name(s)] = be_name(moved)
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
        id_name=be_name(((1,),)),
        unit_name=be_name(((),)),
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


def be_chain_differential(op, r, name):
    """The differential of the Barratt-Eccles chains ``op`` on the simplex
    ``name`` of arity r: the alternating sum of its faces, without the
    degenerate ones and those outside the truncation, as (coeff, name')
    terms."""
    s = name.split("|")
    names = set(op.components[r].module.names)
    terms = []
    for i in range(len(s)):
        t = s[:i] + s[i + 1:]
        if not t or not be_nondegenerate(t):
            continue
        nm = "|".join(t)
        if nm not in names:
            continue
        terms.append((nm, 1 if i % 2 == 0 else -1))
    return [(c, nm) for nm, c in op.ring.collect(terms).items()]


def surjection_boundary(seq):
    """Boundary of a surjection, given as its sequence of values: signed
    single-entry deletions.

    Returns [(coeff, sequence)]; deletions producing equal adjacent
    values or losing a value are dropped (normalization).  Orientation:
    each non-final occurrence of a value (caesura) carries a degree-1
    marker, in position order.  Deleting a caesura removes its own
    marker; deleting a final occurrence turns the previous occurrence of
    that value into the final one, removing that marker and flipping the
    overall orientation.  The resulting signs make the interval-cut
    action a chain map and square to zero (both verified exhaustively in
    the tests for lengths up to 6).
    """
    l = len(seq)
    last = {v: max(i for i in range(l) if seq[i] == v) for v in set(seq)}
    caesuras = [t for t in range(l) if t != last[seq[t]]]
    counts = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    out = []
    for t in range(l):
        v = seq[t]
        if counts[v] == 1:
            continue
        rest = seq[:t] + seq[t + 1:]
        if any(rest[i] == rest[i + 1] for i in range(len(rest) - 1)):
            continue
        if t != last[v]:
            sign = (-1) ** sum(1 for c in caesuras if c < t)
        else:
            prev = max(i for i in range(t) if seq[i] == v)
            sign = -((-1) ** sum(1 for c in caesuras if c < prev))
        out.append((sign, rest))
    return out
