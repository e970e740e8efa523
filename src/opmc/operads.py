"""Finite-type chain operads and their dualization into cocomposition tables.

A chain operad truncation stores, per arity r <= R_max, a free
S_r-module of non-negatively graded basis elements together with a full
composition rule gamma(b; b_1..b_k) given by a callback on basis names.
All compositions have degree 0; the differential (when present) is kept
as separate face data and used only for chain-level consistency tests,
never carried into the dual cooperad.

Dualizing transposes the composition tables: cochain basis names equal
chain basis names, cochain degree is minus the chain degree, and the
group action table is shared (sigma . delta_x = delta_{sigma . x}).
"""

from functools import cache
from itertools import combinations

from .cooperad import CooperadTruncation, shapes
from .errors import ShapeError
from .graded import BasisElement
from .symmetric import OrbitModule

__all__ = ["ChainOperad", "dualize", "binary_ez", "nary_ez"]


class ChainOperad:
    """Truncated chain operad with free symmetric group actions.

    ``compose_name(outer_name, shape, inner_names)`` returns a list of
    (coeff, out_name) for gamma(outer; inners); ``faces``, when given,
    maps (r, name) to the terms (coeff, name') of the differential.
    """

    def __init__(self, ring, r_max, components, compose_name, id_name,
                 unit_name, faces=None, label=""):
        self.ring = ring
        self.r_max = r_max
        self.components = dict(components)
        self._compose = compose_name
        self.id_name = id_name
        self.unit_name = unit_name
        self.faces = faces
        self.label = label
        for r in range(r_max + 1):
            if r not in self.components:
                raise ShapeError(f"missing chain component in arity {r}")

    def compose(self, outer, shape, inners):
        return self._compose(outer, tuple(shape), tuple(inners))

    def differential(self, r, name):
        if self.faces is None:
            return []
        return self.faces(r, name)


def dualize(op, label=""):
    """Transpose a chain operad's composition into cocomposition tables.

    Compositions have degree 0 and chain degrees are non-negative, so an
    (outer, inners) product whose degree sum exceeds the top degree of
    the output arity meets no basis element.  Such products are never
    formed: each factor is drawn from the names its share of the degree
    budget allows, in basis order, so every table lists its terms in the
    order of the full product.

    When the arity-0 part is the unit alone, a shape with an arity-0
    inner also drops every outer whose restriction is 0 before any
    product is formed (the restriction operators from which
    Berger-Fresse build E_n).  The restriction of b along the 0/1
    pattern p of the shape is gamma(b; p), the unit in each arity-0 slot
    and the identity in every other one, and by associativity
    gamma(b; c_1..c_k) = gamma(gamma(b; p); c') with c' the inners of
    positive arity.  So a zero restriction zeroes every product with
    that outer, provided the truncation keeps every nonzero restriction
    of a basis element.  Barratt-Eccles truncations do: the restriction
    is the vertex-wise restricted word of b, which keeps the dimension
    and cannot raise the complexity, so it is a basis simplex unless two
    neighbouring vertices are equal, and then it is 0 in normalised
    chains.
    """
    ring = op.ring
    components = {}
    for r, om in op.components.items():
        basis = [
            BasisElement(n, -om.module.degree(n), om.module.weight(n))
            for n in om.module.names
        ]
        components[r] = OrbitModule(ring, r, basis, om.orbit_reps, om.actions)

    buckets = {r: _degree_buckets(om.module) for r, om in op.components.items()}
    restricts = op.components[0].module.names == [op.unit_name]
    restricted = {}

    def restriction_vanishes(b, pattern):
        key = (b, pattern)
        if key not in restricted:
            slots = [op.id_name if p else op.unit_name for p in pattern]
            restricted[key] = not op.compose(b, pattern, slots)
        return restricted[key]

    tables = {}
    for r in range(op.r_max + 1):
        top = len(buckets[r]) - 1
        for k, shape in shapes(r, op.r_max):
            table = {}
            outers = buckets[k]
            if restricts and 0 in shape:
                pattern = tuple(min(ri, 1) for ri in shape)
                outers = [[(n, d) for n, d in bucket
                           if not restriction_vanishes(n, pattern)]
                          for bucket in outers]
            pools = [outers] + [buckets[ri] for ri in shape]
            for names in _bounded_products(pools, top):
                b, inners = names[0], names[1:]
                for coeff, out in op.compose(b, shape, inners):
                    coeff = ring.normalize(coeff)
                    if coeff == ring.zero:
                        continue
                    table.setdefault(out, []).append((coeff, b, inners))
            tables[(k, shape)] = table
    return CooperadTruncation(
        ring,
        op.r_max,
        components,
        tables,
        unit_name=op.unit_name,
        counit_name=op.id_name,
        label=label or (op.label + "-dual"),
    )


def _degree_buckets(module):
    """buckets[d]: the (name, degree) pairs of degree <= d, in basis order,
    for d up to the top degree."""
    degrees = [(n, module.degree(n)) for n in module.names]
    top = max((d for _, d in degrees), default=-1)
    return [[(n, d) for n, d in degrees if d <= b] for b in range(top + 1)]


def _bounded_products(pools, budget):
    """The name tuples of the product of the pools whose degree sum is at
    most ``budget``, in product order; pools[i] are degree buckets."""
    if not pools:
        yield ()
        return
    if budget < 0 or not pools[0]:
        return
    for name, d in pools[0][min(budget, len(pools[0]) - 1)]:
        for rest in _bounded_products(pools[1:], budget - d):
            yield (name,) + rest


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
