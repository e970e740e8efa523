"""Normalized chains on standard simplices.

Basis classes e_I are indexed by nonempty subsets I of {0..n}, stored as
strictly increasing tuples, with degree |I| - 1 and the usual alternating
boundary.  The module also provides the explicit vertex contractions
(counit, vertex inclusion, chain homotopy), the cosimplicial structure,
and the chain-level coalgebra structure over permutation-tuple cochains:
a tuple of permutations reduces to a sum of surjections by the table
procedure, and surjections act on chains through interval cuts.

The coproduct along a cooperad morphism phi out of those cochains is
split in two.  ``coproduct_plan(phi, r)`` holds what does not depend on
the class: for each source name of arity r, in basis order, the
surjections of its table reduction and phi's image of the name.
``c_coalgebra_decompose(plan, I)`` walks the plan once for a class I,
acts with each distinct surjection once and sums every term, pushed
through phi, in one ``collect``.  The caller keeps the plan for as long
as it decomposes classes along that phi: ``MCProblem`` keeps one per
arity for its own lifetime, and this module stores none.
"""

from functools import cache
from itertools import combinations

from .builders import be_from_name
from .errors import DEFAULT_RESOURCE_CAP, ResourceLimitError, ShapeError
from .graded import BasisElement, GradedModule, LinearMap

__all__ = [
    "SimplexChains",
    "simplex_classes",
    "subclass_table",
    "chains",
    "induced_map",
    "face_map",
    "degeneracy_map",
    "contraction",
    "Surjection",
    "surjection_action",
    "table_reduction",
    "coproduct_plan",
    "c_coalgebra_decompose",
]


class SimplexChains:
    """N_*(Delta^n): basis e_I, alternating boundary, counit at vertices."""

    def __init__(self, ring, n):
        if n < 0:
            raise ShapeError(f"need n >= 0, got {n}")
        self.ring = ring
        self.n = n
        self.module = GradedModule(ring, [
            BasisElement(I, len(I) - 1, 1) for I in simplex_classes(n)])
        self.d = LinearMap(self.module, self.module, -1, (
            ((I, I[:j] + I[j + 1:]), (-1) ** j)
            for I in self.module.names if len(I) > 1 for j in range(len(I))))

    def top(self):
        return tuple(range(self.n + 1))


def simplex_classes(n):
    """The basis classes of N_*(Delta^n), the one enumeration of them:
    the nonempty subsets of {0..n} as increasing tuples, by size, then
    in ``combinations`` order."""
    for size in range(1, n + 2):
        yield from combinations(range(n + 1), size)


def subclass_table(n):
    """The subclasses of each class of Delta^n, in positional order.

    Entry i lists the subclasses of the i-th class I of
    ``simplex_classes(n)``: member j is I relabelled through the j-th
    class of ``simplex_classes(len(I) - 1)``, so position j means the
    same for every class of that size, and the last member is I.
    Members are shared tuples: one reference per (class, subclass).
    """
    classes = {I: I for I in simplex_classes(n)}
    return tuple(
        tuple(classes[tuple(I[p] for p in J)]
              for J in simplex_classes(len(I) - 1))
        for I in classes)


@cache
def chains(ring, n):
    """N_*(Delta^n), built once per (ring object, n): the one store of
    simplex complexes, shared by every caller, so never mutated."""
    return SimplexChains(ring, n)


def induced_map(f, source, target):
    """Chain map N_*(Delta^m) -> N_*(Delta^n) of a monotone vertex map.

    ``f`` lists the images of 0..m; classes on which f is not injective
    collapse to zero (normalization).
    """
    m = source.n
    if len(f) != m + 1:
        raise ShapeError(f"vertex map has {len(f)} entries, expected {m + 1}")
    if any(f[i] > f[i + 1] for i in range(m)):
        raise ShapeError(f"vertex map {f} is not monotone")
    if f and (f[0] < 0 or f[-1] > target.n):
        raise ShapeError(f"vertex map {f} leaves 0..{target.n}")
    images = ((I, tuple(f[i] for i in I)) for I in source.module.names)
    return LinearMap(source.module, target.module, 0, (
        ((I, J), 1) for I, J in images if len(set(J)) == len(J)))


# The maps below are memoised per (ring object, index, n), like ``chains``:
# a LinearMap has no mutator, so every caller can share one.

@cache
def face_map(ring, i, n):
    """delta_i: N_*(Delta^(n-1)) -> N_*(Delta^n), skipping vertex i."""
    verts = [v for v in range(n + 1) if v != i]
    return induced_map(verts, chains(ring, n - 1), chains(ring, n))


@cache
def degeneracy_map(ring, j, n):
    """sigma_j: N_*(Delta^(n+1)) -> N_*(Delta^n), repeating vertex j."""
    verts = [v if v <= j else v - 1 for v in range(n + 2)]
    return induced_map(verts, chains(ring, n + 1), chains(ring, n))


@cache
def contraction(ring, k, n):
    """The contraction of N_*(Delta^n) onto its k-th vertex.

    Returns (cx, eps, p, h): eps is the counit to N_*(Delta^0), p the
    vertex inclusion, and h the chain homotopy with
    d h + h d = id - p o eps.
    """
    if not 0 <= k <= n:
        raise ShapeError(f"vertex {k} outside 0..{n}")
    cx = chains(ring, n)
    pt = chains(ring, 0)
    eps = induced_map([0] * (n + 1), cx, pt)
    p = induced_map([k], pt, cx)
    h = LinearMap(cx.module, cx.module, 1, (
        ((I, tuple(sorted(I + (k,)))), (-1) ** sum(1 for v in I if v < k))
        for I in cx.module.names if k not in I))
    return cx, eps, p, h


class Surjection:
    """A surjection {1..len} ->> {1..r} with no equal adjacent values."""

    __slots__ = ("seq", "arity")

    def __init__(self, seq):
        seq = tuple(seq)
        if not seq:
            raise ShapeError("empty surjection")
        arity = max(seq)
        if set(seq) != set(range(1, arity + 1)):
            raise ShapeError(f"{seq} is not onto 1..{arity}")
        if any(seq[i] == seq[i + 1] for i in range(len(seq) - 1)):
            raise ShapeError(f"{seq} has equal adjacent values (degenerate)")
        self.seq = seq
        self.arity = arity

    def __eq__(self, other):
        return isinstance(other, Surjection) and self.seq == other.seq

    def __hash__(self):
        return hash(self.seq)

    def __repr__(self):
        return f"Surjection{self.seq}"


def surjection_action(u, I):
    """Interval-cut action of a surjection on a chain basis class.

    Returns {(J_1, ..., J_r): coeff}; total output degree is
    |e_I| + len(u.seq) - u.arity.  The sign is the Koszul sign of
    regrouping the interval pieces by output slot -- a piece ending a
    non-final occurrence is graded one above its interior degree and
    contributes the parity of its right cut -- the orientation convention
    fixed by the chain-map property against the surjection boundary,
    which the tests keep as a chain-level oracle.

    The cuts 0 = c_0 <= ... <= c_l = |I| - 1 are walked in lexicographic
    order, one piece at a time, with the sign carried along: a piece
    crosses the odd-degree pieces already placed in higher slots.  A
    piece that starts where the previous piece of its slot ended repeats
    a vertex, so every cut completing it gives a degenerate class and
    the walk leaves that branch.
    """
    seq = u.seq
    l = len(seq)
    p = len(I) - 1
    slots = [v - 1 for v in seq]
    caesura = [v in seq[t + 1:] for t, v in enumerate(seq)]
    segs = [()] * u.arity
    out = {}

    def place(t, a, sign, odd):
        # piece t starts at cut a; bit s of odd is the degree parity of slot s
        s = slots[t]
        seg = segs[s]
        if seg and seg[-1] == I[a]:
            return
        above = (odd >> (s + 1)).bit_count() & 1
        if t == l - 1:
            if (p - a) & 1 and above:
                sign = -sign
            segs[s] = seg + I[a:]
            key = tuple(segs)
            out[key] = out.get(key, 0) + sign
            segs[s] = seg
            return
        c = caesura[t]
        for b in range(a, p + 1):
            deg = b - a + c
            sg = -sign if c and b & 1 else sign
            if deg & 1 and above:
                sg = -sg
            segs[s] = seg + I[a:b + 1]
            place(t + 1, b, sg, odd ^ ((deg & 1) << s))
        segs[s] = seg

    place(0, 0, 1, 0)
    del place  # the closure holds itself through its cell: no cycle left
    return {k: c for k, c in out.items() if c}


def table_reduction(simplex):
    """Reduce a tuple of permutations to a sum of surjections.

    ``simplex`` is a (d+1)-tuple of permutations of the same arity; the
    result lists the surjections of length arity + d produced by the
    table procedure, one per admissible row-length composition, without
    signs (the convention matching the degree-0 and mod-2 uses below).
    """
    d = len(simplex) - 1
    r = simplex[0].r
    out = []

    def rec(i, closed, seq, remaining_len):
        row_all = [v for v in simplex[i].images if v not in closed]
        # every take from this row starts with row_all[0], and a row
        # repeats no value: the one place two equal values can meet
        if seq and row_all and row_all[0] == seq[-1]:
            return
        max_take = len(row_all)
        if i == d:
            if len(row_all) == remaining_len:
                out.append(Surjection(seq + row_all))
            return
        for a in range(1, min(max_take, remaining_len - (d - i)) + 1):
            take = row_all[:a]
            rec(i + 1, closed | set(take[:-1]), seq + take,
                remaining_len - a)

    rec(0, frozenset(), [], r + d)
    del rec  # as in surjection_action
    return out


def coproduct_plan(phi, r):
    """What the arity-r chain coproduct along ``phi`` reads of its
    cooperads, the same for every class: (ring, rows).

    ``phi`` is a cooperad morphism out of permutation-tuple cochains.
    Each source name of arity r gives one row, in basis order: the
    surjections of its table reduction, and phi's image of the name as
    (target name, coeff) pairs.  An arity above the truncation is
    refused before any reduction, a negative one by the source's
    ``basis_names``.
    """
    E = phi.source
    if r > E.r_max:
        raise ShapeError(f"arity {r} exceeds the truncation {E.r_max}")
    return phi.target.ring, [
        (table_reduction(be_from_name(name)),
         tuple(phi.apply_name(r, name).terms.items()))
        for name in (E.basis_names(r) if r else ())]


def c_coalgebra_decompose(plan, I, cap=DEFAULT_RESOURCE_CAP):
    """The chain coproduct of the class I, pushed along a cooperad
    morphism out of permutation-tuple cochains, from its
    ``coproduct_plan``.

    Returns {(target-cooperad name, (J_1..J_r)): coeff}: each source name
    pairs, as the dual basis element, with the image of e_I under its
    table reduction, and goes to phi's image of the name.  The action of
    a surjection on I is the same in every row, so each distinct
    surjection acts once, and the others read its terms.  Every term
    read counts against ``cap`` before the push, and the pushed terms
    are summed by one ``collect``; through the identity morphism the
    result, order included, is the coproduct over the source itself.
    """
    ring, rows = plan
    actions = {}
    read = 0
    terms = []
    for surjections, image in rows:
        for surj in surjections:
            action = actions.get(surj.seq)
            if action is None:
                action = actions[surj.seq] = surjection_action(surj, I)
            read += len(action)
            if read > cap:
                raise ResourceLimitError(
                    f"decomposition exceeded the term cap {cap}"
                )
            # both factors are normal, so the products are summed by
            # ``collect``
            terms += [((tname, key), c * tc)
                      for key, c in action.items() for tname, tc in image]
    return ring.collect(terms)
