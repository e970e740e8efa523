"""Truncated unitary reduced unital Hopf cooperads.

A cooperad truncation stores, for every arity r <= R_max, a free
S_r-module uC(r) (arity 0 is spanned by the unitary element, arity 1 by
the counit) together with sparse cocomposition tables

    Delta_{k; r_1..r_k} : uC(r) -> uC(k) (x) uC(r_1) (x) ... (x) uC(r_k)

for all shapes expressible inside the truncation.  Tables arise by
transposing the composition of a finite-type chain operad; all structure
maps have degree 0, so dualization is sign-free and Koszul signs only
enter through explicit reorderings of tensor factors.

Validators check every law used downstream (counit, coassociativity,
equivariance, Hopf compatibility, the units' cocompositions, morphism
laws) and return a report with a witness for each failure.  Each law
compares two sparse dicts holding only nonzero coefficients, and both
sides are joins over the nonzero table entries, not loops over all
pairs or triples of names.  The tables are in normal form by
construction: every coefficient goes through ``ring.normalize`` and
every term is a tuple (coeff, outer, inners).  So the joins multiply
coefficients with plain * and negation, and each side is reduced once
per key by one ``Ring.collect`` (delayed modular reduction, as in
Dumas-Giorgi-Pernet, "FFPACK", ISSAC 2004):

* Coassociativity, per arity: both evaluation orders of every 2-level
  tree in one join per side, keyed (tree index, c, outer, inners,
  grands), so the first tree that differs is the witness.
  ``coassoc_trees`` lists the table keys of each tree once per (r,
  r_max); a tree whose flat and middle tables are empty is skipped, and
  each table is read with its degrees once per validation.
* Hopf associativity: each nonzero (a, b) -> d meets the products
  (d, c) -> e through an index by left factor, each (b, c) -> f meets
  (a, f) -> e through an index by right factor; compare on (a, b, c, e).
  The unit law multiplies eta into every name through the same indexes.
* Hopf equivariance, per sigma: sigma . eta = eta, and mu(sigma a,
  sigma b) = sigma . mu(a, b) on the nonzero products and their
  preimages under sigma x sigma.  Both sides vanish on every other pair,
  so this is the law over all pairs (a, b) for any map sigma of the
  names; when sigma permutes the basis it says that sigma carries the
  table of nonzero products onto itself.
* Cocomposition compatibility, per shape: Delta of each nonzero product
  against each term (a_0, x_1..x_k) of Delta(a) and each combination ys
  of right partners y_i of the x_i.  The terms of Delta(b) are indexed
  as ys -> {b_0: [(b, coeff)]}, so a combination without an entry is
  skipped, and each b_0 of an entry meets a_0 through a_0's partner
  dict.  The interleave sign is ``riffle_parity``, the shuffle kernel's
  too, computed on a hit only and memoised on the parities of |b_0|, the
  x_i and the y_i.
* The morphism law, per shape: both routes over the whole table, keyed
  (c, outer, inners).
* Table equivariance, per arity: if the law holds for two block
  permutations (mu; sigma_1..sigma_k), one leaving a shape and one
  leaving the shape the first leads to, it holds for their product,
  provided each arity acts on its names by a group action that keeps
  degrees.  The block permutations of all shapes are generated by the
  adjacent swaps of mu with every sigma_i the identity and the adjacent
  swaps inside one sigma_i with mu the identity: 450 of the 8,142 at
  r_max 4.  So the law is checked on these generators when the action
  tables pass ``_acts_by_homomorphisms``: the adjacent swaps keep
  degrees, and the table passes ``symmetric.is_group_action``, the
  group law the module constructor checks.  All block permutations are
  walked, in the order of the dense loops, only when the tables fail it
  or a generator fails.  Both walks read a ``_plan``, grouped by (shape,
  mu) with each element's block images precomputed; the generators'
  plan is cached per (r, r_max).  Per group, Delta(c) is signed once:
  under the identity mu it is read as it is, otherwise with the Koszul
  sign of mu memoised on the degree parities of the inner factors.
  Each name's moved terms are compared with the Delta of its image,
  name by name.

Degrees are read from the truncation's ``degrees`` table and group
actions from the components' stored ``actions`` rows.  A failing law
reports the witness that loops over the basis in order would meet
first: the differing keys are ordered by basis position, whatever the
order of the table dicts.
"""

from functools import lru_cache
from itertools import groupby, product as _product

from .errors import ShapeError, ValidationError
from .graded import koszul_sign_images
from .symmetric import adjacent_swaps, is_group_action

__all__ = [
    "CooperadTruncation",
    "HopfStructure",
    "CooperadMorphism",
    "Report",
    "compositions",
    "shapes",
    "validate_cooperad",
    "validate_hopf",
    "validate_morphism",
    "riffle_parity",
]


@lru_cache(maxsize=None)
def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in compositions(total - first, parts - 1))


@lru_cache(maxsize=None)
def shapes(r, r_max):
    """(k, shape) of every cocomposition of arity r inside the truncation,
    as a tuple cached per (r, r_max): every law walks it per arity."""
    return tuple((k, shape) for k in range(1, r_max + 1)
                 for shape in compositions(r, k) if all(x <= r_max for x in shape))


def riffle_parity(bdeg, xdegs, ydegs):
    """Parity of the Koszul sign of a x_1..x_k b y_1..y_k -> a b x_1 y_1
    .. x_k y_k, the interleave of two cocompositions under a product:
    b passes every x_i, and y_j passes x_i for i > j."""
    odd = later = 0  # later: the degree of the x_i right of y_j
    for x, y in zip(reversed(xdegs), reversed(ydegs)):
        odd += y * later
        later += x
    return (odd + bdeg * later) % 2


class Report:
    """Validation outcome: list of (law, ok, witness-or-None)."""

    def __init__(self):
        self.checks = []

    def add(self, law, ok, witness=None):
        self.checks.append((law, bool(ok), witness))

    def add_first(self, law, witnesses):
        """Record ``law`` with the first witness that is not None, if any."""
        witness = next((w for w in witnesses if w is not None), None)
        self.add(law, witness is None, witness)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(law, w) for law, ok, w in self.checks if not ok]

    def require(self, what="structure"):
        if not self.ok:
            law, witness = self.failures()[0]
            raise ValidationError(f"{what} failed {law}: {witness}")
        return self

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.failures())} failures"
        return f"Report({len(self.checks)} checks, {status})"


class CooperadTruncation:
    def __init__(self, ring, r_max, components, cocomp, unit_name, counit_name):
        self.ring = ring
        self.r_max = r_max
        self.components = dict(components)
        # normal form by construction: each term is (coeff, outer, inners)
        # with a normalized coeff and a tuple of inners, so the validators
        # multiply coefficients with plain * and reduce once per key.  The
        # tables are taken over, not copied: each row is replaced in place
        normalize = ring.normalize
        for table in cocomp.values():
            for name, terms in table.items():
                table[name] = [(normalize(c), o, tuple(gs)) for c, o, gs in terms]
        self.cocomp = cocomp
        self.unit_name = unit_name
        self.counit_name = counit_name
        for r in range(r_max + 1):
            if r not in self.components:
                raise ShapeError(f"missing component in arity {r}")
        if len(self.components[0].module) != 1:
            raise ShapeError("unitary component must have rank 1")
        if len(self.components[1].module) != 1:
            raise ShapeError("reduced: arity-1 component must be the counit line")
        # degrees[r][name]: the one degree table, read by every sign
        self.degrees = {r: {n: b.degree for n, b in om.module.basis.items()}
                        for r, om in self.components.items()}

    def component(self, r):
        if r not in self.components:
            raise ShapeError(f"arity {r} outside truncation (R_max={self.r_max})")
        return self.components[r]

    def basis_names(self, r):
        return self.component(r).module.names

    def degree(self, r, name):
        return self.degrees[r][name]

    def table(self, k, shape):
        return self.cocomp.get((k, tuple(shape)), {})

    def cocompose(self, k, shape, cname):
        """Terms (coeff, outer, inner-tuple) of Delta_{k;shape}(cname)."""
        return self.table(k, shape).get(cname, [])

    def unit_element(self):
        return self.component(0).module.gen(self.unit_name)

    def counit_element(self):
        return self.component(1).module.gen(self.counit_name)


class HopfStructure:
    """Arity-wise associative products mu_r with units eta_r."""

    def __init__(self, cooperad, products, units):
        self.cooperad = cooperad
        normalize = cooperad.ring.normalize
        for table in products.values():  # each row in normal form, in place
            for pair, terms in table.items():
                table[pair] = [(normalize(coeff), c) for coeff, c in terms]
        self.products = products  # r -> {(a, b): [(coeff, c), ...]}
        self.units = units  # r -> Element over components[r].module

    def multiply_names(self, r, a, b):
        return self.products.get(r, {}).get((a, b), [])

    def multiply(self, r, x, y):
        """Bilinear extension of mu_r to Elements."""
        return self.cooperad.component(r).module.element(
            (c, ca * cb * coeff)
            for a, ca in x.terms.items()
            for b, cb in y.terms.items()
            for coeff, c in self.multiply_names(r, a, b))

    def unit(self, r):
        return self.units[r]


class CooperadMorphism:
    """Degree-0 per-arity linear maps commuting with all structure."""

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = maps  # r -> LinearMap

    def apply_name(self, r, name):
        return self.maps[r].apply_name(name)


# ---------------------------------------------------------------------------
# validators


def _mismatch(lhs, rhs, order):
    """The first key, by ``order``, where two sparse dicts differ."""
    if lhs == rhs:
        return None
    return min((k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)),
               key=order)


def _term_dict(ring, terms):
    """Cocomposition terms (coeff, outer, inners) as a sparse dict."""
    return ring.collect(((o, gs), c) for c, o, gs in terms)


def _tensor(coeff, outer, inners):
    """Terms ((o, (g_1..g_k)), coeff) of coeff * outer (x) inner_1 ... (x)
    inner_k for sparse elements given as dicts, unreduced."""
    for o, co in outer.items():
        for combo in _product(*[x.items() for x in inners]):
            val = coeff * co
            for _, c in combo:
                val *= c
            yield (o, tuple(g for g, _ in combo)), val


def _positions(names):
    """{name: position} of a basis: the order in which witnesses are named."""
    return {n: i for i, n in enumerate(names)}


def _actions(C):
    """Per arity, the component's action table (``OrbitModule.actions``)."""
    return {r: C.component(r).actions for r in range(C.r_max + 1)}


def validate_cooperad(C):
    """Check counit laws, coassociativity, equivariance and freeness."""
    rep = Report()
    ring = C.ring

    # freeness is structural: every component's constructor locates each
    # name in the orbit of a representative; this reads that index back
    for r, om in C.components.items():
        try:
            for name in om.module.names:
                om.locate(name)
            rep.add(f"freeness arity {r}", True)
        except KeyError:
            rep.add(f"freeness arity {r}", False, f"unlocated basis in arity {r}")

    # counit laws, one entry per law and arity: the first failing name
    one, counit = ring.one, C.counit_name
    for r in range(C.r_max + 1):
        names = C.basis_names(r)
        rep.add_first(f"counit-outer arity {r}", (
            (r, c) for c in names
            if _term_dict(ring, C.cocompose(1, (r,), c)) != {(counit, (c,)): one}))
        if r >= 1:
            shape, inners = (1,) * r, (counit,) * r
            rep.add_first(f"counit-inner arity {r}", (
                (r, c) for c in names
                if _term_dict(ring, C.cocompose(r, shape, c)) != {(c, inners): one}))

    # each table of the truncation with the degrees of its terms: the
    # inner slot of many trees
    slots = {key: _inner_terms(C, key) for R in range(C.r_max + 1)
             for key in shapes(R, C.r_max) if key in C.cocomp}
    for r in range(C.r_max + 1):
        res = _coassoc_check(C, r, _positions(C.basis_names(r)), slots)
        rep.add(f"coassociativity arity {r}", res is None, res)
    del slots  # not kept alive through the equivariance checks

    deg = C.degrees
    act = _actions(C)
    generators_suffice = _acts_by_homomorphisms(deg, act)
    for r in range(C.r_max + 1):
        res = None
        if not generators_suffice or _equivariance_check(
                C, r, deg, act, _generator_plan(r, C.r_max)) is not None:
            res = _equivariance_check(
                C, r, deg, act, _plan(_block_permutations(r, C.r_max, act)))
        rep.add(f"equivariance arity {r}", res is None, res)
    return rep


def compositions_children(r, m, r_max):
    """2-level trees: per outer slot i (of m), a grandchild shape; total r.

    Only trees with at most r_max grandchildren in all are built, in the
    order of the full product of the per-slot shape lists.  It is read
    once per (r, m, r_max), by ``coassoc_trees``.
    """
    shapes_of = {R: [s for _, s in shapes(R, r_max)] for R in range(r_max + 1)}
    out = []

    def grow(per_child, budget, acc):
        if len(acc) == len(per_child):
            out.append(tuple(acc))
            return
        # every later slot takes at least one grandchild
        room = budget - (len(per_child) - len(acc) - 1)
        for s in per_child[len(acc)]:
            if len(s) > room:
                break  # shapes are listed by length
            grow(per_child, budget - len(s), acc + [s])

    for mid in compositions(r, m):
        if all(x <= r_max for x in mid):
            grow([shapes_of[R] for R in mid], r_max, [])
    return tuple(out)


@lru_cache(maxsize=None)
def coassoc_trees(r, r_max):
    """Every 2-level tree of arity r with the keys of the tables it reads,
    in the order of the dense loops: (grand_shapes, flat, outer, middle,
    inners), built once per (r, r_max).  grand_shapes holds the shape of
    the inner cocomposition of each outer slot i; flat is the table of
    the whole tree, outer the one splitting it into the m slots, middle
    the one of the slot arities and inners the one of each slot."""
    # every key is a shape of the truncation: share the (k, shape) tuples
    # of ``shapes`` rather than keep a copy per tree
    key = {ks: ks for R in range(r_max + 1) for ks in shapes(R, r_max)}
    trees = []
    for m in range(1, r_max + 1):
        for grand in compositions_children(r, m, r_max):
            flat = tuple(x for s in grand for x in s)
            sizes = tuple(len(s) for s in grand)
            trees.append((grand, key[len(flat), flat], key[m, sizes],
                          key[m, tuple(sum(s) for s in grand)],
                          tuple(key[ks] for ks in zip(sizes, grand))))
    return tuple(trees)


def _inner_terms(C, key):
    """Table ``key`` as {b: [(coeff, (c_i,), g-block, |c_i|, |g-block|)]}:
    the inner table of a slot in many trees, built once per validation."""
    deg = C.degrees
    k, shape = key
    return {b: [(cf, (ci,), gi, deg[k][ci], sum(deg[s][g] for s, g in zip(shape, gi)))
                for cf, ci, gi in terms]
            for b, terms in C.cocomp[key].items()}


def _coassoc_check(C, r, pos, slots):
    """Compare the two evaluation orders of every 2-level cocomposition of
    arity r on the whole table, in one join per side keyed (tree index, c,
    outer, inners, grands).  Returns a witness for the first tree, and in
    it the first basis name c, that differs; None when all are equal."""
    trees = coassoc_trees(r, C.r_max)
    table = C.cocomp.get
    live = []  # (tree index, flat, outer, middle, inner slots)
    for t, (_, flat_key, outer_key, middle_key, inner_keys) in enumerate(trees):
        flat, middle = table(flat_key, {}), table(middle_key, {})
        if flat or middle:
            live.append((t, flat, table(outer_key, {}), middle,
                         [slots.get(key, {}) for key in inner_keys]))

    # Path A: Delta_{k; flat}(c), then Delta_{m;(k_1..k_m)} on the outer
    side_a = C.ring.collect(
        ((t, c, o, cs, gs), coeff * coeff2)
        for t, flat, outer, _, _ in live
        for c, terms in flat.items() if c in pos
        for coeff, a, gs in terms
        for coeff2, o, cs in outer.get(a, ()))

    def path_b():
        # Delta_{m; mid}(c), then inner cocompositions per slot, read in
        # the order o, c_1, g-block_1, c_2, g-block_2, ...  Moving to o,
        # c_1..c_m, g_1..g_k takes each c_i past the g-blocks before it.
        for t, _, _, middle, inner in live:
            for c, terms in middle.items():
                if c not in pos:
                    continue
                for coeff, o, bs in terms:
                    for combo in _product(*[slot.get(b, ()) for slot, b in zip(inner, bs)]):
                        val, odd, passed, cs, gs = coeff, 0, 0, (), ()
                        for cf, ci, gi, dc, dg in combo:
                            val *= cf
                            odd += dc * passed
                            passed += dg
                            cs += ci
                            gs += gi
                        yield (t, c, o, cs, gs), -val if odd % 2 else val

    key = _mismatch(side_a, C.ring.collect(path_b()), lambda key: (key[0], pos[key[1]]))
    return None if key is None else (r, key[1], trees[key[0]][0], "coassociativity mismatch")


def _block_permutations(r, r_max, act):
    """Every block permutation (k, shape, mu, sigmas) of arity r, in the
    order of the dense loops: by shape, then mu, then sigma_1..sigma_k."""
    for k, shape in shapes(r, r_max):
        for mu in act[k]:
            for sigmas in _product(*[list(act[s]) for s in shape]):
                yield k, shape, mu, sigmas


def _block_generators(r, r_max):
    """Generators of the block permutations of arity r, per shape: the
    adjacent swaps of mu with every sigma_i the identity, then the
    adjacent swaps inside one sigma_i with mu the identity."""
    for k, shape in shapes(r, r_max):
        ids = tuple(tuple(range(1, s + 1)) for s in shape)
        for mu in adjacent_swaps(k):
            yield k, shape, mu, ids
        for i, s in enumerate(shape):
            for tau in adjacent_swaps(s):
                yield k, shape, tuple(range(1, k + 1)), ids[:i] + (tau,) + ids[i + 1:]


def _plan(elements):
    """Block permutations (k, shape, mu, sigmas), in their order, grouped
    by (shape, mu): per group (k, shape, mu, order, new_shape, [(sigmas,
    images)]).  order lists the inner slots in the order mu puts them in,
    new_shape their sizes in that order, and images is the block
    permutation (mu; sigma_1..sigma_k) of 1..r: each block lands after
    the blocks that mu places before it."""
    for (k, shape, mu), group in groupby(elements, key=lambda e: e[:3]):
        order = tuple(sorted(range(k), key=mu.__getitem__))
        starts = [sum(s for s, m in zip(shape, mu) if m < mi) for mi in mu]
        yield k, shape, mu, order, tuple(shape[i] for i in order), [
            (sigmas, tuple(st + x for st, sg in zip(starts, sigmas) for x in sg))
            for *_, sigmas in group]


@lru_cache(maxsize=None)
def _generator_plan(r, r_max):
    """``_block_generators`` of arity r as a ``_plan``, once per (r, r_max)."""
    return tuple(_plan(_block_generators(r, r_max)))


def _acts_by_homomorphisms(deg, act):
    """Whether every arity acts on its names by a group action that keeps
    degrees: each adjacent swap sends names to names of the same degree,
    and the table passes ``is_group_action``, the law the module
    constructor checks.  Then every sigma acts as the product of the
    swaps that write it, and keeps degrees too."""
    for r, table in act.items():
        d = deg[r]
        if any(x not in d or d[x] != d[n]
               for t in adjacent_swaps(r) for n, x in table[t].items()):
            return False
        if not is_group_action(r, table):
            return False
    return True


def _equivariance_check(C, r, deg, act, plan):
    """The first block permutation (k, shape, mu, sigmas) of a ``_plan``
    that the tables do not commute with, as a witness; None if none."""
    ring = C.ring
    names = C.basis_names(r)
    rows = {}  # shape -> {name: Delta_{k; shape}(name) as a sparse dict}

    def delta(k, shape):
        if shape not in rows:
            rows[shape] = {n: _term_dict(ring, terms) for n, terms in C.table(k, shape).items()}
        return rows[shape]

    signs = {}  # (mu, degree parities of the inner factors) -> Koszul sign of mu
    for k, shape, mu, order, new_shape, elements in plan:
        outer = act[k][mu]
        source = delta(k, shape)
        if order == tuple(range(k)):
            # the identity mu: Delta(c) as it is
            signed = {c: source.get(c, {}) for c in names}
        else:
            # Delta(c) with its inner factors in that order and the
            # Koszul sign of mu on them
            degs = [deg[s] for s in shape]
            signed = {}
            for c in names:
                row = signed[c] = {}
                for (a, gs), v in source.get(c, {}).items():
                    parities = (mu,) + tuple([d[g] % 2 for d, g in zip(degs, gs)])
                    if parities not in signs:
                        signs[parities] = koszul_sign_images(mu, parities[1:])
                    row[a, tuple([gs[i] for i in order])] = (
                        v if signs[parities] > 0 else ring.normalize(-v))
        target = delta(k, new_shape)
        for sigmas, images in elements:
            hat = act[r][images]
            inners = [act[shape[i]][sigmas[i]] for i in order]
            for c in names:
                moved = [((outer[a], tuple([f[g] for f, g in zip(inners, gs)])), v)
                         for (a, gs), v in signed[c].items()]
                rhs = dict(moved)
                if len(rhs) < len(moved):  # two terms moved onto one key
                    rhs = ring.collect(moved)
                if target.get(hat[c], {}) != rhs:
                    return (r, c, k, shape, mu, sigmas)
    return None


def _products(ring, products):
    """Nonzero products {(a, b): {c: coeff}} of one arity, and the same
    entries indexed by left factor, {a: {b: ab}}, and by right factor,
    {b: {a: ab}}."""
    table = {}
    for key, terms in products.items():
        prod = ring.collect((c, coeff) for coeff, c in terms)
        if prod:
            table[key] = prod
    by_left, by_right = {}, {}
    for (a, b), prod in table.items():
        by_left.setdefault(a, {})[b] = prod
        by_right.setdefault(b, {})[a] = prod
    return table, by_left, by_right


def validate_hopf(C, H):
    """Associativity, units, equivariance and cocomposition compatibility."""
    rep = Report()
    ring = C.ring
    deg = C.degrees
    prods = {r: _products(ring, H.products.get(r, {})) for r in range(C.r_max + 1)}
    # per arity: basis positions, and the nonzero products of basis names
    pos, inner = {}, {}
    for r in range(C.r_max + 1):
        pos[r] = _positions(C.basis_names(r))
        inner[r] = {key: prod for key, prod in prods[r][0].items()
                    if key[0] in pos[r] and key[1] in pos[r]}

    for r in range(C.r_max + 1):
        table, by_left, by_right = prods[r]
        eta = H.unit(r).terms
        res = _hopf_unit_check(ring, r, pos[r], eta, by_left, by_right)
        rep.add(f"hopf-unit arity {r}", res is None, res)
        res = _hopf_assoc_check(ring, r, pos[r], inner[r], by_left, by_right)
        rep.add(f"hopf-associativity arity {r}", res is None, res)
        res = _hopf_equivariance_check(
            ring, r, C.component(r), pos[r], eta, table, inner[r])
        rep.add(f"hopf-equivariance arity {r}", res is None, res)

    # compatibility: cocomposition tables are algebra morphisms
    for r in range(C.r_max + 1):
        res = _hopf_compat_check(C, r, pos[r], inner[r], prods, deg)
        rep.add(f"hopf-cocomposition-compat arity {r}", res is None, res)

    # Delta(eta_r) = eta_k (x) eta_{r_1} .. eta_{r_k}: eta is a morphism from uCOCOM
    eta = [H.unit(r).terms for r in range(C.r_max + 1)]
    for r in range(C.r_max + 1):
        rep.add_first(f"hopf-unit-cocomposition arity {r}", (
            (r, k, shape) for k, shape in shapes(r, C.r_max)
            if ring.collect(((o, gs), cx * c) for n, cx in eta[r].items()
                            for c, o, gs in C.table(k, shape).get(n, ()))
            != ring.collect(_tensor(ring.one, eta[k], [eta[s] for s in shape]))))
    return rep


def _hopf_unit_check(ring, r, pos, eta, by_left, by_right):
    """eta a = a = a eta for every basis name a."""
    def times_eta(index):
        terms = {}
        for n, ce in eta.items():
            for x, prod in index.get(n, {}).items():
                terms.setdefault(x, []).extend((c, ce * cp) for c, cp in prod.items())
        return {x: ring.collect(t) for x, t in terms.items()}

    left, right = times_eta(by_left), times_eta(by_right)
    for a in pos:
        want = {a: ring.one}
        if left.get(a, {}) != want or right.get(a, {}) != want:
            return (r, a)
    return None


def _hopf_assoc_check(ring, r, pos, inner, by_left, by_right):
    """(ab)c = a(bc), joined over the nonzero products ab and bc."""
    lhs = ring.collect(
        ((a, b, c, e), cd * ce)
        for (a, b), ab in inner.items() for d, cd in ab.items()
        for c, dc in by_left.get(d, {}).items() if c in pos
        for e, ce in dc.items())
    rhs = ring.collect(
        ((a, b, c, e), cf * ce)
        for (b, c), bc in inner.items() for f, cf in bc.items()
        for a, af in by_right.get(f, {}).items() if a in pos
        for e, ce in af.items())
    key = _mismatch(lhs, rhs, lambda k: (pos[k[0]], pos[k[1]], pos[k[2]]))
    return None if key is None else (r,) + key[:3]


def _hopf_equivariance_check(ring, r, om, pos, eta, table, inner):
    """sigma . eta = eta, and mu(sigma a, sigma b) = sigma . mu(a, b) on the
    nonzero products and their preimages under sigma x sigma."""
    for images, move in om.actions.items():
        if ring.collect((move[n], c) for n, c in eta.items()) != eta:
            return (r, images)
        preimages = {}
        for a, x in move.items():
            preimages.setdefault(x, []).append(a)
        pairs = set(inner)
        for x, y in table:
            pairs.update(_product(preimages.get(x, ()), preimages.get(y, ())))
        for a, b in sorted(pairs, key=lambda k: (pos[k[0]], pos[k[1]])):
            moved = ring.collect((move[c], v) for c, v in inner.get((a, b), {}).items())
            if table.get((move[a], move[b]), {}) != moved:
                return (r, images, a, b)
    return None


def _hopf_compat_check(C, r, pos, inner, prods, deg):
    """Delta(mu(a, b)) = (mu_k (x) mu_{r_i}) of Delta(a) and Delta(b)
    interleaved, per shape, joined over nonzero products and terms."""
    ring = C.ring
    parities = {}  # (|b_0|, x-parities, y-parities) mod 2 -> riffle_parity
    for k, shape in shapes(r, C.r_max):
        table = C.table(k, shape)
        outer_partners = prods[k][1]
        inner_partners = [prods[s][1] for s in shape]
        by_ys = {}  # (y_1..y_k) -> {b_0: [(b, coeff)]} over the terms of Delta(b)
        for b, terms in table.items():
            if b in pos:
                for cb, b0, ys in terms:
                    by_ys.setdefault(ys, {}).setdefault(b0, []).append((b, cb))

        def rhs_terms():
            # each term (a_0, xs) of Delta(a), each combination ys of right
            # partners of the x_i, each b with a term (b_0, ys) whose b_0 is
            # a right partner of a_0
            for a, terms in table.items():
                if a not in pos:
                    continue
                for ca, a0, xs in terms:
                    partners = outer_partners.get(a0)
                    if not partners:
                        continue
                    rows = [p.get(x) for p, x in zip(inner_partners, xs)]
                    if not all(rows):
                        continue
                    xpar = tuple(deg[s][x] % 2 for s, x in zip(shape, xs))
                    for combo in _product(*[row.items() for row in rows]):
                        hits = by_ys.get(tuple(y for y, _ in combo))
                        b0s = hits.keys() & partners.keys() if hits else ()
                        if not b0s:
                            continue
                        ypar = tuple(deg[s][y] % 2 for s, (y, _) in zip(shape, combo))
                        # mu_{r_1}(x_1, y_1) (x) .. (x) mu_{r_k}(x_k, y_k)
                        grands = []
                        for gc in _product(*[p.items() for _, p in combo]):
                            cg = ring.one
                            for _, c in gc:
                                cg *= c
                            grands.append((tuple(g for g, _ in gc), cg))
                        for b0 in b0s:
                            key = (deg[k][b0] % 2, xpar, ypar)
                            if key not in parities:
                                parities[key] = riffle_parity(*key)
                            odd = parities[key]
                            for b, cb in hits[b0]:
                                cab = -(ca * cb) if odd else ca * cb
                                for o, co in partners[b0].items():
                                    v = cab * co
                                    for gs, cg in grands:
                                        yield (a, b, o, gs), v * cg

        lhs = ring.collect(
            ((a, b, o, gs), v * c)
            for (a, b), ab in inner.items() for d, v in ab.items()
            for c, o, gs in table.get(d, ()))
        key = _mismatch(lhs, ring.collect(rhs_terms()),
                        lambda key: (pos[key[0]], pos[key[1]]))
        if key is not None:
            return (r, k, shape, key[0], key[1])
    return None


def validate_morphism(phi):
    """Equivariance, counit and cocomposition commutation for phi."""
    rep = Report()
    S, T = phi.source, phi.target
    ring = T.ring
    r_max = min(S.r_max, T.r_max)

    def image(r, name):
        """phi(name) in arity r, the stored sparse row."""
        return phi.maps[r].entries.get(name, {})

    for r in range(r_max + 1):
        f = phi.maps[r]
        ok = f.degree == 0
        rep.add(f"morphism-degree arity {r}", ok, None if ok else f.degree)

        act_t = T.component(r).actions
        rep.add_first(f"morphism-equivariance arity {r}", (
            (r, images, name)
            for images, move in S.component(r).actions.items()
            for name, moved in move.items()
            if image(r, moved) != ring.collect(
                (act_t[images][n], c) for n, c in image(r, name).items())))

    ok = phi.maps[1].apply_name(S.counit_name).eq(T.counit_element())
    rep.add("morphism-counit", ok)
    ok = phi.maps[0].apply_name(S.unit_name).eq(T.unit_element())
    rep.add("morphism-unit", ok)

    for r in range(r_max + 1):
        pos = _positions(S.basis_names(r))
        rep.add_first(f"morphism-cocomposition arity {r}", (
            _morphism_cocomp_check(ring, S, T, image, pos, r, k, shape)
            for k, shape in shapes(r, r_max)))
    return rep


def _morphism_cocomp_check(ring, S, T, image, pos, r, k, shape):
    """(phi (x) phi..) Delta_S(c) = Delta_T(phi(c)) on the whole table of
    arity r, keyed (c, outer, inners); a witness for the first c that
    differs."""
    source, target = S.table(k, shape), T.table(k, shape)
    lhs = ring.collect(
        ((c,) + key, v)
        for c, terms in source.items() if c in pos
        for coeff, o, gs in terms
        for key, v in _tensor(coeff, image(k, o), [image(s, g) for s, g in zip(shape, gs)]))
    rhs = ring.collect(
        ((c, o, gs), cx * cc)
        for c in pos for n, cx in image(r, c).items()
        for cc, o, gs in target.get(n, ()))
    key = _mismatch(lhs, rhs, lambda key: pos[key[0]])
    return None if key is None else (r, k, shape, key[0])
