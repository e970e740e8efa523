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
equivariance, Hopf compatibility, morphism laws) and return a report
with a witness for each failure.  Each law compares two sparse dicts
holding only nonzero coefficients, and both sides are joins over the
nonzero table entries, not loops over all pairs or triples of names:

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
  against each term (a_0, x_1..x_k) of Delta(a), joined with the right
  partners b_0 of a_0 and y_i of x_i, and then with every b having the
  term (b_0, y_1..y_k) through an index of the table by (outer, inners).
* Coassociativity, table equivariance and the morphism laws compare two
  routes per basis name over its cocomposition terms, with degrees and
  group actions read from dicts built once.

A failing law reports the witness that loops over the basis in order
would meet first: the differing keys are ordered by basis position.
"""

from itertools import product as _product

from .errors import ShapeError, ValidationError
from .graded import koszul_sign_images
from .symmetric import all_permutations

__all__ = [
    "CooperadTruncation",
    "HopfStructure",
    "CooperadMorphism",
    "Report",
    "compositions",
    "validate_cooperad",
    "validate_hopf",
    "validate_morphism",
    "cocom_unit_morphism",
    "infinitesimal_cocomposition",
]


def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _shapes(r, r_max):
    """(k, shape) of every cocomposition of arity r inside the truncation."""
    for k in range(1, r_max + 1):
        for shape in compositions(r, k):
            if all(x <= r_max for x in shape):
                yield k, shape


def _collect(ring, items):
    """Sum (key, coeff) pairs by key and drop the keys that sum to zero."""
    out = {}
    for key, c in items:
        out[key] = ring.add(out.get(key, ring.zero), c)
    return {k: c for k, c in out.items() if not ring.is_zero(c)}


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

    def summary(self):
        lines = []
        for law, ok, witness in self.checks:
            mark = "pass" if ok else "FAIL"
            extra = "" if ok else f"  [{witness}]"
            lines.append(f"{mark}  {law}{extra}")
        return "\n".join(lines)

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.failures())} failures"
        return f"Report({len(self.checks)} checks, {status})"


class CooperadTruncation:
    def __init__(self, ring, r_max, components, cocomp, unit_name, counit_name,
                 label=""):
        self.ring = ring
        self.r_max = r_max
        self.components = dict(components)
        self.cocomp = cocomp
        self.unit_name = unit_name
        self.counit_name = counit_name
        self.label = label
        for r in range(r_max + 1):
            if r not in self.components:
                raise ShapeError(f"missing component in arity {r}")
        if len(self.components[0].module) != 1:
            raise ShapeError("unitary component must have rank 1")
        if len(self.components[1].module) != 1:
            raise ShapeError("reduced: arity-1 component must be the counit line")

    def component(self, r):
        if r not in self.components:
            raise ShapeError(f"arity {r} outside truncation (R_max={self.r_max})")
        return self.components[r]

    def basis_names(self, r):
        return self.component(r).module.names

    def degree(self, r, name):
        return self.component(r).module.degree(name)

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
        self.products = products  # r -> {(a, b): [(coeff, c), ...]}
        self.units = units  # r -> Element over components[r].module

    def multiply_names(self, r, a, b):
        return self.products.get(r, {}).get((a, b), [])

    def multiply(self, r, x, y):
        """Bilinear extension of mu_r to Elements."""
        ring = self.cooperad.ring
        out = self.cooperad.component(r).module.zero()
        out.terms = _collect(ring, (
            (c, ring.mul(ring.mul(ca, cb), coeff))
            for a, ca in x.terms.items()
            for b, cb in y.terms.items()
            for coeff, c in self.multiply_names(r, a, b)))
        return out

    def unit(self, r):
        return self.units[r]


class CooperadMorphism:
    """Degree-0 per-arity linear maps commuting with all structure."""

    def __init__(self, source, target, maps, label=""):
        self.source = source
        self.target = target
        self.maps = maps  # r -> LinearMap
        self.label = label

    def apply(self, r, x):
        return self.maps[r].apply(x)

    def apply_name(self, r, name):
        return self.maps[r].apply_name(name)

    def compose(self, other):
        """self after other (source of self = target of other)."""
        maps = {
            r: self.maps[r].compose(other.maps[r])
            for r in self.maps
            if r in other.maps
        }
        label = f"{self.label}o{other.label}" if self.label else other.label
        return CooperadMorphism(other.source, self.target, maps, label)


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
    return _collect(ring, (((o, tuple(gs)), c) for c, o, gs in terms))


def _delta(ring, table, x):
    """Terms ((outer, inners), coeff) of one cocomposition table applied
    to the sparse element x = {name: coeff}."""
    for name, cx in x.items():
        for c, o, gs in table.get(name, ()):
            yield (o, tuple(gs)), ring.mul(cx, c)


def _tensor(ring, coeff, outer, inners):
    """Terms ((o, (g_1..g_k)), coeff) of coeff * outer (x) inner_1 ... (x)
    inner_k for sparse elements given as dicts."""
    for o, co in outer.items():
        for combo in _product(*[list(x.items()) for x in inners]):
            val = ring.mul(coeff, co)
            for _, c in combo:
                val = ring.mul(val, c)
            yield (o, tuple(g for g, _ in combo)), val


def _block_starts(mu, shape):
    """Where each block lands when mu moves blocks of the given sizes:
    the total size of the blocks that mu places before it."""
    return [sum(s for s, m in zip(shape, mu) if m < mi) for mi in mu]


def _degrees(C):
    """Degree of every basis name, one dict per arity."""
    return {r: {n: C.degree(r, n) for n in C.basis_names(r)}
            for r in range(C.r_max + 1)}


def _actions(C):
    """Per arity: sigma.images -> {name: sigma . name}, in group order."""
    out = {}
    for r in range(C.r_max + 1):
        om = C.component(r)
        out[r] = {s.images: {n: om.act_name(s, n) for n in om.module.names}
                  for s in all_permutations(r)}
    return out


def validate_cooperad(C):
    """Check counit laws, coassociativity, equivariance and freeness."""
    rep = Report()
    ring = C.ring

    # freeness is structural: OrbitModule construction verifies it, but a
    # hand-built instance may bypass from_orbits, so re-derive cheaply.
    for r, om in C.components.items():
        try:
            for name in om.module.names:
                om.locate(name)
            rep.add(f"freeness arity {r}", True)
        except KeyError:
            rep.add(f"freeness arity {r}", False, f"unlocated basis in arity {r}")

    # counit laws
    for r in range(C.r_max + 1):
        for c in C.basis_names(r):
            t = _term_dict(ring, C.cocompose(1, (r,), c))
            ok = t == {(C.counit_name, (c,)): ring.one}
            rep.add("counit-outer", ok, None if ok else (r, c))
            if not ok:
                break
        if r >= 1:
            shape = (1,) * r
            for c in C.basis_names(r):
                t = _term_dict(ring, C.cocompose(r, shape, c))
                ok = t == {(c, (C.counit_name,) * r): ring.one}
                rep.add("counit-inner", ok, None if ok else (r, c))
                if not ok:
                    break

    deg = _degrees(C)
    for r in range(C.r_max + 1):
        rep.add_first(f"coassociativity arity {r}", (
            _coassoc_check(C, r, trees, deg)
            for m in range(1, C.r_max + 1)
            for trees in compositions_children(r, m, C.r_max)))

    act = _actions(C)
    for r in range(C.r_max + 1):
        res = _equivariance_check(C, r, deg, act)
        rep.add(f"equivariance arity {r}", res is None, res)
    return rep


def compositions_children(r, m, r_max):
    """2-level trees: per outer slot i (of m), a grandchild shape; total r.

    Only trees with at most r_max grandchildren in all are built, in the
    order of the full product of the per-slot shape lists.
    """
    shapes_of = {}
    for R in range(r_max + 1):
        shapes_of[R] = [s for k_i in range(1, r_max + 1)
                        for s in compositions(R, k_i)
                        if all(x <= r_max for x in s)]
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
    return out


def _coassoc_check(C, r, grand_shapes, deg):
    """Compare the two evaluation orders of a 2-level cocomposition.

    grand_shapes: per outer slot i, the shape of the inner cocomposition
    applied there.  Returns a witness on mismatch, None when equal.
    """
    ring = C.ring
    m = len(grand_shapes)
    mid_shape = tuple(sum(s) for s in grand_shapes)
    flat_shape = tuple(x for s in grand_shapes for x in s)
    child_sizes = tuple(len(s) for s in grand_shapes)
    flat = C.table(len(flat_shape), flat_shape)
    outer = C.table(m, child_sizes)
    middle = C.table(m, mid_shape)
    inner = [C.table(child_sizes[i], grand_shapes[i]) for i in range(m)]

    for c in C.basis_names(r):
        # Path A: Delta_{k; flat}(c), then Delta_{m;(k_1..k_m)} on the outer
        side_a = _collect(ring, (
            ((o, tuple(cs), tuple(gs)), ring.mul(coeff, coeff2))
            for coeff, a, gs in flat.get(c, ())
            for coeff2, o, cs in outer.get(a, ())))

        # Path B: Delta_{m; mid}(c), then inner cocompositions per slot,
        # read in the order o, c_1, g-block_1, c_2, g-block_2, ...  Moving
        # to o, c_1..c_m, g_1..g_k takes each c_i past the g-blocks before
        # it.
        side_b = []
        for coeff, o, bs in middle.get(c, ()):
            for combo in _product(*[inner[i].get(b, ()) for i, b in enumerate(bs)]):
                val, odd, passed = coeff, 0, 0
                for i, (cf, ci, gi) in enumerate(combo):
                    val = ring.mul(val, cf)
                    odd += deg[child_sizes[i]][ci] * passed
                    passed += sum(deg[s][g] for s, g in zip(grand_shapes[i], gi))
                key = (o, tuple(ci for _, ci, _ in combo),
                       tuple(g for _, _, gi in combo for g in gi))
                side_b.append((key, ring.mul(val, -1 if odd % 2 else 1)))

        if side_a != _collect(ring, side_b):
            return (r, c, grand_shapes, "coassociativity mismatch")
    return None


def _equivariance_check(C, r, deg, act):
    """Tables commute with every block permutation (mu; sigma_1..sigma_k)."""
    ring = C.ring
    names = C.basis_names(r)
    terms = {}  # (shape, name) -> Delta_{k; shape}(name) as a sparse dict

    def delta(k, shape, name):
        if (shape, name) not in terms:
            terms[shape, name] = _term_dict(ring, C.cocompose(k, shape, name))
        return terms[shape, name]

    for k, shape in _shapes(r, C.r_max):
        for mu, outer in act[k].items():
            # the inner slots in the order mu puts them in
            order = sorted(range(k), key=lambda i: mu[i])
            new_shape = tuple(shape[i] for i in order)
            starts = _block_starts(mu, shape)
            # Delta(c) with its inner factors in that order and the Koszul
            # sign of mu on them
            signed = {c: [(a, tuple(gs[i] for i in order), ring.mul(v, koszul_sign_images(
                              mu, [deg[s][g] for s, g in zip(shape, gs)])))
                          for (a, gs), v in delta(k, shape, c).items()]
                      for c in names}
            for sigmas in _product(*[list(act[s]) for s in shape]):
                # the block permutation (mu; sigma_1..sigma_k) of 1..r
                hat = act[r][tuple(st + x for st, sg in zip(starts, sigmas) for x in sg)]
                inners = [act[shape[i]][sigmas[i]] for i in order]
                for c in names:
                    moved = [((outer[a], tuple([f[g] for f, g in zip(inners, gs)])), v)
                             for a, gs, v in signed[c]]
                    rhs = dict(moved)
                    if len(rhs) < len(moved):  # two terms moved onto one key
                        rhs = _collect(ring, moved)
                    if delta(k, new_shape, hat[c]) != rhs:
                        return (r, c, k, shape, mu, sigmas)
    return None


def _products(ring, products):
    """Nonzero products {(a, b): {c: coeff}} of one arity, and the same
    entries listed by left factor and by right factor."""
    table = {}
    for key, terms in products.items():
        prod = _collect(ring, ((c, coeff) for coeff, c in terms))
        if prod:
            table[key] = prod
    by_left, by_right = {}, {}
    for (a, b), prod in table.items():
        by_left.setdefault(a, []).append((b, prod))
        by_right.setdefault(b, []).append((a, prod))
    return table, by_left, by_right


def validate_hopf(C, H):
    """Associativity, units, equivariance and cocomposition compatibility."""
    rep = Report()
    ring = C.ring
    deg = _degrees(C)
    prods = {r: _products(ring, H.products.get(r, {})) for r in range(C.r_max + 1)}
    # per arity: basis positions, and the nonzero products of basis names
    pos, inner = {}, {}
    for r in range(C.r_max + 1):
        pos[r] = {n: i for i, n in enumerate(C.basis_names(r))}
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
    return rep


def _hopf_unit_check(ring, r, pos, eta, by_left, by_right):
    """eta a = a = a eta for every basis name a."""
    def times_eta(index):
        terms = {}
        for n, ce in eta.items():
            for x, prod in index.get(n, ()):
                terms.setdefault(x, []).extend(
                    (c, ring.mul(ce, cp)) for c, cp in prod.items())
        return {x: _collect(ring, t) for x, t in terms.items()}

    left, right = times_eta(by_left), times_eta(by_right)
    for a in pos:
        want = {a: ring.one}
        if left.get(a, {}) != want or right.get(a, {}) != want:
            return (r, a)
    return None


def _hopf_assoc_check(ring, r, pos, inner, by_left, by_right):
    """(ab)c = a(bc), joined over the nonzero products ab and bc."""
    lhs, rhs = [], []
    for (a, b), ab in inner.items():
        for d, cd in ab.items():
            for c, dc in by_left.get(d, ()):
                if c in pos:
                    lhs.extend(((a, b, c, e), ring.mul(cd, ce)) for e, ce in dc.items())
    for (b, c), bc in inner.items():
        for f, cf in bc.items():
            for a, af in by_right.get(f, ()):
                if a in pos:
                    rhs.extend(((a, b, c, e), ring.mul(cf, ce)) for e, ce in af.items())
    key = _mismatch(_collect(ring, lhs), _collect(ring, rhs),
                    lambda k: (pos[k[0]], pos[k[1]], pos[k[2]]))
    return None if key is None else (r,) + key[:3]


def _hopf_equivariance_check(ring, r, om, pos, eta, table, inner):
    """sigma . eta = eta, and mu(sigma a, sigma b) = sigma . mu(a, b) on the
    nonzero products and their preimages under sigma x sigma."""
    eta_terms = _collect(ring, eta.items())
    for sigma in om.group():
        if _collect(ring, ((om.act_name(sigma, n), c) for n, c in eta.items())) != eta_terms:
            return (r, sigma.images)
        move = {a: om.act_name(sigma, a) for a in pos}
        preimages = {}
        for a, x in move.items():
            preimages.setdefault(x, []).append(a)
        pairs = set(inner)
        for x, y in table:
            pairs.update(_product(preimages.get(x, ()), preimages.get(y, ())))
        for a, b in sorted(pairs, key=lambda k: (pos[k[0]], pos[k[1]])):
            moved = _collect(ring, ((om.act_name(sigma, c), v)
                                    for c, v in inner.get((a, b), {}).items()))
            if table.get((move[a], move[b]), {}) != moved:
                return (r, sigma.images, a, b)
    return None


def _hopf_compat_check(C, r, pos, inner, prods, deg):
    """Delta(mu(a, b)) = (mu_k (x) mu_{r_i}) of Delta(a) and Delta(b)
    interleaved, per shape, joined over nonzero products and terms."""
    ring = C.ring
    for k, shape in _shapes(r, C.r_max):
        table = C.table(k, shape)
        lhs = [((a, b) + key, val)
               for (a, b), ab in inner.items() for key, val in _delta(ring, table, ab)]

        by_term = {}  # (b_0, (y_1..y_k)) -> [(b, coeff)] over the terms of Delta(b)
        for b in pos:
            for cb, b0, ys in table.get(b, ()):
                by_term.setdefault((b0, tuple(ys)), []).append((b, cb))
        outer_partners = prods[k][1]
        inner_partners = [prods[s][1] for s in shape]
        rhs = []
        for a in pos:
            for ca, a0, xs in table.get(a, ()):
                partners = outer_partners.get(a0)
                if not partners:
                    continue
                xdeg = [deg[s][x] for s, x in zip(shape, xs)]
                for combo in _product(*[p.get(x, ()) for p, x in zip(inner_partners, xs)]):
                    ys = tuple(y for y, _ in combo)
                    # a0 x_1..x_k b0 y_1..y_k -> a0 b0 x_1 y_1 ... x_k y_k:
                    # b0 passes every x_i, y_j passes x_i for i > j
                    ydeg = [deg[s][y] for s, y in zip(shape, ys)]
                    cross = sum(ydeg[j] * xdeg[i] for i in range(k) for j in range(i))
                    for b0, outer in partners:
                        odd = deg[k][b0] * sum(xdeg) + cross
                        for b, cb in by_term.get((b0, ys), ()):
                            coeff = ring.mul(ring.mul(ca, cb), -1 if odd % 2 else 1)
                            rhs.extend(((a, b) + key, val) for key, val in _tensor(
                                ring, coeff, outer, [p for _, p in combo]))
        key = _mismatch(_collect(ring, lhs), _collect(ring, rhs),
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
    images = {}

    def image(r, name):
        """phi(name) in arity r as a sparse dict."""
        if (r, name) not in images:
            images[r, name] = _collect(ring, phi.maps[r].entries.get(name, {}).items())
        return images[r, name]

    for r in range(r_max + 1):
        f = phi.maps[r]
        ok = f.degree == 0
        rep.add(f"morphism-degree arity {r}", ok, None if ok else f.degree)

        om_s, om_t = S.component(r), T.component(r)
        rep.add_first(f"morphism-equivariance arity {r}", (
            (r, sigma.images, name)
            for sigma in om_s.group()
            for name in om_s.module.names
            if image(r, om_s.act_name(sigma, name)) != _collect(ring, (
                (om_t.act_name(sigma, n), c) for n, c in image(r, name).items()))))

    ok = phi.maps[1].apply_name(S.counit_name).eq(T.counit_element())
    rep.add("morphism-counit", ok)
    ok = phi.maps[0].apply_name(S.unit_name).eq(T.unit_element())
    rep.add("morphism-unit", ok)

    for r in range(r_max + 1):
        rep.add_first(f"morphism-cocomposition arity {r}", (
            _morphism_cocomp_check(ring, S, T, image, r, k, shape)
            for k, shape in _shapes(r, r_max)))
    return rep


def _morphism_cocomp_check(ring, S, T, image, r, k, shape):
    """(phi (x) phi..) Delta_S(c) = Delta_T(phi(c)) for every c of arity r."""
    source, target = S.table(k, shape), T.table(k, shape)
    for c in S.basis_names(r):
        lhs = _collect(ring, (
            term
            for coeff, o, gs in source.get(c, ())
            for term in _tensor(ring, coeff, image(k, o),
                                [image(s, g) for s, g in zip(shape, gs)])))
        if lhs != _collect(ring, _delta(ring, target, image(r, c))):
            return (r, k, shape, c)
    return None


# ---------------------------------------------------------------------------
# the canonical morphism from the unitary cocommutative cooperad


def cocom_unit_morphism(C, H):
    """eta: uCOCOM -> uC sending the arity-r generator to eta_r.

    Verifies the morphism property on every truncation shape: the
    cocomposition of eta_r must equal eta_k (x) eta_{r_1} ... eta_{r_k}.
    Returns the images {r: eta_r}.
    """
    ring = C.ring
    images = {r: H.unit(r) for r in range(C.r_max + 1)}
    for r in range(C.r_max + 1):
        for k, shape in _shapes(r, C.r_max):
            lhs = _collect(ring, _delta(ring, C.table(k, shape), images[r].terms))
            rhs = _collect(ring, _tensor(
                ring, ring.one, images[k].terms, [images[s].terms for s in shape]))
            if lhs != rhs:
                raise ValidationError(
                    f"Hopf units are not compatible with cocomposition at "
                    f"arity {r}, shape {shape}"
                )
    return images


# ---------------------------------------------------------------------------
# infinitesimal cocomposition


def infinitesimal_cocomposition(C, r, cname, include_trivial=False):
    """Components of cocomposition with exactly one non-trivial inner factor.

    Returns a list of (coeff, k, outer-name, slot-index (1-based), m,
    inner-name) where the inner factor sits in uC(m) and every other
    inner slot carries the counit.  Arity-0 insertions (m = 0) generate
    the curvature terms; with ``include_trivial`` the counit-law-forced
    terms (m = 1, inner = counit) are listed too.
    """
    out = []
    counit = C.counit_name
    if include_trivial:
        for i in range(1, r + 1):
            out.append((C.ring.one, r, cname, i, 1, counit))
    for m in list(range(0, C.r_max + 1)):
        if m == 1:
            continue
        k = r - m + 1
        if k < 1 or k > C.r_max:
            continue
        for i in range(1, k + 1):
            shape = (1,) * (i - 1) + (m,) + (1,) * (k - i)
            for coeff, o, gs in C.cocompose(k, shape, cname):
                if all(gs[j] == counit for j in range(k) if j != i - 1):
                    out.append((coeff, k, o, i, m, gs[i - 1]))
    return out
