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
equivariance, Hopf compatibility) as exact equalities of sparse tables
and return a report with a witness for each failure.
"""

from itertools import product as _product

from .errors import ShapeError, ValidationError
from .graded import Element, LinearMap
from .symmetric import OrbitModule, Permutation, all_permutations

__all__ = [
    "CooperadTruncation",
    "HopfStructure",
    "CooperadMorphism",
    "Report",
    "compositions",
    "block_permutation",
    "validate_cooperad",
    "validate_hopf",
    "validate_morphism",
    "cocom_unit_morphism",
    "infinitesimal_cocomposition",
    "reorder_sign",
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


def block_permutation(mu, shape, inner=None):
    """The permutation of {1..sum(shape)} acting by mu on blocks of the
    given sizes, optionally composed with inner permutations per block."""
    k = mu.r
    if len(shape) != k:
        raise ShapeError("shape length does not match outer arity")
    r = sum(shape)
    starts = []
    acc = 0
    for s in shape:
        starts.append(acc)
        acc += s
    # output start of the block that lands in output slot mu(i)
    out_start = [0] * k
    for i in range(1, k + 1):
        s = 0
        for ip in range(1, k + 1):
            if mu(ip) < mu(i):
                s += shape[ip - 1]
        out_start[i - 1] = s
    images = [0] * r
    for i in range(1, k + 1):
        for j in range(1, shape[i - 1] + 1):
            jj = inner[i - 1](j) if inner is not None else j
            images[starts[i - 1] + j - 1] = out_start[i - 1] + jj
    return Permutation(tuple(images))


def reorder_sign(degrees, new_order):
    """Koszul sign for rearranging tensor factors.

    ``new_order`` lists source indices in their target order; the factor
    originally at position new_order[t] ends up at position t.
    """
    sign = 1
    n = len(new_order)
    for a in range(n):
        for b in range(a + 1, n):
            if new_order[a] > new_order[b]:
                if degrees[new_order[a]] % 2 and degrees[new_order[b]] % 2:
                    sign = -sign
    return sign


class Report:
    """Validation outcome: list of (law, ok, witness-or-None)."""

    def __init__(self):
        self.checks = []

    def add(self, law, ok, witness=None):
        self.checks.append((law, bool(ok), witness))

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
        mod = self.cooperad.component(r).module
        out = mod.zero()
        acc = {}
        for a, ca in x.terms.items():
            for b, cb in y.terms.items():
                for coeff, c in self.multiply_names(r, a, b):
                    acc[c] = ring.add(
                        acc.get(c, ring.zero), ring.mul(ring.mul(ca, cb), coeff)
                    )
        out.terms = acc
        return out.prune()

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


def _term_dict(ring, terms):
    out = {}
    for coeff, outer, inner in terms:
        key = (outer, tuple(inner))
        out[key] = ring.add(out.get(key, ring.zero), coeff)
    return {k: c for k, c in out.items() if not ring.is_zero(c)}


def validate_cooperad(C, check_equivariance=True):
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

    # coassociativity on all 2-level trees within truncation
    for r in range(C.r_max + 1):
        ok_all, witness = True, None
        for m in range(1, C.r_max + 1):
            for child_arities in compositions_children(r, m, C.r_max):
                # child_arities: tuple of tuples, grandchild shapes per child
                res = _coassoc_check(C, r, child_arities)
                if res is not None:
                    ok_all, witness = False, res
                    break
            if not ok_all:
                break
        rep.add(f"coassociativity arity {r}", ok_all, witness)

    if check_equivariance:
        for r in range(C.r_max + 1):
            res = _equivariance_check(C, r)
            rep.add(f"equivariance arity {r}", res is None, res)

    return rep


def compositions_children(r, m, r_max):
    """2-level trees: per outer slot i (of m), a grandchild shape; total r."""
    out = []
    for mid in compositions(r, m):
        if any(x > r_max for x in mid):
            continue
        per_child = []
        for R in mid:
            shapes = []
            for k_i in range(1, r_max + 1):
                for s in compositions(R, k_i):
                    if all(x <= r_max for x in s):
                        shapes.append(s)
            per_child.append(shapes)
        for combo in _product(*per_child):
            if sum(len(s) for s in combo) <= r_max:
                out.append(combo)
    return out


def _coassoc_check(C, r, grand_shapes):
    """Compare the two evaluation orders of a 2-level cocomposition.

    grand_shapes: per outer slot i, the shape of the inner cocomposition
    applied there.  Returns a witness on mismatch, None when equal.
    """
    ring = C.ring
    m = len(grand_shapes)
    mid_shape = tuple(sum(s) for s in grand_shapes)
    flat_shape = tuple(x for s in grand_shapes for x in s)
    k = len(flat_shape)
    child_sizes = tuple(len(s) for s in grand_shapes)

    for c in C.basis_names(r):
        # Path A: Delta_{k; flat}(c), then Delta_{m;(k_1..k_m)} on the outer
        side_a = {}
        for coeff, a, gs in C.cocompose(k, flat_shape, c):
            for coeff2, o, cs in C.cocompose(m, child_sizes, a):
                key = (o, tuple(cs), tuple(gs))
                val = ring.mul(coeff, coeff2)
                side_a[key] = ring.add(side_a.get(key, ring.zero), val)
        side_a = {kk: v for kk, v in side_a.items() if not ring.is_zero(v)}

        # Path B: Delta_{m; mid}(c), then inner cocompositions per slot
        side_b = {}
        for coeff, o, bs in C.cocompose(m, mid_shape, c):
            expansions = [
                C.cocompose(child_sizes[i], grand_shapes[i], b)
                for i, b in enumerate(bs)
            ]
            for combo in _product(*expansions):
                coeff_b = coeff
                cs, g_blocks = [], []
                for (cf, ci, gi) in combo:
                    coeff_b = ring.mul(coeff_b, cf)
                    cs.append(ci)
                    g_blocks.append(tuple(gi))
                # natural order: o, c_1, g-block_1, c_2, g-block_2, ...
                # canonical order: o, c_1..c_m, g_1..g_k
                degs = []
                order_nat = []
                idx = 0
                positions_c, positions_g = [], []
                for i in range(m):
                    degs.append(C.degree(child_sizes[i], cs[i]))
                    positions_c.append(idx)
                    idx += 1
                    blk = []
                    for j, g in enumerate(g_blocks[i]):
                        degs.append(C.degree(grand_shapes[i][j], g))
                        blk.append(idx)
                        idx += 1
                    positions_g.append(blk)
                new_order = positions_c + [p for blk in positions_g for p in blk]
                sign = reorder_sign(degs, new_order)
                key = (o, tuple(cs), tuple(g for blk in g_blocks for g in blk))
                val = ring.mul(coeff_b, sign)
                side_b[key] = ring.add(side_b.get(key, ring.zero), val)
        side_b = {kk: v for kk, v in side_b.items() if not ring.is_zero(v)}

        if side_a != side_b:
            return (r, c, grand_shapes, "coassociativity mismatch")
    return None


def _equivariance_check(C, r):
    """Tables commute with block permutations (mu; sigma_1..sigma_k)."""
    ring = C.ring
    om = C.component(r)
    for k in range(1, C.r_max + 1):
        for shape in compositions(r, k):
            if any(x > C.r_max for x in shape):
                continue
            outer_om = C.component(k)
            for mu in all_permutations(k):
                inner_groups = [all_permutations(ri) for ri in shape]
                for sigmas in _product(*inner_groups):
                    sigma_hat = block_permutation(mu, shape, [s for s in sigmas])
                    new_shape = tuple(mu.permute_slots(shape))
                    for c in C.basis_names(r):
                        lhs = _term_dict(
                            ring,
                            C.cocompose(k, new_shape, om.act_name(sigma_hat, c)),
                        )
                        rhs = {}
                        for coeff, a, gs in C.cocompose(k, shape, c):
                            a2 = outer_om.act_name(mu, a)
                            acted = [
                                C.component(shape[i]).act_name(sigmas[i], gs[i])
                                for i in range(k)
                            ]
                            gs2 = mu.permute_slots(acted)
                            degs = [C.degree(shape[i], gs[i]) for i in range(k)]
                            sign = mu.koszul_sign(degs)
                            key = (a2, tuple(gs2))
                            rhs[key] = ring.add(
                                rhs.get(key, ring.zero), ring.mul(coeff, sign)
                            )
                        rhs = {kk: v for kk, v in rhs.items() if not ring.is_zero(v)}
                        if lhs != rhs:
                            return (r, c, k, shape, mu.images,
                                    tuple(s.images for s in sigmas))
    return None


def validate_hopf(C, H):
    """Associativity, units, equivariance and cocomposition compatibility."""
    rep = Report()
    ring = C.ring
    for r in range(C.r_max + 1):
        mod = C.component(r).module
        om = C.component(r)
        eta = H.unit(r)
        names = mod.names

        ok, witness = True, None
        for a in names:
            xa = mod.gen(a)
            if not H.multiply(r, eta, xa).eq(xa) or not H.multiply(r, xa, eta).eq(xa):
                ok, witness = False, (r, a)
                break
        rep.add(f"hopf-unit arity {r}", ok, witness)

        ok, witness = True, None
        for a in names:
            for b in names:
                for c in names:
                    left = H.multiply(r, H.multiply(r, mod.gen(a), mod.gen(b)), mod.gen(c))
                    right = H.multiply(r, mod.gen(a), H.multiply(r, mod.gen(b), mod.gen(c)))
                    if not left.eq(right):
                        ok, witness = False, (r, a, b, c)
                        break
                if not ok:
                    break
            if not ok:
                break
        rep.add(f"hopf-associativity arity {r}", ok, witness)

        ok, witness = True, None
        for sigma in om.group():
            if not om.act_element(sigma, eta).eq(eta):
                ok, witness = False, (r, sigma.images)
                break
            for a in names:
                for b in names:
                    lhs = H.multiply(r, mod.gen(om.act_name(sigma, a)),
                                     mod.gen(om.act_name(sigma, b)))
                    rhs = om.act_element(sigma, H.multiply(r, mod.gen(a), mod.gen(b)))
                    if not lhs.eq(rhs):
                        ok, witness = False, (r, sigma.images, a, b)
                        break
                if not ok:
                    break
            if not ok:
                break
        rep.add(f"hopf-equivariance arity {r}", ok, witness)

    # compatibility: cocomposition tables are algebra morphisms
    for r in range(C.r_max + 1):
        res = _hopf_compat_check(C, H, r)
        rep.add(f"hopf-cocomposition-compat arity {r}", res is None, res)
    return rep


def _hopf_compat_check(C, H, r):
    ring = C.ring
    mod = C.component(r).module
    for k in range(1, C.r_max + 1):
        for shape in compositions(r, k):
            if any(x > C.r_max for x in shape):
                continue
            for a in mod.names:
                for b in mod.names:
                    # LHS: Delta(mu(a, b))
                    lhs = {}
                    for coeff, c in H.multiply_names(r, a, b):
                        for coeff2, o, gs in C.cocompose(k, shape, c):
                            key = (o, tuple(gs))
                            lhs[key] = ring.add(
                                lhs.get(key, ring.zero), ring.mul(coeff, coeff2)
                            )
                    lhs = {kk: v for kk, v in lhs.items() if not ring.is_zero(v)}

                    # RHS: (mu_k (x) mu_{r_i}) after interleaving Delta(a), Delta(b)
                    rhs = {}
                    for ca, a0, xs in C.cocompose(k, shape, a):
                        for cb, b0, ys in C.cocompose(k, shape, b):
                            # order: a0 x_1..x_k b0 y_1..y_k
                            # -> a0 b0 x_1 y_1 ... x_k y_k
                            degs = [C.degree(k, a0)]
                            degs += [C.degree(shape[i], xs[i]) for i in range(k)]
                            degs += [C.degree(k, b0)]
                            degs += [C.degree(shape[i], ys[i]) for i in range(k)]
                            new_order = [0, k + 1]
                            for i in range(k):
                                new_order += [1 + i, k + 2 + i]
                            sign = reorder_sign(degs, new_order)
                            coeff0 = ring.mul(ring.mul(ca, cb), sign)
                            outer_terms = H.multiply_names(k, a0, b0)
                            inner_lists = [
                                H.multiply_names(shape[i], xs[i], ys[i])
                                for i in range(k)
                            ]
                            for co, o in outer_terms:
                                for combo in _product(*inner_lists):
                                    cval = ring.mul(coeff0, co)
                                    gs = []
                                    for (ci, g) in combo:
                                        cval = ring.mul(cval, ci)
                                        gs.append(g)
                                    key = (o, tuple(gs))
                                    rhs[key] = ring.add(rhs.get(key, ring.zero), cval)
                    rhs = {kk: v for kk, v in rhs.items() if not ring.is_zero(v)}
                    if lhs != rhs:
                        return (r, k, shape, a, b)
    return None


def validate_morphism(phi):
    """Equivariance, counit and cocomposition commutation for phi."""
    rep = Report()
    S, T = phi.source, phi.target
    ring = T.ring
    for r in range(min(S.r_max, T.r_max) + 1):
        f = phi.maps[r]
        ok = f.degree == 0
        rep.add(f"morphism-degree arity {r}", ok, None if ok else f.degree)

        om_s, om_t = S.component(r), T.component(r)
        ok, witness = True, None
        for sigma in om_s.group():
            for name in om_s.module.names:
                lhs = f.apply_name(om_s.act_name(sigma, name))
                rhs = om_t.act_element(sigma, f.apply_name(name))
                if not lhs.eq(rhs):
                    ok, witness = False, (r, sigma.images, name)
                    break
            if not ok:
                break
        rep.add(f"morphism-equivariance arity {r}", ok, witness)

    ok = phi.maps[1].apply_name(S.counit_name).eq(T.counit_element())
    rep.add("morphism-counit", ok)
    ok = phi.maps[0].apply_name(S.unit_name).eq(T.unit_element())
    rep.add("morphism-unit", ok)

    r_max = min(S.r_max, T.r_max)
    for r in range(r_max + 1):
        ok_all, witness = True, None
        for k in range(1, r_max + 1):
            for shape in compositions(r, k):
                if any(x > r_max for x in shape):
                    continue
                for c in S.basis_names(r):
                    # (phi (x) phi's) Delta_S(c)
                    lhs = {}
                    for coeff, o, gs in S.cocompose(k, shape, c):
                        outs = phi.maps[k].apply_name(o)
                        inner_imgs = [
                            phi.maps[shape[i]].apply_name(gs[i]) for i in range(k)
                        ]
                        for oname, cco in outs.terms.items():
                            for combo in _product(
                                *[list(e.terms.items()) for e in inner_imgs]
                            ):
                                cval = ring.mul(coeff, cco)
                                names = []
                                for n, cc in combo:
                                    cval = ring.mul(cval, cc)
                                    names.append(n)
                                key = (oname, tuple(names))
                                lhs[key] = ring.add(lhs.get(key, ring.zero), cval)
                    lhs = {kk: v for kk, v in lhs.items() if not ring.is_zero(v)}
                    # Delta_T(phi(c))
                    rhs = {}
                    for name, cc in phi.maps[r].apply_name(c).terms.items():
                        for coeff, o, gs in T.cocompose(k, shape, name):
                            key = (o, tuple(gs))
                            rhs[key] = ring.add(
                                rhs.get(key, ring.zero), ring.mul(cc, coeff)
                            )
                    rhs = {kk: v for kk, v in rhs.items() if not ring.is_zero(v)}
                    if lhs != rhs:
                        ok_all, witness = False, (r, k, shape, c)
                        break
                if not ok_all:
                    break
            if not ok_all:
                break
        rep.add(f"morphism-cocomposition arity {r}", ok_all, witness)
    return rep


# ---------------------------------------------------------------------------
# the canonical morphism from the unitary cocommutative cooperad


class CocomSource:
    """Marker for the uCOCOM truncation used only as a morphism source.

    Carried without any freeness requirement: its arity-r generator maps
    to the Hopf unit eta_r of the target.
    """

    def __init__(self, r_max):
        self.r_max = r_max

    def generator_name(self, r):
        return f"cocom{r}"


def cocom_unit_morphism(C, H):
    """eta: uCOCOM -> uC sending the arity-r generator to eta_r.

    Verifies the morphism property on every truncation shape: the
    cocomposition of eta_r must equal eta_k (x) eta_{r_1} ... eta_{r_k}.
    """
    ring = C.ring
    source = CocomSource(C.r_max)
    images = {r: H.unit(r) for r in range(C.r_max + 1)}
    for r in range(C.r_max + 1):
        for k in range(1, C.r_max + 1):
            for shape in compositions(r, k):
                if any(x > C.r_max for x in shape):
                    continue
                lhs = {}
                for name, cc in images[r].terms.items():
                    for coeff, o, gs in C.cocompose(k, shape, name):
                        key = (o, tuple(gs))
                        lhs[key] = ring.add(lhs.get(key, ring.zero), ring.mul(cc, coeff))
                lhs = {kk: v for kk, v in lhs.items() if not ring.is_zero(v)}
                rhs = {}
                outer = images[k]
                inner = [images[shape[i]] for i in range(k)]
                for oname, cco in outer.terms.items():
                    for combo in _product(*[list(e.terms.items()) for e in inner]):
                        cval = cco
                        names = []
                        for n, cc in combo:
                            cval = ring.mul(cval, cc)
                            names.append(n)
                        key = (oname, tuple(names))
                        rhs[key] = ring.add(rhs.get(key, ring.zero), cval)
                rhs = {kk: v for kk, v in rhs.items() if not ring.is_zero(v)}
                if lhs != rhs:
                    raise ValidationError(
                        f"Hopf units are not compatible with cocomposition at "
                        f"arity {r}, shape {shape}"
                    )
    return source, images


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
