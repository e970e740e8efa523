"""Dense reference validators: the oracle for ``opmc.cooperad``.

These are the straightforward loops over every basis name (and every
pair or triple of names) that the sparse validators in
``opmc.cooperad`` replace.  They build one ``Element`` per term and
return the same ``Report`` layout, so a test can compare the two
law by law, witness included.  They are slow (about 20 s for
``validate_hopf`` on E2 at d_max=2), so tests keep their instances small.
"""

from itertools import product as _product

from opmc.cooperad import Report, compositions
from opmc.errors import ShapeError
from opmc.graded import koszul_sign_images
from opmc.symmetric import all_permutations, permute_slots


def block_permutation(mu, shape, inner=None):
    """The permutation of {1..sum(shape)} acting by mu on blocks of the
    given sizes, optionally composed with inner permutations per block."""
    k = len(mu)
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
            if mu[ip - 1] < mu[i - 1]:
                s += shape[ip - 1]
        out_start[i - 1] = s
    images = [0] * r
    for i in range(1, k + 1):
        for j in range(1, shape[i - 1] + 1):
            jj = inner[i - 1][j - 1] if inner is not None else j
            images[starts[i - 1] + j - 1] = out_start[i - 1] + jj
    return tuple(images)


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


def _term_dict(ring, terms):
    out = {}
    for coeff, outer, inner in terms:
        key = (outer, tuple(inner))
        out[key] = ring.normalize(out.get(key, 0) + coeff)
    return {k: c for k, c in out.items() if c}


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
    for r in range(C.r_max + 1):
        witness = None
        for c in C.basis_names(r):
            t = _term_dict(ring, C.cocompose(1, (r,), c))
            if t != {(C.counit_name, (c,)): ring.one}:
                witness = (r, c)
                break
        rep.add(f"counit-outer arity {r}", witness is None, witness)
        if r >= 1:
            witness = None
            for c in C.basis_names(r):
                t = _term_dict(ring, C.cocompose(r, (1,) * r, c))
                if t != {(c, (C.counit_name,) * r): ring.one}:
                    witness = (r, c)
                    break
            rep.add(f"counit-inner arity {r}", witness is None, witness)

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
                val = ring.normalize(coeff * coeff2)
                side_a[key] = ring.normalize(side_a.get(key, 0) + val)
        side_a = {kk: v for kk, v in side_a.items() if v}

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
                    coeff_b = ring.normalize(coeff_b * cf)
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
                val = ring.normalize(coeff_b * sign)
                side_b[key] = ring.normalize(side_b.get(key, 0) + val)
        side_b = {kk: v for kk, v in side_b.items() if v}

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
                    new_shape = permute_slots(mu, shape)
                    for c in C.basis_names(r):
                        lhs = _term_dict(
                            ring,
                            C.cocompose(k, new_shape, om.actions[sigma_hat][c]),
                        )
                        rhs = {}
                        for coeff, a, gs in C.cocompose(k, shape, c):
                            a2 = outer_om.actions[mu][a]
                            acted = [
                                C.component(shape[i]).actions[sigmas[i]][gs[i]]
                                for i in range(k)
                            ]
                            gs2 = permute_slots(mu, acted)
                            degs = [C.degree(shape[i], gs[i]) for i in range(k)]
                            sign = koszul_sign_images(mu, degs)
                            key = (a2, tuple(gs2))
                            rhs[key] = ring.normalize(rhs.get(key, 0) + coeff * sign)
                        rhs = {kk: v for kk, v in rhs.items() if v}
                        if lhs != rhs:
                            return (r, c, k, shape, mu, sigmas)
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
        for sigma in om.actions:
            if not om.act_element(sigma, eta).eq(eta):
                ok, witness = False, (r, sigma)
                break
            for a in names:
                for b in names:
                    lhs = H.multiply(r, mod.gen(om.actions[sigma][a]),
                                     mod.gen(om.actions[sigma][b]))
                    rhs = om.act_element(sigma, H.multiply(r, mod.gen(a), mod.gen(b)))
                    if not lhs.eq(rhs):
                        ok, witness = False, (r, sigma, a, b)
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

    # the units' cocompositions
    for r in range(C.r_max + 1):
        res = hopf_unit_cocomp_check(C, H, r)
        rep.add(f"hopf-unit-cocomposition arity {r}", res is None, res)
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
                            lhs[key] = ring.normalize(lhs.get(key, 0) + coeff * coeff2)
                    lhs = {kk: v for kk, v in lhs.items() if v}

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
                            coeff0 = ring.normalize(ca * cb * sign)
                            outer_terms = H.multiply_names(k, a0, b0)
                            inner_lists = [
                                H.multiply_names(shape[i], xs[i], ys[i])
                                for i in range(k)
                            ]
                            for co, o in outer_terms:
                                for combo in _product(*inner_lists):
                                    cval = ring.normalize(coeff0 * co)
                                    gs = []
                                    for (ci, g) in combo:
                                        cval = ring.normalize(cval * ci)
                                        gs.append(g)
                                    key = (o, tuple(gs))
                                    rhs[key] = ring.normalize(rhs.get(key, 0) + cval)
                    rhs = {kk: v for kk, v in rhs.items() if v}
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
        for sigma in om_s.actions:
            for name in om_s.module.names:
                lhs = f.apply_name(om_s.actions[sigma][name])
                rhs = om_t.act_element(sigma, f.apply_name(name))
                if not lhs.eq(rhs):
                    ok, witness = False, (r, sigma, name)
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
                                cval = ring.normalize(coeff * cco)
                                names = []
                                for n, cc in combo:
                                    cval = ring.normalize(cval * cc)
                                    names.append(n)
                                key = (oname, tuple(names))
                                lhs[key] = ring.normalize(lhs.get(key, 0) + cval)
                    lhs = {kk: v for kk, v in lhs.items() if v}
                    # Delta_T(phi(c))
                    rhs = {}
                    for name, cc in phi.maps[r].apply_name(c).terms.items():
                        for coeff, o, gs in T.cocompose(k, shape, name):
                            key = (o, tuple(gs))
                            rhs[key] = ring.normalize(rhs.get(key, 0) + cc * coeff)
                    rhs = {kk: v for kk, v in rhs.items() if v}
                    if lhs != rhs:
                        ok_all, witness = False, (r, k, shape, c)
                        break
                if not ok_all:
                    break
            if not ok_all:
                break
        rep.add(f"morphism-cocomposition arity {r}", ok_all, witness)
    return rep


def hopf_unit_cocomp_check(C, H, r):
    """Delta(eta_r) = eta_k (x) eta_{r_1} ... (x) eta_{r_k} on every
    truncation shape of arity r."""
    ring = C.ring
    for k in range(1, C.r_max + 1):
        for shape in compositions(r, k):
            if any(x > C.r_max for x in shape):
                continue
            lhs = {}
            for name, cc in H.unit(r).terms.items():
                for coeff, o, gs in C.cocompose(k, shape, name):
                    key = (o, tuple(gs))
                    lhs[key] = ring.normalize(lhs.get(key, 0) + cc * coeff)
            lhs = {kk: v for kk, v in lhs.items() if v}
            rhs = {}
            inner = [H.unit(shape[i]) for i in range(k)]
            for oname, cco in H.unit(k).terms.items():
                for combo in _product(*[list(e.terms.items()) for e in inner]):
                    cval = cco
                    names = []
                    for n, cc in combo:
                        cval = ring.normalize(cval * cc)
                        names.append(n)
                    key = (oname, tuple(names))
                    rhs[key] = ring.normalize(rhs.get(key, 0) + cval)
            rhs = {kk: v for kk, v in rhs.items() if v}
            if lhs != rhs:
                return (r, k, shape)
    return None
