"""Generalized shuffle product, exponentials, twisting, and the
Maurer-Cartan equation on weight-truncated cofree coalgebras.

All constructions live over a fixed Hopf cooperad truncation (cooperad
plus arity-wise products mu_r and units eta_r) and a cofree coalgebra
uC(V).  The shuffle product is the coalgebra-morphism extension of

    tilde(x (x) y) = T(x) eps(y) + eps(x) T(y),

the exponential is read off from the unit elements eta_r, and twisting
conjugates a coderivation by the shuffle action of exp(v).

One kernel, ``_shuffle_plain``, computes the product on plain tensors;
the key form ``shuffle`` expands both factors, runs the kernel and
collects the result.  tilde vanishes unless one block has arity 1 and
the other arity 0, so the kernel only builds cocompositions into 0/1
block shapes and pairs each with its complement.

One kernel call multiplies one left factor u by a list of right
factors: ``twist`` passes exp(v) and every basis key at once, and the
verify path does the same for each conjugation.  The cut of u into a
0/1 shape is the same for every right factor, so the kernel makes it
once per shape, in a dict that is dropped when the call returns.  In
the same way ``twist`` evaluates the components through one
``plain_evaluator``, a memo of ``Qt.eval_plain`` for that call only.
No memo is kept on the coderivation, the cofree coalgebra or the Hopf
structure, or at module level: each call costs the same on the same
inputs, whatever ran before it.
"""

from itertools import combinations as _combinations
from itertools import product as _product

from .cofree import Coderivation, coderivation_extend, plain_evaluator
from .cooperad import riffle_parity
from .errors import (
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedError,
)

__all__ = [
    "shuffle",
    "one_param",
    "exp_element",
    "twist",
    "mc_residual",
    "is_mc",
    "mc_enumerate",
]


def shuffle(H, cf, x, y):
    """The generalized shuffle product x * y in uC(V)."""
    [xy] = _shuffle_plain(H, cf, cf.expand(x), [cf.expand(y)])
    return cf.collect(xy)


def _shuffle_plain(H, cf, u, xs):
    """Shuffle products u * x for each x of ``xs``, kept plain, in order.

    ``u`` and each x map arity -> {(cooperad-name, v-tuple): coeff}; each
    result is in the same form.  tilde only pairs an arity-1 block with
    an arity-0 block, so an arity-p term of u meets an arity-q term of x
    only at outer arity k = p + q, with the u-blocks of arity 1 on a
    p-subset S of the k slots and the x-blocks of arity 1 on the
    complement; the output v-tuple merges the two tuples along S.  The
    cut of u into a 0/1 shape depends on u and the shape alone, so it is
    made once per shape and serves every x of the call.
    """
    C = cf.cooperad
    ring = cf.ring
    deg, vdeg, weight = C.degrees, cf.V.degree, cf.V.weight

    def terms(plain, k, shape):
        """Per term: (v-tuple, weight, [(coeff, outer, block-degrees)])."""
        res = []
        for (cname, vt), c in plain.items():
            cocomp = []
            for lam, a, blocks in cf.cocompose_plain(k, shape, cname, vt):
                degs = [deg[ri][g] + sum(vdeg(v) for v in vb)
                        for ri, g, vb in blocks]
                cocomp.append((ring.mul(c, lam), a, degs))
            res.append((vt, sum(weight(v) for v in vt), cocomp))
        return res

    u_cut = {}  # 0/1 shape -> terms(u[p], k, shape), for this call only
    eps_u = u.get(0, {}).get((C.unit_name, ()), ring.zero)
    results = []
    for x in xs:
        eps_x = x.get(0, {}).get((C.unit_name, ()), ring.zero)
        out = [((0, (C.unit_name, ())), ring.mul(eps_u, eps_x))]
        for p, uplain in u.items():
            for q, xplain in x.items():
                k = p + q
                if not 0 < k <= C.r_max:
                    continue
                for S in _combinations(range(k), p):
                    shape = tuple(1 if i in S else 0 for i in range(k))
                    if shape not in u_cut:
                        u_cut[shape] = terms(uplain, k, shape)
                    xterms = terms(xplain, k, tuple(1 - s for s in shape))
                    for vu, wu, ucomp in u_cut[shape]:
                        for vx, wx, xcomp in xterms:
                            if wu + wx > cf.w_max:
                                continue
                            iu, ix = iter(vu), iter(vx)
                            names = tuple(next(iu) if s else next(ix)
                                          for s in shape)
                            for ca, a, degsA in ucomp:
                                for cb, b, degsB in xcomp:
                                    # a, A_1..A_k, b, B_1..B_k
                                    #   -> (a b), (A_1 B_1), ..., (A_k B_k)
                                    coeff = ring.mul(ca, cb)
                                    if riffle_parity(deg[k][b], degsA, degsB):
                                        coeff = ring.neg(coeff)
                                    for pc, c in H.multiply_names(k, a, b):
                                        out.append(((k, (c, names)),
                                                    ring.mul(coeff, pc)))
        results.append(cf.sum_by_arity(out))
    return results


def _weighted_tuples(cf, terms, r):
    """All (v-name tuple, coefficient-product) with total weight <= w_max."""
    ring = cf.ring
    out = []

    def rec(depth, names, coeff, wt):
        if depth == r:
            out.append((tuple(names), coeff))
            return
        for vn, c in terms.items():
            w = wt + cf.V.weight(vn)
            if w > cf.w_max:
                continue
            rec(depth + 1, names + [vn], ring.mul(coeff, c), w)

    rec(0, [], ring.one, 0)
    return out


def _one_param_plain(H, cf, v, lam):
    """Plain presentation of gamma_v(lambda): eta_r against (lambda v)^r."""
    ring = cf.ring
    C = cf.cooperad
    for vn in v.terms:
        if cf.V.degree(vn) != 0:
            raise PreconditionError(
                "one-parameter subgroups need a degree-0 element"
            )
    w = v.scale(lam)
    terms = [((0, (C.unit_name, ())), ring.one)]
    terms.extend(((r, (cname, vt)), ring.mul(e, c))
                 for r in range(1, C.r_max + 1)
                 for cname, e in H.unit(r).terms.items()
                 for vt, c in _weighted_tuples(cf, w.terms, r))
    return cf.sum_by_arity(terms)


def one_param(H, cf, v, lam):
    """The grouplike element gamma_v(lambda): eta_r against (lambda v)^r."""
    return cf.collect(_one_param_plain(H, cf, v, lam))


def exp_element(H, cf, v):
    """exp(v) = the one-parameter subgroup of v at the unit scalar."""
    return one_param(H, cf, v, cf.ring.one)


def twist(H, Qt, v, verify=True):
    """The twisted coderivation with Q^v(x) = exp(-v) * Q(exp(v) * x).

    The cogenerator components are computed on plain representative
    tensors: T(exp(-v) * w) = T(exp(-v)) eps(w) + T(w) and the image of
    a coderivation has no counit part, so the corestriction of the
    twisted operator is T(Q(exp(v) * x)).  Working plain keeps the
    computation exact over rings where the orbit normalization is not
    invertible.  With ``verify`` the extension of the components is
    compared against the conjugated operator on every basis class, and
    any disagreement raises an internal-consistency error.
    """
    cf = Qt.cofree
    ring = cf.ring
    names = cf.module.names
    evaluate = plain_evaluator(Qt)  # one memo for every key of this call
    keys = [{r: {(rep, vt): ring.one}} for r, rep, vt in names]
    moved = _shuffle_plain(H, cf, _one_param_plain(H, cf, v, ring.one), keys)
    comps = {}
    for key, w in zip(names, moved):
        val = Qt.value_on_plain(w, evaluate)
        if not val.is_zero():
            comps[key] = val
    twisted = Coderivation(cf, comps)
    if verify:
        Q = coderivation_extend(Qt)
        Q2 = coderivation_extend(twisted)
        ev = cf.expand(exp_element(H, cf, v))
        em = cf.expand(exp_element(H, cf, v.scale(-1)))
        moved = _shuffle_plain(H, cf, ev, [cf.expand(cf.module.gen(key))
                                           for key in names])
        images = _shuffle_plain(H, cf, em, [cf.expand(Q(cf.collect(w)))
                                            for w in moved])
        for key, img in zip(names, images):
            if not Q2.on_key(key).eq(cf.collect(img)):
                raise InternalCheckError(
                    f"twisted operator is not the extension of its "
                    f"cogenerator projection at {key!r}"
                )
    return twisted


def mc_residual(H, Qt, v):
    """Value of the curvature of the twist, as the eta-pairing of Qt with v.

    Computed twice -- on the expansion of exp(v) and directly from the
    eta_r (x) v^r sums -- and compared; a mismatch signals a norm or
    sign inconsistency and raises an internal error.
    """
    cf = Qt.cofree
    ring = cf.ring
    total = Qt.value_on(exp_element(H, cf, v))
    direct = Qt.curvature()
    for r in range(1, cf.cooperad.r_max + 1):
        for cname, e in H.unit(r).terms.items():
            for vt, c in _weighted_tuples(cf, v.terms, r):
                val = Qt.eval_plain(r, cname, vt)
                direct = direct.add(val.scale(ring.mul(e, c)))
    if not total.eq(direct):
        raise InternalCheckError(
            "exp-expansion and eta-sum forms of the residual disagree"
        )
    return total


def is_mc(H, Qt, v):
    return mc_residual(H, Qt, v).is_zero()


def mc_enumerate(H, Qt, cap=20000, cross_check=True):
    """All degree-0 solutions of the MC equation over a finite ring."""
    cf = Qt.cofree
    ring = cf.ring
    if not ring.finite:
        raise UnsupportedError("enumeration needs a finite coefficient ring")
    names0 = [n for n in cf.V.names if cf.V.degree(n) == 0]
    scalars = ring.elements()
    if len(scalars) ** len(names0) > cap:
        raise ResourceLimitError(
            f"{len(scalars) ** len(names0)} candidates exceed the cap {cap}"
        )
    out = []
    for combo in _product(scalars, repeat=len(names0)):
        v = cf.V.element(zip(names0, combo))
        member = is_mc(H, Qt, v)
        if cross_check:
            flat = twist(H, Qt, v, verify=False).curvature().is_zero()
            if flat != member:
                raise InternalCheckError(
                    f"flatness of the twist disagrees with the MC "
                    f"equation at {v!r}"
                )
        if member:
            out.append(v)
    return out
