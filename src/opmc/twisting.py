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
"""

from itertools import combinations as _combinations
from itertools import product as _product

from .cofree import Coderivation, coderivation_extend
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
    return cf.collect(_shuffle_plain(H, cf, cf.expand(x), cf.expand(y)))


def _shuffle_plain(H, cf, u, x):
    """Shuffle product of two plain presentations, kept plain.

    ``u`` and ``x`` map arity -> {(cooperad-name, v-tuple): coeff};
    the result is in the same form.  tilde only pairs an arity-1 block
    with an arity-0 block, so an arity-p term of u meets an arity-q term
    of x only at outer arity k = p + q, with the u-blocks of arity 1 on
    a p-subset S of the k slots and the x-blocks of arity 1 on the
    complement; the output v-tuple merges the two tuples along S.
    """
    C = cf.cooperad
    ring = cf.ring
    out = {}

    def put(r_out, pk, c):
        tgt = out.setdefault(r_out, {})
        tgt[pk] = ring.add(tgt.get(pk, ring.zero), c)

    def terms(plain, k, shape):
        """Per term: (v-tuple, weight, [(coeff, outer, block-degrees)])."""
        res = []
        for (cname, vt), c in plain.items():
            cocomp = []
            for lam, a, blocks in cf.cocompose_plain(k, shape, cname, vt):
                degs = [C.degree(ri, g) + sum(cf.vdeg(v) for v in vb)
                        for ri, g, vb in blocks]
                cocomp.append((ring.mul(c, lam), a, degs))
            res.append((vt, sum(cf.V.weight(v) for v in vt), cocomp))
        return res

    eps_u = u.get(0, {}).get((C.unit_name, ()), ring.zero)
    eps_x = x.get(0, {}).get((C.unit_name, ()), ring.zero)
    eps = ring.mul(eps_u, eps_x)
    if not ring.is_zero(eps):
        put(0, (C.unit_name, ()), eps)
    for p, uplain in u.items():
        for q, xplain in x.items():
            k = p + q
            if not 0 < k <= C.r_max:
                continue
            for S in _combinations(range(k), p):
                shape = tuple(1 if i in S else 0 for i in range(k))
                xterms = terms(xplain, k, tuple(1 - s for s in shape))
                for vu, wu, ucomp in terms(uplain, k, shape):
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
                                odd = C.degree(k, b) * sum(degsA)
                                for i in range(k):
                                    odd += degsB[i] * sum(degsA[i + 1:])
                                coeff = ring.mul(ring.mul(ca, cb),
                                                 -1 if odd % 2 else 1)
                                for pc, c in H.multiply_names(k, a, b):
                                    put(k, (c, names), ring.mul(coeff, pc))
    for r in list(out):
        out[r] = {pk: c for pk, c in out[r].items() if not ring.is_zero(c)}
        if not out[r]:
            del out[r]
    return out


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
    acc = {0: {(C.unit_name, ()): ring.one}}
    for r in range(1, C.r_max + 1):
        plain = {}
        for cname, e in H.unit(r).terms.items():
            for vt, c in _weighted_tuples(cf, w.terms, r):
                pk = (cname, vt)
                plain[pk] = ring.add(plain.get(pk, ring.zero), ring.mul(e, c))
        plain = {pk: c for pk, c in plain.items() if not ring.is_zero(c)}
        if plain:
            acc[r] = plain
    return acc


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
    ev_plain = _one_param_plain(H, cf, v, ring.one)
    comps = {}
    for key in cf.module.names:
        r, rep, vt = key
        w = _shuffle_plain(H, cf, ev_plain, {r: {(rep, vt): ring.one}})
        val = cf.V.zero()
        for r2, plain in w.items():
            for (cname2, vt2), c in plain.items():
                val = val.add(Qt.eval_plain(r2, cname2, vt2).scale(c))
        if not val.is_zero():
            comps[key] = val
    twisted = Coderivation(cf, comps)
    if verify:
        Q = coderivation_extend(Qt)
        Q2 = coderivation_extend(twisted)
        ev = exp_element(H, cf, v)
        em = exp_element(H, cf, v.scale(-1))
        for key in cf.module.names:
            img = shuffle(H, cf, em, Q(shuffle(H, cf, ev, cf.module.gen(key))))
            if not Q2.on_key(key).eq(img):
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
    total = cf.V.zero()
    ev = exp_element(H, cf, v)
    for r, plain in cf.expand(ev).items():
        for (cname, vt), c in plain.items():
            total = total.add(Qt.eval_plain(r, cname, vt).scale(c))
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
        v = cf.V.zero()
        v.terms = {n: c for n, c in zip(names0, combo) if not ring.is_zero(c)}
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
