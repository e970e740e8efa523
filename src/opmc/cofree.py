"""Weight-truncated cofree conilpotent coalgebras with divided symmetries,
and the extension of cogenerator-level data to coderivations and
coalgebra morphisms.

Representation.  Working with free symmetric group actions, the norm map
identifies coinvariants with invariants, and an invariant element is
pinned down by its components on orbit-representative cooperad factors:
the expansion of the orbit sum

    O(rep, v_1..v_r) = sum_sigma  sigma . (rep (x) v_1..v_r)

contains exactly one term whose cooperad factor is a representative
(sigma = id, by freeness), so the keys (r, rep, v-tuple) form an honest
basis.  Every operation expands keys into plain tensors, applies plain
dual tables in order, and collects outputs by reading the terms whose
cooperad factor is a representative.

For the divided variant (trivial actions over Q) the expansion divides
by r!, keys carry sorted v-tuples, and collection rescales by the signed
stabilizer sum; keys whose orbit sum vanishes (odd-degree repetitions)
are excluded from the basis.
"""

from itertools import product as _product
from math import factorial

from .cooperad import compositions, infinitesimal_cocomposition
from .errors import (
    CompletenessError,
    InvarianceError,
    PreconditionError,
    ResourceLimitError,
    ShapeError,
)
from .graded import BasisElement, Element, GradedModule
from .symmetric import all_permutations, norm_plain

__all__ = [
    "CofreeCoalgebra",
    "Coderivation",
    "cofree_build",
    "coderivation_extend",
    "square_check",
    "morphism_extend",
    "completeness_check",
]

DEFAULT_BASIS_CAP = 20000


class CofreeCoalgebra:
    """uC(V) (or its reduced part) truncated at a total weight bound."""

    def __init__(self, C, V, w_max, unitary=True, basis_cap=DEFAULT_BASIS_CAP):
        self.cooperad = C
        self.V = V
        self.ring = C.ring
        self.w_max = w_max
        self.unitary = unitary
        self.divided = getattr(C, "divided", False)
        basis = []
        if unitary:
            basis.append(BasisElement((0, C.unit_name, ()), 0, 0))
        for r in range(1, C.r_max + 1):
            om = C.component(r)
            for rep in om.orbit_reps:
                cdeg = om.module.degree(rep)
                for vt in self._tuples(r):
                    wt = sum(V.weight(v) for v in vt)
                    if wt > w_max:
                        continue
                    if self.divided and not self._divided_key_ok(vt):
                        continue
                    deg = cdeg + sum(V.degree(v) for v in vt)
                    basis.append(BasisElement((r, rep, vt), deg, wt))
                    if len(basis) > basis_cap:
                        raise ResourceLimitError(
                            f"cofree basis exceeds cap {basis_cap}"
                        )
        self.module = GradedModule(self.ring, basis)

    def _tuples(self, r):
        names = self.V.names
        if self.divided:
            # canonical keys carry sorted tuples
            out = set()
            for vt in _product(names, repeat=r):
                out.add(tuple(sorted(vt)))
            return sorted(out)
        return list(_product(names, repeat=r))

    def _divided_key_ok(self, vt):
        # an odd-degree entry appearing twice kills the (divided) orbit sum
        seen = {}
        for v in vt:
            if self.V.degree(v) % 2:
                if v in seen:
                    return False
                seen[v] = True
        return True

    # -- basic structure ---------------------------------------------------

    def vdeg(self, vname):
        return self.V.degree(vname)

    def zero(self):
        return self.module.zero()

    def unit(self):
        if not self.unitary:
            raise ShapeError("reduced coalgebra has no unitary class")
        return self.module.gen((0, self.cooperad.unit_name, ()))

    def counit_coefficient(self, x):
        """epsilon: the coefficient of the unitary class."""
        if not self.unitary:
            return self.ring.zero
        return x.coeff((0, self.cooperad.unit_name, ()))

    def from_v(self, v):
        """V -> uC(V): v as the arity-1 class [counit (x) v]."""
        out = self.zero()
        acc = {}
        for vn, c in v.terms.items():
            key = (1, self.cooperad.counit_name, (vn,))
            acc[key] = c
        out.terms = acc
        return out.prune()

    def tangent(self, x):
        """T: uC(V) -> V, the coefficient of the arity-1 classes."""
        out = self.V.zero()
        ring = self.ring
        acc = {}
        for (r, rep, vt), c in x.terms.items():
            if r == 1:
                acc[vt[0]] = ring.add(acc.get(vt[0], ring.zero), c)
        out.terms = acc
        return out.prune()

    # -- expansion / collection --------------------------------------------

    def expand_key(self, key):
        """Plain-tensor expansion of a basis key, as {(cname, vt): coeff}."""
        r, rep, vt = key
        om = self.cooperad.component(r)
        base = {(rep, vt): self.ring.one}
        out = norm_plain(om, base, self.vdeg, rational_variant=self.divided)
        return out

    def expand(self, x):
        """Expansion by arity: {r: {(cname, vtuple): coeff}}."""
        ring = self.ring
        out = {}
        for key, coeff in x.terms.items():
            r = key[0]
            tgt = out.setdefault(r, {})
            for pk, c in self.expand_key(key).items():
                v = ring.mul(coeff, c)
                tgt[pk] = ring.add(tgt.get(pk, ring.zero), v)
        for r in list(out):
            out[r] = {k: c for k, c in out[r].items() if not ring.is_zero(c)}
            if not out[r]:
                del out[r]
        return out

    def collect_plain(self, r, plain, check=False):
        """Read an invariant arity-r plain tensor back into key form."""
        ring = self.ring
        om = self.cooperad.component(r)
        out = {}
        if self.divided:
            for (cname, vt), coeff in plain.items():
                svt = tuple(sorted(vt))
                if svt != vt:
                    continue
                h = self._stabilizer_sum(r, vt)
                if ring.is_zero(h):
                    continue
                lam = ring.mul(coeff, ring.mul(
                    ring.normalize(factorial(r)), ring.inv(h)))
                key = (r, cname, vt)
                out[key] = ring.add(out.get(key, ring.zero), lam)
        else:
            for (cname, vt), coeff in plain.items():
                if om.is_rep(cname):
                    key = (r, cname, vt)
                    out[key] = ring.add(out.get(key, ring.zero), coeff)
        out = {k: c for k, c in out.items() if not ring.is_zero(c)}
        if check:
            redone = {}
            for key, coeff in out.items():
                for pk, c in self.expand_key(key).items():
                    redone[pk] = ring.add(
                        redone.get(pk, ring.zero), ring.mul(coeff, c))
            redone = {k: c for k, c in redone.items() if not ring.is_zero(c)}
            given = {k: ring.normalize(c) for k, c in plain.items()
                     if not ring.is_zero(ring.normalize(c))}
            if redone != given:
                raise InvarianceError(
                    f"arity-{r} output is not a sum of orbit classes"
                )
        return out

    def _stabilizer_sum(self, r, vt):
        ring = self.ring
        om = self.cooperad.component(r)
        total = ring.zero
        degs = tuple(self.vdeg(v) for v in vt)
        for sigma in all_permutations(r):
            if sigma.permute_slots(vt) == vt:
                total = ring.add(total, ring.normalize(sigma.koszul_sign(degs)))
        return total

    def collect(self, plain_by_arity, check=False):
        ring = self.ring
        out = self.zero()
        acc = {}
        for r, plain in plain_by_arity.items():
            if r == 0:
                for (cname, vt), coeff in plain.items():
                    key = (0, cname, ())
                    acc[key] = ring.add(acc.get(key, ring.zero), coeff)
                continue
            for key, coeff in self.collect_plain(r, plain, check=check).items():
                acc[key] = ring.add(acc.get(key, ring.zero), coeff)
        out.terms = {k: c for k, c in acc.items() if k in self.module.basis}
        return out.prune()

    # -- cocomposition -----------------------------------------------------

    def cocompose_plain(self, k, shape, cname, vt):
        """Delta_{k;shape} of the plain tensor cname (x) vt, blocks kept plain.

        Yields (coeff, outer-name, blocks) with blocks a tuple of plain
        triples (r_i, inner-name, v-block).  The coefficient carries the
        Koszul sign of interleaving the inner cooperad factors into the
        v-blocks: a, g_1..g_k, v's -> a, (g_1 vb_1), ..., (g_k vb_k).
        """
        C = self.cooperad
        ring = self.ring
        blocks = []
        pre_odd = []
        pos = pre = 0
        for ri in shape:
            vb = vt[pos:pos + ri]
            blocks.append(vb)
            pre_odd.append(pre % 2)
            pre += sum(self.vdeg(v) for v in vb)
            pos += ri
        for lam, a, gs in C.cocompose(k, shape, cname):
            sign = 1
            for i in range(k):
                if pre_odd[i] and C.degree(shape[i], gs[i]) % 2:
                    sign = -sign
            yield ring.mul(lam, sign), a, tuple(zip(shape, gs, blocks))

    def decompose(self, x, k, check=False):
        """Components of x in uC(k) (x) uC(V)^{(x) k}.

        Returns {(outer-name, (key_1..key_k)): coeff}; keys of all
        arities (including the unitary class) appear, the shape being
        recoverable from the key arities.
        """
        C = self.cooperad
        ring = self.ring
        out = {}
        for r, plain in self.expand(x).items():
            for shape in compositions(r, k):
                if any(ri > C.r_max for ri in shape):
                    continue
                for (cname, vt), coeff in plain.items():
                    for lam, a, blocks in self.cocompose_plain(
                            k, shape, cname, vt):
                        cval = ring.mul(coeff, lam)
                        keys = []
                        for block in blocks:
                            kp, kcoeff = self._block_to_key(*block)
                            if kp is None:
                                break
                            keys.append(kp)
                            cval = ring.mul(cval, kcoeff)
                        if len(keys) < k or ring.is_zero(cval):
                            continue
                        kk = (a, tuple(keys))
                        out[kk] = ring.add(out.get(kk, ring.zero), cval)
        out = {k2: c for k2, c in out.items() if not ring.is_zero(c)}
        if check:
            self._check_decompose(x, k, out)
        return out

    def _block_to_key(self, r, g, vb):
        """Identify a plain block (g (x) vb) as (key, coefficient) or drop.

        In the free case only representative cooperad factors are read
        (the all-representative term of a product of orbit sums has
        coefficient one).  In the divided case the key is the sorted
        tuple and the coefficient rescales by the signed stabilizer sum.
        """
        ring = self.ring
        if r == 0:
            if not self.unitary:
                return None, None
            return (0, self.cooperad.unit_name, ()), ring.one
        om = self.cooperad.component(r)
        if self.divided:
            svt = tuple(sorted(vb))
            if svt != vb:
                return None, None
            h = self._stabilizer_sum(r, vb)
            if ring.is_zero(h):
                return None, None
            key = (r, g, vb)
            if key not in self.module.basis:
                return None, None
            return key, ring.mul(ring.normalize(factorial(r)), ring.inv(h))
        if not om.is_rep(g):
            return None, None
        key = (r, g, vb)
        if key not in self.module.basis:
            return None, None
        return key, ring.one

    def _check_decompose(self, x, k, result):
        """Counit consistency: reading the all-counit shape returns x."""
        if k != 1:
            return
        ring = self.ring
        acc = {}
        for (a, keys), c in result.items():
            if a == self.cooperad.counit_name:
                acc[keys[0]] = ring.add(acc.get(keys[0], ring.zero), c)
        acc = {k2: c for k2, c in acc.items() if not ring.is_zero(c)}
        if acc != x.prune().terms:
            raise InvarianceError("counit component of decompose is not x")


def cofree_build(C, V, w_max, unitary=True, basis_cap=DEFAULT_BASIS_CAP):
    return CofreeCoalgebra(C, V, w_max, unitary=unitary, basis_cap=basis_cap)


# ---------------------------------------------------------------------------
# coderivations


class Coderivation:
    """Cogenerator components of a degree -1 coderivation on uC(V).

    ``comps`` maps cofree basis keys (r, rep, v-tuple) to Elements of V;
    equivariance determines the value on every plain tensor.  The key
    (0, unit, ()) carries the curvature.
    """

    def __init__(self, cofree, comps):
        self.cofree = cofree
        self.ring = cofree.ring
        self.comps = {}
        for key, val in comps.items():
            val = val.prune() if hasattr(val, "prune") else val
            if val.is_zero():
                continue
            if key not in cofree.module.basis and key[0] != 0:
                raise ShapeError(f"component key {key!r} outside the truncation")
            if not val.is_homogeneous():
                raise ShapeError(f"component at {key!r} is not homogeneous")
            want = cofree.module.degree(key) - 1 if key in cofree.module.basis \
                else -1
            if val.the_degree() != want:
                raise ShapeError(
                    f"component at {key!r} has degree {val.the_degree()}, "
                    f"expected {want}"
                )
            self.comps[key] = val

    @property
    def flat(self):
        return self.curvature().is_zero()

    def curvature(self):
        key = (0, self.cofree.cooperad.unit_name, ())
        return self.comps.get(key, self.cofree.V.zero())

    def component(self, key):
        return self.comps.get(key, self.cofree.V.zero())

    def eval_plain(self, r, cname, vt):
        """Value on a plain tensor via equivariance."""
        cf = self.cofree
        ring = self.ring
        if r == 0:
            return self.curvature()
        om = cf.cooperad.component(r)
        if cf.divided:
            # trivial action: average over reorderings of the stored key
            svt = tuple(sorted(vt))
            degs = tuple(cf.vdeg(v) for v in vt)
            base = self.comps.get((r, cname, svt))
            if base is None:
                return cf.V.zero()
            # find one sigma carrying vt to svt and its sign
            for sigma in all_permutations(r):
                if sigma.permute_slots(vt) == svt:
                    return base.scale(sigma.koszul_sign(degs))
            return cf.V.zero()
        rep, sigma = om.locate(cname)
        inv = sigma.inverse()
        degs = tuple(cf.vdeg(v) for v in vt)
        wt = inv.permute_slots(vt)
        sign = inv.koszul_sign(degs)
        base = self.comps.get((r, rep, wt))
        if base is None:
            return cf.V.zero()
        return base.scale(sign)

    def value_on(self, x):
        """Plain evaluation of the components on an element of uC(V).

        The element is expanded into plain tensors and the equivariant
        components are applied term by term; this is the sense in which
        the corestriction of the extended coderivation reproduces the
        cogenerator data (and the eta-sum residual its special case).
        """
        out = self.cofree.V.zero()
        for r, plain in self.cofree.expand(x).items():
            for (cname, vt), c in plain.items():
                out = out.add(self.eval_plain(r, cname, vt).scale(c))
        return out


def coderivation_extend(Qt, check=False):
    """The coderivation Q on uC(V) with corestriction Qt.

    Returns a function Element -> Element.  A basis key stands for the
    orbit sum of its representative tensor, so the key is expanded into
    plain tensors first; every infinitesimal cocomposition component
    then feeds its distinguished block to Qt, with Koszul signs for
    moving the inner cooperad factor and then the degree -1 operator
    past the prefix factors; the (invariant) output is collected back
    into key form.  With this normalization the tangent of Q agrees
    with the plain evaluation of Qt, matching the eta-sum form of the
    residual and the flatness of twists over every ring.
    """
    cf = Qt.cofree
    C = cf.cooperad
    ring = cf.ring
    cache = {}

    def on_key(key):
        if key in cache:
            return cache[key]
        acc_by_arity = {}

        def put(r_out, pk, c):
            tgt = acc_by_arity.setdefault(r_out, {})
            tgt[pk] = ring.add(tgt.get(pk, ring.zero), c)

        r = key[0]
        for (cname, vt), coeff in cf.expand_key(key).items():
            for (tcoeff, k, out, i, m, inner) in infinitesimal_cocomposition(
                C, r, cname, include_trivial=True
            ):
                # v-slots: positions i-1 .. i-1+m-1 feed the inner factor
                prefix = vt[:i - 1]
                block = vt[i - 1:i - 1 + m]
                suffix = vt[i - 1 + m:]
                val = Qt.eval_plain(m, inner, block)
                if val.is_zero():
                    continue
                sign = 1
                pre_deg = sum(cf.vdeg(v) for v in prefix)
                in_deg = C.degree(m, inner)
                if in_deg % 2 and pre_deg % 2:
                    sign = -sign
                out_deg = C.degree(k, out)
                if (out_deg + pre_deg) % 2:
                    sign = -sign
                base = ring.mul(coeff, ring.mul(tcoeff, sign))
                for vn, vc in val.terms.items():
                    nvt = prefix + (vn,) + suffix
                    wt = sum(cf.V.weight(v) for v in nvt)
                    if wt > cf.w_max:
                        continue
                    put(k, (out, nvt), ring.mul(base, vc))
        res = cf.collect(acc_by_arity, check=check)
        cache[key] = res
        return res

    def Q(x):
        out = cf.zero()
        for key, coeff in x.terms.items():
            out = out.add(on_key(key).scale(coeff))
        return out

    Q.corestriction = Qt
    Q.on_key = on_key
    return Q


def square_check(Qt):
    """Evaluate Q o Q on every basis class; (ok, witness)."""
    cf = Qt.cofree
    Q = coderivation_extend(Qt)
    for key in cf.module.names:
        res = Q(Q(cf.module.gen(key)))
        if not res.is_zero():
            return False, (key, res)
    return True, None


def completeness_check(Qt):
    """Weight additivity of every component, plus a nilpotence bound."""
    cf = Qt.cofree
    report = []
    ok = True
    for key, val in Qt.comps.items():
        r, rep, vt = key
        wt_in = sum(cf.V.weight(v) for v in vt)
        mw = val.min_weight()
        if mw is not None and mw < wt_in:
            ok = False
            report.append(("weight-violation", key, mw, wt_in))
    max_arity = 0
    for key, val in Qt.comps.items():
        if not val.is_zero():
            max_arity = max(max_arity, key[0])
    return {
        "complete": ok,
        "violations": report,
        "nilpotent_bound": max_arity,
    }


# ---------------------------------------------------------------------------
# coalgebra morphisms


def morphism_extend(g_comps, source, target):
    """Extend corestriction data to a coalgebra map uC(A) -> uC(B).

    ``g_comps`` maps source basis keys to Elements of target.V, all of
    degree 0 and weight-respecting; the unitary class maps to the
    unitary class plus nothing (strict morphisms only, so the arity-0
    component must be absent or zero).
    """
    ring = source.ring
    C = source.cooperad
    if C is not target.cooperad:
        raise PreconditionError("source and target must share the cooperad")

    def Phi(x):
        acc = {0: {}}
        eps = source.counit_coefficient(x)
        if not ring.is_zero(eps):
            acc[0][(C.unit_name, ())] = eps
        for k in range(1, C.r_max + 1):
            for (a, keys), coeff in source.decompose(x, k).items():
                vals = [g_comps.get(kk) for kk in keys]
                if any(v is None or v.is_zero() for v in vals):
                    continue
                for combo in _product(*[list(v.terms.items()) for v in vals]):
                    c = coeff
                    names = []
                    for vn, vc in combo:
                        c = ring.mul(c, vc)
                        names.append(vn)
                    wt = sum(target.V.weight(v) for v in names)
                    if wt > target.w_max:
                        continue
                    tgt = acc.setdefault(k, {})
                    pk = (a, tuple(names))
                    tgt[pk] = ring.add(tgt.get(pk, ring.zero), c)
        return target.collect(acc)

    return Phi
