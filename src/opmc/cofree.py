"""Weight-truncated cofree conilpotent coalgebras, and the extension of
cogenerator-level data to coderivations and coalgebra morphisms.

Representation.  A basis key (r, rep, v-tuple) stands for the orbit sum
of the plain tensor rep (x) v_1..v_r.  Every operation expands keys into
plain tensors, applies plain dual tables in order, and collects outputs
back into key form.  The arity-r cooperad component, arity 0 included,
supplies all that depends on its symmetric group action, so there is one
code path:

- ``class_tuples``: the v-tuples that key a class;
- ``orbit_sum``: the plain expansion of a key;
- ``collection_coefficient``: the coefficient with which a plain term
  is read back as a key, or None when it is not read; with it
  ``symmetric.orbit_classes``, the one inverse of ``orbit_sum``, reads
  every output back (``collect``, each block of ``decompose``),
  unchecked: the outputs are invariant by construction, and the tests
  check the round trip;
- ``coinv_normalize``: the normal form on which a coderivation is read.

A free action (``OrbitModule``) keys every tuple, expands by the norm and
reads the terms whose cooperad factor is a representative, with
coefficient one.  The trivial action over Q (``TrivialModule``) keys
sorted tuples without a repeated odd-degree name, expands by the norm
over r!, and reads a sorted term with coefficient r!/h, h the
signed stabilizer sum.

``cocompose_plain`` splits a plain tensor along one cocomposition shape.
It is the one place that writes the Koszul sign of interleaving the
inner cooperad factors into the v-blocks: ``decompose``,
``coderivation_extend`` and the shuffle kernel of ``twisting`` take
every term and that sign from it.  Cooperad degrees come from the
truncation's ``degrees`` table, cogenerator degrees from ``V.degree``.
"""

from itertools import product as _product

from .cooperad import shapes
from .errors import PreconditionError, ResourceLimitError, ShapeError
from .graded import BasisElement, Element, GradedModule
from .symmetric import orbit_classes

__all__ = [
    "CofreeCoalgebra",
    "Coderivation",
    "cofree_build",
    "coderivation_extend",
    "plain_evaluator",
    "square_check",
    "morphism_extend",
    "completeness_check",
]

DEFAULT_BASIS_CAP = 20000


class CofreeCoalgebra:
    """uC(V) truncated at a total weight bound."""

    def __init__(self, C, V, w_max):
        self.cooperad = C
        self.V = V
        self.ring = C.ring
        self.w_max = w_max
        basis = []
        for r in range(C.r_max + 1):
            om = C.component(r)
            if not om.orbit_reps:
                continue
            # the v-tuples within w_max, with their degree sums and
            # weights: the same for every orbit representative of arity r
            tuples = []
            for vt in om.class_tuples(V.names, V.degree):
                wt = sum(V.weight(v) for v in vt)
                if wt <= w_max:
                    tuples.append((vt, sum(V.degree(v) for v in vt), wt))
                    if len(basis) + len(tuples) > DEFAULT_BASIS_CAP:
                        break  # the first representative exceeds the cap
            for rep in om.orbit_reps:
                cdeg = C.degrees[r][rep]
                basis.extend(BasisElement((r, rep, vt), cdeg + vdeg, wt)
                             for vt, vdeg, wt in tuples)
                if len(basis) > DEFAULT_BASIS_CAP:
                    raise ResourceLimitError(
                        f"cofree basis exceeds cap {DEFAULT_BASIS_CAP}"
                    )
        self.module = GradedModule(self.ring, basis)

    # -- basic structure ---------------------------------------------------

    def unit(self):
        return self.module.gen((0, self.cooperad.unit_name, ()))

    def counit_coefficient(self, x):
        """epsilon: the coefficient of the unitary class."""
        return x.coeff((0, self.cooperad.unit_name, ()))

    def from_v(self, v):
        """V -> uC(V): v as the arity-1 class [counit (x) v]."""
        counit = self.cooperad.counit_name
        return Element(self.module, {(1, counit, (vn,)): c
                                     for vn, c in v.terms.items()})

    def tangent(self, x):
        """T: uC(V) -> V, the coefficient of the arity-1 classes."""
        return Element(self.V, self.ring.collect(
            (vt[0], c) for (r, rep, vt), c in x.terms.items() if r == 1))

    # -- expansion / collection --------------------------------------------

    def expand_key(self, key):
        """Plain-tensor expansion of a basis key, as {(cname, vt): coeff}."""
        r, rep, vt = key
        return self.cooperad.component(r).orbit_sum(rep, vt, self.V.degree)

    def expand(self, x):
        """Expansion by arity: {r: {(cname, vtuple): coeff}}."""
        return self.sum_by_arity(
            ((key[0], pk), coeff * c)
            for key, coeff in x.terms.items()
            for pk, c in self.expand_key(key).items())

    def sum_by_arity(self, items):
        """The plain terms ((r, (cname, vtuple)), coeff) summed into the
        by-arity form {r: {(cname, vtuple): coeff}} without zeros."""
        out = {}
        for (r, pk), c in self.ring.collect(items).items():
            out.setdefault(r, {})[pk] = c
        return out

    def collect(self, plain_by_arity):
        """Read invariant plain tensors {r: {(cname, vtuple): coeff}} back
        into basis keys by ``orbit_classes``, one sum per arity."""
        basis = self.module.basis
        terms = {}
        for r, plain in plain_by_arity.items():
            for (cname, vt), coeff in orbit_classes(
                    self.cooperad.component(r), plain, self.V.degree).items():
                if (r, cname, vt) in basis:
                    terms[r, cname, vt] = coeff
        return Element(self.module, terms)

    # -- cocomposition -----------------------------------------------------

    def cocompose_plain(self, k, shape, cname, vt):
        """Delta_{k;shape} of the plain tensor cname (x) vt, blocks kept plain.

        Yields (coeff, outer-name, blocks) with blocks a tuple of plain
        triples (r_i, inner-name, v-block).  The coefficient carries the
        Koszul sign of interleaving the inner cooperad factors into the
        v-blocks: a, g_1..g_k, v's -> a, (g_1 vb_1), ..., (g_k vb_k).
        The sign is a plain negation; callers multiply with ``*`` and
        normalise once, as every kernel does.
        """
        C = self.cooperad
        deg = C.degrees
        blocks = []
        pre_odd = []
        pos = pre = 0
        for ri in shape:
            vb = vt[pos:pos + ri]
            blocks.append(vb)
            pre_odd.append(pre % 2)
            pre += sum(self.V.degree(v) for v in vb)
            pos += ri
        for lam, a, gs in C.cocompose(k, shape, cname):
            for i in range(k):
                if pre_odd[i] and deg[shape[i]][gs[i]] % 2:
                    lam = -lam
            yield lam, a, tuple(zip(shape, gs, blocks))

    def decompose(self, x, k):
        """Components of x in uC(k) (x) uC(V)^{(x) k}.

        Returns {(outer-name, (key_1..key_k)): coeff}; keys of all
        arities (including the unitary class) appear, the shape being
        recoverable from the key arities.
        """
        C = self.cooperad
        normalize = self.ring.normalize
        read = {}  # block -> its key by ``collect``: many terms share a block
        terms = []
        for r, plain in self.expand(x).items():
            for shape in (s for j, s in shapes(r, C.r_max) if j == k):
                for (cname, vt), coeff in plain.items():
                    for lam, a, blocks in self.cocompose_plain(
                            k, shape, cname, vt):
                        cval = coeff * lam
                        keys = []
                        for ri, g, vb in blocks:
                            got = read.get((ri, g, vb))
                            if got is None:
                                got = read[ri, g, vb] = self.collect(
                                    {ri: {(g, vb): 1}}).terms
                            if not got:
                                break
                            (kp, kcoeff), = got.items()
                            keys.append(kp)
                            cval *= kcoeff
                        # a zero term would still fix its key's place in
                        # collect's order
                        if len(keys) < k or not normalize(cval):
                            continue
                        terms.append(((a, tuple(keys)), cval))
        return self.ring.collect(terms)


def cofree_build(C, V, w_max):
    return CofreeCoalgebra(C, V, w_max)


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
            if val.is_zero():
                continue
            if key not in cofree.module.basis:
                raise ShapeError(f"component key {key!r} outside the truncation")
            if not val.is_homogeneous():
                raise ShapeError(f"component at {key!r} is not homogeneous")
            want = cofree.module.degree(key) - 1
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
        degs = tuple(cf.V.degree(v) for v in vt)
        rep, wt, sign = cf.cooperad.component(r).coinv_normalize(cname, vt, degs)
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
        return self.value_on_plain(self.cofree.expand(x), self.eval_plain)

    def value_on_plain(self, plain_by_arity, evaluate):
        """The components applied term by term to a plain presentation
        {r: {(cname, vtuple): coeff}}, summed in V; ``evaluate`` is
        ``eval_plain`` or a ``plain_evaluator`` of this coderivation."""
        return Element(self.cofree.V, self.ring.collect(
            (vn, vc * c)
            for r, plain in plain_by_arity.items()
            for (cname, vt), c in plain.items()
            for vn, vc in evaluate(r, cname, vt).terms.items()))


def plain_evaluator(Qt):
    """``Qt.eval_plain`` memoised on its arguments (r, name, v-tuple).

    The memo belongs to the returned function, so it lives exactly as
    long as the caller keeps that function: one call of ``twist``, one
    operator of ``coderivation_extend``, one ``MCProblem``.  Nothing is
    stored on ``Qt``, so no later call starts from a warm memo.  Most
    values are zero; they share one zero element.
    """
    memo = {}
    zero = Qt.cofree.V.zero()

    def evaluate(r, cname, vt):
        key = (r, cname, vt)
        val = memo.get(key)
        if val is None:
            val = Qt.eval_plain(r, cname, vt)
            val = memo[key] = zero if val.is_zero() else val
        return val
    return evaluate


def coderivation_extend(Qt):
    """The coderivation Q on uC(V) with corestriction Qt.

    Returns a function Element -> Element.  A basis key stands for the
    orbit sum of its representative tensor, so the key is expanded into
    plain tensors first.  Q applies Qt to one block of a cocomposition
    whose other blocks have arity 1: ``cocompose_plain`` gives the terms
    of every shape with at most one inner arity other than 1, signed for
    moving the inner cooperad factors past the v-blocks before them, and
    Qt reads the block of that inner (any block when all have arity 1,
    the counit-law terms).  The degree -1 operator then passes the outer
    factor and the prefix v's, the sign (-1)^{|outer| + |prefix|}; the
    (invariant) output is collected back into key form.  With this
    normalization the tangent of Q agrees with the plain evaluation of
    Qt, matching the eta-sum form of the residual and the flatness of
    twists over every ring.

    The operator memoises, for as long as it is kept: its image of each
    key (``on_key``'s ``cache``) and, through one ``plain_evaluator``,
    the value of Qt on each plain block, since many terms of many keys
    read the same block.  The prefix degree and weight sums are made
    once per plain tensor, and a term is kept when the weight of its
    new cogenerator fits the room the tensor leaves plus the weight of
    the block it replaces.  Nothing is stored on Qt or the coalgebra.
    """
    cf = Qt.cofree
    C = cf.cooperad
    ring = cf.ring
    vdeg, weight = cf.V.degree, cf.V.weight
    # per arity: (k, shape, [(slot, first v-position)]) for the shapes
    # with at most one inner arity other than 1 and the slots Qt reads
    infinitesimal = {r: [] for r in range(C.r_max + 1)}
    for r, found in infinitesimal.items():
        for k, shape in shapes(r, C.r_max):
            other = [i for i in range(k) if shape[i] != 1]
            if len(other) <= 1:
                slots = other or range(k)
                found.append((k, shape, [(i, sum(shape[:i])) for i in slots]))
    evaluate = plain_evaluator(Qt)
    cache = {}

    def on_key(key):
        if key in cache:
            return cache[key]
        terms = []
        for (cname, vt), coeff in cf.expand_key(key).items():
            # degree and weight of each prefix of vt, once per tensor
            pdeg, pwt = [0], [0]
            for v in vt:
                pdeg.append(pdeg[-1] + vdeg(v))
                pwt.append(pwt[-1] + weight(v))
            room = cf.w_max - pwt[-1]
            for k, shape, slots in infinitesimal[key[0]]:
                for lam, out, blocks in cf.cocompose_plain(k, shape, cname, vt):
                    for i, start in slots:
                        m, inner, block = blocks[i]
                        val = evaluate(m, inner, block)
                        if val.is_zero():
                            continue
                        odd = C.degrees[k][out] + pdeg[start]
                        base = coeff * (-lam if odd % 2 else lam)
                        # the weight vn may have: the block's is freed
                        free = room + pwt[start + m] - pwt[start]
                        prefix, suffix = vt[:start], vt[start + m:]
                        for vn, vc in val.terms.items():
                            if weight(vn) > free:
                                continue
                            terms.append(((k, (out, prefix + (vn,) + suffix)),
                                          base * vc))
        res = cf.collect(cf.sum_by_arity(terms))
        cache[key] = res
        return res

    def Q(x):
        return Element(cf.module, ring.collect(
            (k, c * coeff)
            for key, coeff in x.terms.items()
            for k, c in on_key(key).terms.items()))

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
    """The components that lower weight, as ("weight-violation", key,
    min weight of the value, weight of the key's v-tuple); the
    coderivation is complete when there are none.  ``Coderivation``
    keeps no zero value, so every value has a min weight."""
    weight = Qt.cofree.V.weight
    violations = []
    for key, val in Qt.comps.items():
        wt_in = sum(weight(v) for v in key[2])
        mw = val.min_weight()
        if mw < wt_in:
            violations.append(("weight-violation", key, mw, wt_in))
    return violations


# ---------------------------------------------------------------------------
# coalgebra morphisms


def morphism_extend(g_comps, source, target):
    """Extend corestriction data to a coalgebra map uC(A) -> uC(B).

    ``g_comps`` maps source basis keys to Elements of target.V, all of
    degree 0 and weight-respecting; the unitary class maps to the
    unitary class plus nothing (strict morphisms only, so the arity-0
    component must be absent or zero).
    """
    C = source.cooperad
    if C is not target.cooperad:
        raise PreconditionError("source and target must share the cooperad")

    def Phi(x):
        terms = [((0, (C.unit_name, ())), source.counit_coefficient(x))]
        for k in range(1, C.r_max + 1):
            for (a, keys), coeff in source.decompose(x, k).items():
                vals = [g_comps.get(kk) for kk in keys]
                if any(v is None or v.is_zero() for v in vals):
                    continue
                for combo in _product(*[list(v.terms.items()) for v in vals]):
                    c = coeff
                    names = []
                    for vn, vc in combo:
                        c *= vc
                        names.append(vn)
                    wt = sum(target.V.weight(v) for v in names)
                    if wt > target.w_max:
                        continue
                    terms.append(((k, (a, tuple(names))), c))
        return target.collect(target.sum_by_arity(terms))

    return Phi
