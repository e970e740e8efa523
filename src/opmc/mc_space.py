"""The convolution complex on simplex chains and its solution spaces.

A ConvolutionElement is a graded map from the chains on a simplex to the
cogenerator module V.  Together with a coalgebra structure on the chains
(pushed from permutation-tuple cochains along a cooperad morphism) and a
flat coderivation on the cofree object, the convolution complex carries
operations mu_r and a solution condition

    d(psi) + sum_{r >= 2} mu_r(psi, ..., psi) = 0,

whose degree-0 solutions on the n-simplex form a simplicial set.  A chain
map into a simplex acts by one signed composite, ``precompose``; so lifted,
the simplex contractions give a constructive filler for every horn (the
simplicial set is Kan at any finite weight truncation).  The composite
sets a value only on the source classes whose row of the map meets the
support, and where a row has one term with signed coefficient 1, as
every row of a face or a degeneracy has, it shares the stored value
instead of copying it.

The chain coproduct is stored once per class size and arity, as the
coproduct of the top class of the simplex of that size, in vertex
positions 0..m.  Relabelling it through a class I gives the coproduct of
I exactly: the interval-cut action reads only positions within I (the
cuts, the parity of a cut, and which vertices are equal), never the
vertex values.  mu_r joins that positional coproduct with the support of
its arguments, skipping every term with a block on which some argument
vanishes, and the problem memoises the coderivation's plain evaluations.

The same relabelling makes the value of mu_r on a class I a function of
r, |I|, the argument degrees and the arguments on the subclasses of I,
in positions.  ``simplex_chains.subclass_table``, built once per problem
and simplex dimension, lists the subclasses of each class in one
positional order per class size, so an argument's content on I is a
tuple of (subclass position, frozen value) pairs, read by lookup.  Each problem memoises mu
per such content for its own lifetime, as it does the evaluations;
nothing is shared between problems.  The solution defect is one pass over the classes: each
class's content is read once and keys mu_r for every arity, and the
class value, boundary term included, is summed once.  A horn fill reads
most of it back: the filler's classes other than the top and the open
face lie in the faces already checked, and every later check of the
filler or of its faces finds every class stored.
"""

import random
from itertools import chain, product

from .cofree import plain_evaluator, square_check
from .errors import (
    DEFAULT_RESOURCE_CAP,
    ConventionError,
    InternalCheckError,
    PreconditionError,
    ResourceLimitError,
    ShapeError,
    UnsupportedError,
)
from .graded import Element
from .simplex_chains import (
    c_coalgebra_decompose,
    chains,
    contraction,
    degeneracy_map,
    face_map,
    simplex_classes,
    subclass_table,
)

__all__ = [
    "ConvolutionElement",
    "MCProblem",
    "HornData",
    "horn_basis",
]


class ConvolutionElement:
    """A homogeneous map N_*(Delta^n) -> V of some degree d.

    The value on a class of chain degree q is an element of V of degree
    q + d; values are stored sparsely by basis class.
    """

    def __init__(self, cx, V, degree):
        self.cx = cx
        self.V = V
        self.degree = degree
        self.values = {}

    @property
    def n(self):
        return self.cx.n

    def set(self, I, val):
        I = tuple(I)
        self.check(I, val)
        if val.terms:
            self.values[I] = val
        else:
            self.values.pop(I, None)

    def check(self, I, val):
        """Raise ShapeError unless ``val`` can be the value on the class
        I (a tuple): every check ``set`` makes."""
        if I not in self.cx.module.basis:
            raise ShapeError(f"{I} is not a basis class of the {self.cx.n}-simplex")
        want = (len(I) - 1) + self.degree
        if val.terms and val.degrees() != {want}:
            raise ShapeError(
                f"value on e_{I} must be homogeneous of degree {want}"
            )

    def value(self, I):
        return self.values.get(tuple(I), self.V.zero())

    def is_zero(self):
        return not self.values

    def support(self):
        return sorted(self.values)

    def copy(self):
        out = ConvolutionElement(self.cx, self.V, self.degree)
        out.values = {I: v for I, v in self.values.items()}
        return out

    def add(self, other):
        self._check(other)
        out = ConvolutionElement(self.cx, self.V, self.degree)
        for I in set(self.values) | set(other.values):
            out.set(I, self.value(I).add(other.value(I)))
        return out

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, coeff):
        out = ConvolutionElement(self.cx, self.V, self.degree)
        for I, v in self.values.items():
            out.set(I, v.scale(coeff))
        return out

    def eq(self, other):
        self._check(other)
        return all(
            self.value(I).eq(other.value(I))
            for I in set(self.values) | set(other.values)
        )

    def min_weight(self):
        """Smallest weight appearing in any value (None when zero)."""
        weights = [v.min_weight() for v in self.values.values()]
        weights = [w for w in weights if w is not None]
        return min(weights) if weights else None

    def precompose(self, f, src_cx):
        """psi o f for a chain map ``f``: src_cx.module -> self.cx.module.

        The composite has degree |psi| + |f| and the Koszul sign
        (-1)^{|psi| |f|}.  Faces, degeneracies, the boundary in the
        convolution differential and the lifted homotopy are all this.

        Only a source class whose row of ``f`` meets the support of psi
        gets a value, set in source-class order; every other class is
        zero and is skipped.  A row of one term, as every row of a vertex
        map and of the homotopy is, shares the stored value of psi when
        its signed coefficient is 1 and scales it otherwise; a longer
        row, as of the boundary, is summed by ``collect``.
        """
        out = ConvolutionElement(src_cx, self.V, self.degree + f.degree)
        odd = self.degree * f.degree % 2
        values, rows, ring = self.values, f.entries, self.V.ring
        for J in src_cx.module.names:
            row = rows.get(J)
            if row is None:
                continue
            if len(row) == 1:
                (I, c), = row.items()
                val = values.get(I)
                if val is None:
                    continue
                if odd:
                    c = ring.neg(c)
                if c != ring.one:
                    val = val.scale(c)
            elif values.keys().isdisjoint(row):
                continue
            else:
                val = Element(self.V, ring.collect(
                    _linear_terms(values, row, -1 if odd else 1)))
            out.set(J, val)
        return out

    def _check(self, other):
        if other.cx.n != self.cx.n or other.degree != self.degree:
            raise ShapeError("convolution elements are not compatible")

    def items_sorted(self):
        return [(I, self.values[I]) for I in sorted(self.values)]

    def __repr__(self):
        if not self.values:
            return "0"
        return "; ".join(f"e_{I} -> {v!r}" for I, v in self.items_sorted())


def _linear_terms(values, combination, scale=1):
    """The terms of the sum of scale * c * values[J] over the (J, c) of
    ``combination``, for ``ring.collect``; classes without a value are
    skipped."""
    for J, c in combination.items():
        val = values.get(J)
        if val is not None:
            c *= scale
            for vn, vc in val.terms.items():
                yield vn, c * vc


def _frozen(values):
    """The values of a convolution element as hashable term sets."""
    return {K: frozenset(v.terms.items()) for K, v in values.items()}


def _content(frozen, subclasses):
    """An argument's part of the memo key on a class: (position, frozen
    value) of each subclass that carries a value, in positional order."""
    return tuple((j, f) for j, K in enumerate(subclasses)
                 if (f := frozen.get(K)) is not None)


def _local(values, subclasses):
    """An argument restricted to a class, keyed by its subclasses in
    positions (the last subclass is the class itself)."""
    positions = simplex_classes(len(subclasses[-1]) - 1)
    return {J: v for J, K in zip(positions, subclasses)
            if (v := values.get(K)) is not None}


def horn_basis(n, k):
    """Basis classes of the chains on the k-th horn of the n-simplex:
    everything except the top class and the face opposite vertex k."""
    _check_horn(n, k)
    return [I for I in simplex_classes(n) if _is_horn_class(I, n, k)]


def _check_horn(n, k):
    if n < 1 or not 0 <= k <= n:
        raise ShapeError(f"no horn (n={n}, k={k})")


def _is_horn_class(I, n, k):
    """Whether I is one of the classes ``horn_basis(n, k)`` lists."""
    if not I or not all(isinstance(v, int) and 0 <= v <= n for v in I):
        return False
    if any(a >= b for a, b in zip(I, I[1:])):
        return False
    # n + 1 vertices is the top class; n vertices without k the open face
    return len(I) < n or (len(I) == n and k in I)


class HornData:
    """Degree-0 values on the chains of a horn, one per basis class."""

    def __init__(self, n, k, V, values):
        self.n = n
        self.k = k
        self.V = V
        _check_horn(n, k)
        self.values = {}
        for I, val in values.items():
            I = tuple(I)
            if not _is_horn_class(I, n, k):
                raise ShapeError(f"{I} is not a class of the ({n},{k}) horn")
            if val.is_zero():
                continue
            want = len(I) - 1
            if not val.is_homogeneous() or val.the_degree() != want:
                raise ShapeError(
                    f"horn value on e_{I} must be homogeneous of degree {want}"
                )
            self.values[I] = val

    @classmethod
    def from_simplex(cls, psi, k):
        """Restrict a degree-0 convolution element to the k-th horn."""
        if psi.degree != 0:
            raise ShapeError("horns carry degree-0 values")
        n = psi.cx.n
        return cls(n, k, psi.V,
                   {I: psi.value(I) for I in horn_basis(n, k)})

    def value(self, I):
        return self.values.get(tuple(I), self.V.zero())


class MCProblem:
    """A flat coderivation plus a chain-coalgebra structure.

    ``phi`` is a cooperad morphism from permutation-tuple cochains, its
    source, onto the cooperad of ``Qt``'s cofree object; it is how each
    simplex becomes a coalgebra over that cooperad.
    """

    def __init__(self, Qt, phi, cap=DEFAULT_RESOURCE_CAP):
        self.Qt = Qt
        self.cofree = Qt.cofree
        self.C = self.cofree.cooperad
        self.V = self.cofree.V
        self.ring = self.cofree.ring
        if phi.target is not self.C:
            raise ShapeError("morphism does not land in the coderivation's cooperad")
        self.phi = phi
        self.cap = cap
        self._dec = {}
        self._joins = {}
        self._evaluate = plain_evaluator(Qt)  # Qt is fixed: one memo
        self._mus = {}
        self._subclasses = {}

    # -- plumbing ------------------------------------------------------

    def chains(self, n):
        """The chains on the n-simplex, refused past the problem's cap."""
        # 2^(n+1) - 1 classes; the bit-length test spares a huge power
        if n + 1 > self.cap.bit_length() or 2 ** (n + 1) - 1 > self.cap:
            raise ResourceLimitError(
                f"the {n}-simplex has 2^{n + 1} - 1 chain classes, "
                f"more than the cap {self.cap}"
            )
        return chains(self.ring, n)

    def zero(self, n, degree=0):
        return ConvolutionElement(self.chains(n), self.V, degree)

    def _subclass_table(self, n):
        """``subclass_table(n)``, kept as long as the memo it keys."""
        if n not in self._subclasses:
            self._subclasses[n] = subclass_table(n)
        return self._subclasses[n]

    def _decompose(self, n, I, r):
        """The arity-r chain coproduct of the class I of the n-simplex.

        Only the coproduct of the top class of each Delta^m is computed
        and stored (keyed as that top class); a class with m + 1
        vertices reads it with position j relabelled to I[j].
        """
        cx = self.chains(n)
        I = tuple(I)
        if I not in cx.module.basis:
            raise ShapeError(f"{I} is not a basis class of the {n}-simplex")
        m = len(I) - 1
        top = tuple(range(m + 1))
        key = (m, top, r)
        if key not in self._dec:
            self._dec[key] = c_coalgebra_decompose(
                self.phi, top, r, cap=self.cap)
        if I == top:
            return self._dec[key]
        return {
            (cname, tuple(tuple(I[j] for j in J) for J in Js)): c
            for (cname, Js), c in self._dec[key].items()
        }

    def _require_flat(self):
        if not self.Qt.flat:
            raise ConventionError(
                "the convolution solution condition assumes a flat coderivation"
            )

    def _internal_check_failed(self, message):
        """Raise InternalCheckError, or ConventionError if Q o Q != 0: the
        solution space assumes Q o Q = 0, so the input is at fault."""
        ok, witness = square_check(self.Qt)
        if not ok:
            raise ConventionError(
                "the convolution solution condition assumes a coderivation "
                f"that squares to zero; Q o Q is nonzero on {witness[0]}"
            )
        raise InternalCheckError(message)

    # -- operations ----------------------------------------------------

    def mu(self, psis):
        """mu_r(psi_1, ..., psi_r): structure map after the chain coproduct.

        A sparse join, memoised per class as the module docstring says:
        each argument's content on a class, read through the problem's
        ``subclass_table``, keys the memo ``_mus``, which lives as long
        as the problem, like its ``plain_evaluator``; an empty sum is
        stored too.  Each distinct argument object is frozen once.

        On a miss the coproduct of the class size, in positions and
        grouped by its first block, is joined with the restricted
        arguments: a term is evaluated only when each of its blocks
        carries a value of its argument.  Evaluations go through the
        problem's ``plain_evaluator`` of Qt, and each class is summed
        once by ``ring.collect``.  ``mc_defect`` reads the same memo
        under the same keys.
        """
        r = len(psis)
        if r < 1:
            raise ShapeError("mu needs at least one argument")
        cx = psis[0].cx
        for p in psis[1:]:
            if p.cx.n != cx.n:
                raise ShapeError("mu arguments live on different simplices")
        dtot = sum(p.degree for p in psis)
        out = ConvolutionElement(cx, self.V, dtot - 1)
        if r > self.C.r_max:
            return out
        degrees = tuple(p.degree for p in psis)
        distinct = {id(p): p for p in psis}
        frozen = {k: _frozen(p.values) for k, p in distinct.items()}
        args = [p.values for p in psis]
        for I, subs in zip(cx.module.names, self._subclass_table(cx.n)):
            content = {k: _content(f, subs) for k, f in frozen.items()}
            out.set(I, self._mu_stored(out, I, subs, degrees, tuple(
                content[id(p)] for p in psis), args))
        return out

    def _mu_stored(self, out, I, subs, degrees, contents, args):
        """mu on the class I from the memo ``_mus``, keyed by |I|, the
        argument degrees and the arguments' contents on I; a miss
        computes it from the argument values ``args``, checks it as a
        value of ``out`` on I and stores it."""
        key = (len(I), degrees, contents)
        val = self._mus.get(key)
        if val is None:
            val = self._mus[key] = self._mu_class(
                len(I), degrees, [_local(v, subs) for v in args])
            out.check(I, val)
        return val

    def _mu_class(self, size, degrees, local):
        """The value of mu on a class of ``size`` vertices, from the
        arguments restricted to it in positions."""
        r = len(local)
        index = self._join_index(size, r)
        # bit i set when psi_i has odd degree; a term's Koszul sign is the
        # parity of the odd arguments that cross an odd-degree prefix
        odd = sum(1 << i for i, d in enumerate(degrees) if d % 2)
        first, *rest = local
        acc = []
        for J0, v0 in first.items():
            for cname, Js, c, crossing in index.get(J0, ()):
                vals = [v0]
                for loc, J in zip(rest, Js):
                    v = loc.get(J)
                    if v is None:
                        break
                    vals.append(v)
                else:
                    if (crossing & odd).bit_count() % 2:
                        c = -c
                    terms = [v.terms.items() for v in vals]
                    for combo in product(*terms):
                        vt, coeffs = zip(*combo)
                        coeff = c
                        for ci in coeffs:
                            coeff *= ci
                        acc.append((self._evaluate(r, cname, vt).terms, coeff))
        return Element(self.V, self.ring.collect(
            (vn, coeff * c) for ev, coeff in acc for vn, c in ev.items()))

    def _join_index(self, size, r):
        """The arity-r coproduct of a class of ``size`` vertices, in
        positions, as {J_1: [(cname, (J_2..J_r), coeff, crossing)]}.

        Bit i of ``crossing`` is set when psi_i crosses an odd degree:
        the cooperad factor and the chain factors to its left.
        """
        top = tuple(range(size))
        dec = self._decompose(size - 1, top, r)
        key = (size, r)
        if key not in self._joins:
            index = self._joins[key] = {}
            degree = self.C.degrees[r]
            for (cname, Js), c in dec.items():
                crossing = 0
                crossed = degree[cname]
                for i, J in enumerate(Js):
                    if crossed % 2:
                        crossing |= 1 << i
                    crossed += len(J) - 1
                entry = (cname, Js[1:], c, crossing)
                index.setdefault(Js[0], []).append(entry)
        return self._joins[key]

    def differential(self, psi):
        """d(psi) = Q_1 o psi - psi o d, the composite signed by precompose."""
        return self.mu([psi]).sub(psi.precompose(psi.cx.d, psi.cx))

    def star(self, psi):
        """The curvature-type sum over arities >= 2 at a degree-0 element."""
        self._require_flat()
        if psi.degree != 0:
            raise ShapeError("the arity sum is only formed in degree 0")
        out = ConvolutionElement(psi.cx, self.V, -1)
        for r in range(2, self.C.r_max + 1):
            out = out.add(self.mu([psi] * r))
        return out

    def mc_defect(self, psi):
        """d(psi) + sum_{r >= 2} mu_r(psi, ..., psi) in one pass over the
        classes, for a degree-0 psi.

        Each class's content is read once and keys mu_r for every arity
        r, as ``mu([psi] * r)`` keys it.  The class value is the sum of
        mu_1, the boundary term -psi o d and mu_2..mu_{r_max}, in one
        ``collect``; a class whose sum vanishes is not set.
        """
        self._require_flat()
        if psi.degree != 0:
            raise ShapeError("the arity sum is only formed in degree 0")
        cx, values = psi.cx, psi.values
        frozen = _frozen(values)
        arities = range(1, self.C.r_max + 1)
        out = ConvolutionElement(cx, self.V, -1)
        for I, subs in zip(cx.module.names, self._subclass_table(cx.n)):
            content = _content(frozen, subs)
            mus = [self._mu_stored(out, I, subs, (0,) * r, (content,) * r,
                                   [values] * r).terms.items()
                   for r in arities]
            boundary = _linear_terms(values, cx.d.apply_name(I).terms, -1)
            # summed in the order of d(psi) + star(psi)
            val = self.ring.collect(chain(*mus[:1], boundary, *mus[1:]))
            if val:
                out.set(I, Element(self.V, val))
        return out

    def mc_check(self, psi):
        """(solves, defect) for a degree-0 convolution element."""
        defect = self.mc_defect(psi)
        return defect.is_zero(), defect

    # -- the simplicial structure --------------------------------------

    def face(self, i, psi, verify=True):
        n = psi.cx.n
        if n < 1 or not 0 <= i <= n:
            raise ShapeError(f"no face (i={i}, n={n})")
        return self._pull_back(psi, face_map, i, n - 1, verify, "face")

    def degeneracy(self, j, psi, verify=True):
        n = psi.cx.n
        if not 0 <= j <= n:
            raise ShapeError(f"no degeneracy (j={j}, n={n})")
        return self._pull_back(psi, degeneracy_map, j, n + 1, verify,
                               "degeneracy")

    def _pull_back(self, psi, vertex_map, index, m, verify, what):
        """psi after ``vertex_map(ring, index, n)``, a chain map from the
        m-simplex; with ``verify``, a solution must map to a solution."""
        src = self.chains(m)
        out = psi.precompose(vertex_map(self.ring, index, psi.cx.n), src)
        if verify and psi.degree == 0 and self.mc_check(psi)[0]:
            if not self.mc_check(out)[0]:
                self._internal_check_failed(f"{what} of a solution failed the check")
        return out

    def mc_simplices(self, n, cap=None):
        """All degree-0 solutions on the n-simplex (finite rings only)."""
        self._require_flat()
        if not self.ring.finite:
            raise UnsupportedError(f"cannot enumerate over {self.ring}")
        cap = self.cap if cap is None else cap
        cx = self.chains(n)
        slots = []
        for I in cx.module.names:
            want = len(I) - 1
            vb = [vn for vn in self.V.names if self.V.degree(vn) == want]
            for vn in vb:
                slots.append((I, vn))
        elems = self.ring.elements()
        total = len(elems) ** len(slots)
        if total > cap:
            raise ResourceLimitError(
                f"{total} candidate assignments exceed the cap {cap}"
            )
        out = []
        for coeffs in product(elems, repeat=len(slots)):
            psi = self.zero(n)
            acc = {}
            for (I, vn), c in zip(slots, coeffs):
                acc.setdefault(I, []).append((vn, c))
            for I, terms in acc.items():
                psi.set(I, self.V.element(terms))
            if self.mc_check(psi)[0]:
                out.append(psi)
        return out

    # -- horn filling --------------------------------------------------

    def horn_fill(self, horn, verify=True, trace=None):
        """A degree-0 solution on the simplex restricting to the horn.

        Start from the horn values with the open-face value solved so
        the top boundary sum vanishes and the top value zero, then
        repeatedly subtract the defect precomposed with the contraction's
        homotopy h (signed so, H gives dH + Hd = id - P); the weight
        filtration forces the correction to vanish within w_max steps.
        """
        n, k = horn.n, horn.k
        psi = self.zero(n)
        self._require_flat()
        for I, val in horn.values.items():
            psi.set(I, val)
        # a face other than the k-th reads only horn classes
        for i in range(n + 1):
            if i != k and not self.mc_check(self.face(i, psi, verify=False))[0]:
                raise PreconditionError(
                    f"horn face {i} does not satisfy the solution condition"
                )
        top = psi.cx.top()
        miss = tuple(v for v in top if v != k)
        # solve the single unknown from the top boundary:
        # sum_i (-1)^i psi(top minus i) = 0
        others = {top[:i] + top[i + 1:]: (-1) ** (i + k + 1)
                  for i in range(n + 1) if i != k}
        acc = self.ring.collect(_linear_terms(psi.values, others))
        if acc:
            psi.set(miss, Element(self.V, acc))
        cx, _, _, h = contraction(self.ring, k, n)
        w_max = self.cofree.w_max
        for _ in range(w_max + 1):
            solved, defect = self.mc_check(psi)
            if trace is not None:
                trace.append(defect.min_weight())
            if solved:
                break
            gamma = defect.precompose(h, cx)
            if gamma.is_zero():
                self._internal_check_failed(
                    "nonzero defect with zero correction during horn filling"
                )
            psi = psi.sub(gamma)
        else:
            self._internal_check_failed(
                f"horn filling did not stabilize within {w_max} corrections"
            )
        if verify:
            for I in horn_basis(n, k):
                if not psi.value(I).eq(horn.value(I)):
                    self._internal_check_failed(
                        f"filler changed the horn value on e_{I}"
                    )
        return psi

    def kan_spot_check(self, trials=20, seed=0):
        """Generate horns from known solutions and fill them.

        Trial t fills a horn of dimension 1 + t mod 3.  Vertices come from
        exhaustive enumeration, refused past 4096 candidates; higher
        simplices from fillers and degeneracies of lower ones.  Returns a
        report dict.
        """
        rng = random.Random(seed)
        report = {"attempted": 0, "filled": 0, "cases": []}
        vertices = self.mc_simplices(0, cap=4096)
        if not vertices:
            report["note"] = "no vertex solutions; nothing to check"
            return report
        pool = {0: vertices}
        for t in range(trials):
            n = 1 + t % 3
            k = rng.randrange(n + 1)
            if n == 1:
                v0 = rng.choice(pool[0])
                horn = HornData(1, k, self.V, {(k,): v0.value((0,))})
            else:
                if not pool.get(n - 1):
                    continue
                lower = rng.choice(pool[n - 1])
                j = rng.randrange(n)
                full = self.degeneracy(j, lower, verify=False)
                horn = HornData.from_simplex(full, k)
            report["attempted"] += 1
            psi = self.horn_fill(horn)
            if not self.mc_check(psi)[0]:
                self._internal_check_failed("filled horn failed the final check")
            pool.setdefault(n, []).append(psi)
            report["filled"] += 1
            report["cases"].append({"n": n, "k": k})
        return report
