"""The convolution complex on simplex chains and its solution spaces.

A ConvolutionElement is a graded map from the chains on a simplex to the
cogenerator module V.  Together with a coalgebra structure on the chains
(pushed from permutation-tuple cochains along a cooperad morphism) and a
flat coderivation on the cofree object, the convolution complex carries
operations mu_r and a solution condition

    d(psi) + sum_{r >= 2} mu_r(psi, ..., psi) = 0,

whose degree-0 solutions on the n-simplex form a simplicial set.  The
simplex contractions lift to operators on convolution elements, giving a
constructive filler for every horn (the simplicial set is Kan at any
finite weight truncation).

The chain coproduct is stored once per class size and arity, as the
coproduct of the top class of the simplex of that size, in vertex
positions 0..m.  Relabelling it through a class I gives the coproduct of
I exactly: the interval-cut action reads only positions within I (the
cuts, the parity of a cut, and which vertices are equal), never the
vertex values.  mu_r joins that positional coproduct with the support of
its arguments, skipping every term with a block on which some argument
vanishes, and the problem memoises the coderivation's plain evaluations.
"""

import random
from itertools import combinations, product

from .errors import (
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

    def __init__(self, cx, V, degree, values=None):
        self.cx = cx
        self.V = V
        self.degree = degree
        self.values = {}
        if values:
            for I, val in values.items():
                self.set(I, val)

    @property
    def n(self):
        return self.cx.n

    def set(self, I, val):
        I = tuple(I)
        if I not in self.cx.module.basis:
            raise ShapeError(f"{I} is not a basis class of the {self.cx.n}-simplex")
        val = val.prune()
        if val.is_zero():
            self.values.pop(I, None)
            return
        want = (len(I) - 1) + self.degree
        if not val.is_homogeneous() or val.the_degree() != want:
            raise ShapeError(
                f"value on e_{I} must be homogeneous of degree {want}"
            )
        self.values[I] = val

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
        """The composite with a chain map into this simplex.

        ``f`` is a LinearMap src_cx.module -> self.cx.module of degree 0.
        """
        out = ConvolutionElement(src_cx, self.V, self.degree)
        for J in src_cx.module.names:
            acc = _linear_sum(self.values, f.apply_name(J).terms)
            out.set(J, Element(self.V, acc))
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


def _accumulate(acc, terms, coeff):
    """acc += coeff * terms, in plain dicts; ``set`` normalises once."""
    for vn, c in terms.items():
        acc[vn] = acc.get(vn, 0) + coeff * c


def _linear_sum(values, combination, scale=1):
    """sum of scale * c * values[J] over the (J, c) of ``combination``,
    as a plain dict; classes without a value are skipped."""
    acc = {}
    for J, c in combination.items():
        val = values.get(J)
        if val is not None:
            _accumulate(acc, val.terms, scale * c)
    return acc


def _restrict(support, I):
    """The classes of ``support`` inside I, renamed to their positions
    in I (I is strictly increasing, so positions keep the order)."""
    pos = {v: j for j, v in enumerate(I)}
    inside = pos.keys()
    return {tuple(map(pos.__getitem__, K)): t for K, t in support.items()
            if inside >= set(K)}


def horn_basis(n, k):
    """Basis classes of the chains on the k-th horn of the n-simplex:
    everything except the top class and the face opposite vertex k."""
    _check_horn(n, k)
    return [I for I in _all_subsets(n) if _is_horn_class(I, n, k)]


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


def _all_subsets(n):
    for size in range(1, n + 2):
        yield from combinations(range(n + 1), size)


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
            val = val.prune()
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

    ``phi`` is a cooperad morphism from the permutation-tuple cochains
    ``E`` onto the cooperad of ``Qt``'s cofree object; it is how each
    simplex becomes a coalgebra over that cooperad.
    """

    def __init__(self, Qt, phi, E, cap=200000):
        self.Qt = Qt
        self.cofree = Qt.cofree
        self.C = self.cofree.cooperad
        self.V = self.cofree.V
        self.ring = self.cofree.ring
        if phi.target is not self.C:
            raise ShapeError("morphism does not land in the coderivation's cooperad")
        if phi.source is not E:
            raise ShapeError("morphism does not start at the given cochain cooperad")
        self.phi = phi
        self.E = E
        self.cap = cap
        self._dec = {}
        self._joins = {}
        self._evals = {}

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

    def element(self, n, values, degree=0):
        return ConvolutionElement(self.chains(n), self.V, degree, values)

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
                self.phi, self.E, self.chains(m), top, r, cap=self.cap
            )
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

    # -- operations ----------------------------------------------------

    def mu(self, psis):
        """mu_r(psi_1, ..., psi_r): structure map after the chain coproduct.

        A sparse join.  The coproduct of each class size is looked up
        once per call, in positions, grouped by its first block.  For
        each class I each distinct argument object is restricted once to
        the classes inside I, renamed to positions (``star`` passes one
        object r times), and a term is evaluated only when each of its
        blocks carries a value of its argument; the others are skipped.  Evaluations go through the problem's memo of
        ``Qt.eval_plain``, and each class sums in one plain dict that is
        set once.
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
        # bit i set when psi_i has odd degree; a term's Koszul sign is the
        # parity of the odd arguments that cross an odd-degree prefix
        odd = sum(1 << i for i, p in enumerate(psis) if p.degree % 2)
        n = cx.n
        distinct = {id(p): p for p in psis}
        for size in range(1, n + 2):
            index = self._join_index(size, r)
            for I in combinations(range(n + 1), size):
                local = {k: _restrict(p.values, I) for k, p in distinct.items()}
                first, *rest = [local[id(p)] for p in psis]
                acc = {}
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
                                ev = self._eval_plain(r, cname, vt)
                                _accumulate(acc, ev, coeff)
                if acc:
                    out.set(I, Element(self.V, acc))
        return out

    def _eval_plain(self, r, cname, vt):
        """The terms of ``Qt.eval_plain``, memoised: Qt is fixed."""
        key = (r, cname, vt)
        if key not in self._evals:
            self._evals[key] = self.Qt.eval_plain(r, cname, vt).terms
        return self._evals[key]

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
            for (cname, Js), c in dec.items():
                crossing = 0
                crossed = self.C.degree(r, cname)
                for i, J in enumerate(Js):
                    if crossed % 2:
                        crossing |= 1 << i
                    crossed += len(J) - 1
                entry = (cname, Js[1:], c, crossing)
                index.setdefault(Js[0], []).append(entry)
        return self._joins[key]

    def differential(self, psi):
        """d(psi) = Q_1 o psi - (-1)^{|psi|} psi o d."""
        out = self.mu([psi])
        sgn = -1 if psi.degree % 2 == 0 else 1
        cx = psi.cx
        for I in cx.module.names:
            acc = _linear_sum(psi.values, cx.d.apply_name(I).terms, sgn)
            if I in out.values:
                _accumulate(acc, out.values[I].terms, 1)
            out.set(I, Element(self.V, acc))
        return out

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
        return self.differential(psi).add(self.star(psi))

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
                raise InternalCheckError(f"{what} of a solution failed the check")
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
                if not self.ring.is_zero(c):
                    acc.setdefault(I, []).append((vn, c))
            for I, terms in acc.items():
                val = self.V.zero()
                for vn, c in terms:
                    val = val.add(self.V.gen(vn, c))
                psi.set(I, val)
            if self.mc_check(psi)[0]:
                out.append(psi)
        return out

    # -- lifted contraction operators ----------------------------------

    def lifted_ops(self, k, n):
        """Operators (E, P, H, R) on convolution elements at vertex k.

        E sends a value on the point to the constant element; P projects
        onto the vertex value; H is the (signed) lift of the chain
        homotopy; R = differential o H.  They satisfy
        dH + Hd = id - P exactly.
        """
        cxn = self.chains(n)
        cx0 = self.chains(0)
        _, eps, p, h = contraction(self.ring, k, n)

        def E_op(phi0):
            return phi0.precompose(eps, cxn)

        def P_op(psi):
            return E_op(psi.precompose(p, cx0))

        def H_op(psi):
            # the sign makes dH + Hd = id - P hold with the convolution
            # differential's (-1)^{|psi|} convention
            sgn = 1 if psi.degree % 2 == 0 else -1
            out = ConvolutionElement(cxn, self.V, psi.degree + 1)
            for I in cxn.module.names:
                acc = _linear_sum(psi.values, h.apply_name(I).terms, sgn)
                out.set(I, Element(self.V, acc))
            return out

        def R_op(psi):
            return self.differential(H_op(psi))

        return E_op, P_op, H_op, R_op

    # -- horn filling --------------------------------------------------

    def horn_fill(self, horn, verify=True, trace=None):
        """A degree-0 solution on the simplex restricting to the horn.

        Start from the horn values with the open-face value solved so
        the top boundary sum vanishes and the top value zero, then
        repeatedly subtract the lifted-homotopy image of the defect; the
        weight filtration forces the correction to vanish within w_max
        steps.
        """
        n, k = horn.n, horn.k
        psi = self.zero(n)
        self._require_flat()
        for I in horn_basis(n, k):
            psi.set(I, horn.value(I))
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
        acc = self.V.zero()
        for i in range(n + 1):
            if i == k:
                continue
            acc = acc.add(psi.value(top[:i] + top[i + 1:]).scale((-1) ** i))
        psi.set(miss, acc.scale(-((-1) ** k)))
        _, _, H_op, _ = self.lifted_ops(k, n)
        w_max = self.cofree.w_max
        for _ in range(w_max + 1):
            solved, defect = self.mc_check(psi)
            if trace is not None:
                trace.append(defect.min_weight())
            if solved:
                break
            gamma = H_op(defect)
            if gamma.is_zero():
                raise InternalCheckError(
                    "nonzero defect with zero correction during horn filling"
                )
            psi = psi.sub(gamma)
        else:
            raise InternalCheckError(
                f"horn filling did not stabilize within {w_max} corrections"
            )
        if verify:
            for I in horn_basis(n, k):
                if not psi.value(I).eq(horn.value(I)):
                    raise InternalCheckError(
                        f"filler changed the horn value on e_{I}"
                    )
        return psi

    def kan_spot_check(self, trials=20, seed=0, n_max=3, enum_cap=4096):
        """Generate horns from known solutions and fill them.

        Vertices come from exhaustive enumeration; higher simplices from
        fillers and degeneracies of lower ones.  Returns a report dict.
        """
        rng = random.Random(seed)
        report = {"attempted": 0, "filled": 0, "cases": []}
        vertices = self.mc_simplices(0, cap=enum_cap)
        if not vertices:
            report["note"] = "no vertex solutions; nothing to check"
            return report
        pool = {0: vertices}
        for t in range(trials):
            n = 1 + t % n_max
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
                raise InternalCheckError("filled horn failed the final check")
            pool.setdefault(n, []).append(psi)
            report["filled"] += 1
            report["cases"].append({"n": n, "k": k})
        return report
