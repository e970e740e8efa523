"""Finitely generated free graded modules with weights, Koszul signs,
sparse elements and linear maps.

Degrees are homological (differentials have degree -1).  The weight of a
basis element is its filtration index: weight w means the element spans
F^w but not F^(w+1).  Completion is realized as truncation at a global
weight bound, so every construction downstream is exact modulo classes of
weight exceeding that bound.
"""

from itertools import chain

from .errors import ShapeError

__all__ = [
    "BasisElement",
    "GradedModule",
    "Element",
    "LinearMap",
    "koszul_sign",
    "koszul_sign_images",
    "tensor_module",
]


class BasisElement:
    __slots__ = ("name", "degree", "weight")

    def __init__(self, name, degree, weight=1):
        # weight 0 is reserved for the unitary class; V-basis weights are >= 1
        if weight < 0:
            raise ShapeError(f"weight must be >= 0, got {weight} for {name!r}")
        self.name = name
        self.degree = degree
        self.weight = weight

    def __repr__(self):
        return f"BasisElement({self.name!r}, deg={self.degree}, wt={self.weight})"


class GradedModule:
    """Free graded module with an ordered named basis."""

    def __init__(self, ring, basis):
        self.ring = ring
        self.basis = {}
        for b in basis:
            if b.name in self.basis:
                raise ShapeError(f"duplicate basis name {b.name!r}")
            self.basis[b.name] = b
        self.names = list(self.basis)

    def degree(self, name):
        return self.basis[name].degree

    def weight(self, name):
        return self.basis[name].weight

    def element(self, terms=()):
        return Element(self, dict(terms))

    def zero(self):
        return Element(self, {})

    def gen(self, name, coeff=1):
        return Element(self, {name: self.ring.normalize(coeff)}).prune()

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.basis


class Element:
    """Sparse element: mapping basis name -> nonzero scalar."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms):
        self.module = module
        self.terms = terms

    def prune(self):
        ring = self.module.ring
        self.terms = {
            n: ring.normalize(c) for n, c in self.terms.items() if not ring.is_zero(c)
        }
        return self

    def is_zero(self):
        return not self.prune().terms

    def add(self, other):
        self._check(other)
        return Element(self.module, self.module.ring.collect(
            chain(self.terms.items(), other.terms.items())))

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, coeff):
        ring = self.module.ring
        coeff = ring.normalize(coeff)
        return Element(
            self.module, {n: ring.mul(c, coeff) for n, c in self.terms.items()}
        ).prune()

    def coeff(self, name):
        return self.terms.get(name, self.module.ring.zero)

    def eq(self, other):
        self._check(other)
        return self.prune().terms == other.prune().terms

    def degrees(self):
        return {self.module.degree(n) for n in self.terms}

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def the_degree(self):
        degs = self.degrees()
        if len(degs) != 1:
            raise ShapeError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def min_weight(self):
        """Filtration degree: the element lies in F^w for w = min term weight."""
        if not self.terms:
            return None
        return min(self.module.weight(n) for n in self.terms)

    def _check(self, other):
        if other.module is not self.module:
            raise ShapeError("elements live in different modules")

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: str(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{n}" for n, c in self.items_sorted())


class LinearMap:
    """Sparse degree-homogeneous linear map between graded modules."""

    def __init__(self, source, target, degree, entries=None):
        if source.ring is not target.ring and source.ring.spec() != target.ring.spec():
            raise ShapeError("source and target over different rings")
        self.source = source
        self.target = target
        self.degree = degree
        self.ring = target.ring
        self.entries = {}
        if entries:
            for src, row in entries.items():
                for tgt, c in row.items():
                    self.set(src, tgt, c)

    def set(self, src, tgt, coeff):
        coeff = self.ring.normalize(coeff)
        if self.ring.is_zero(coeff):
            return
        if self.target.degree(tgt) != self.source.degree(src) + self.degree:
            raise ShapeError(
                f"entry {src!r} -> {tgt!r} violates degree: "
                f"{self.source.degree(src)} + {self.degree} != {self.target.degree(tgt)}"
            )
        row = self.entries.setdefault(src, {})
        row[tgt] = self.ring.add(row.get(tgt, self.ring.zero), coeff)
        if self.ring.is_zero(row[tgt]):
            del row[tgt]
            if not row:
                del self.entries[src]

    def apply(self, x):
        if x.module is not self.source:
            raise ShapeError("element not in the source module")
        ring = self.ring
        return Element(self.target, ring.collect(
            (tgt, ring.mul(c, e))
            for n, c in x.terms.items()
            for tgt, e in self.entries.get(n, {}).items()))

    def apply_name(self, name):
        return Element(
            self.target, dict(self.entries.get(name, {}))
        ).prune()

    def compose(self, other):
        """self after other (source of self = target of other)."""
        if other.target is not self.source:
            raise ShapeError("maps not composable")
        out = LinearMap(other.source, self.target, self.degree + other.degree)
        for src, row in other.entries.items():
            for mid, c in row.items():
                for tgt, e in self.entries.get(mid, {}).items():
                    out.set(src, tgt, self.ring.mul(c, e))
        return out

    def add(self, other):
        if other.source is not self.source or other.target is not self.target:
            raise ShapeError("maps between different modules")
        if other.degree != self.degree:
            raise ShapeError("maps of different degrees")
        out = LinearMap(self.source, self.target, self.degree)
        for m in (self, other):
            for src, row in m.entries.items():
                for tgt, c in row.items():
                    out.set(src, tgt, c)
        return out

    def scale(self, coeff):
        out = LinearMap(self.source, self.target, self.degree)
        for src, row in self.entries.items():
            for tgt, c in row.items():
                out.set(src, tgt, self.ring.mul(c, coeff))
        return out

    def is_zero(self):
        return not self.entries

    def eq(self, other):
        return (
            self.degree == other.degree
            and self.source is other.source
            and self.target is other.target
            and self.entries == other.entries
        )

    @classmethod
    def identity(cls, module):
        m = cls(module, module, 0)
        for n in module.names:
            m.set(n, n, 1)
        return m


def koszul_sign_images(images, degrees):
    """Koszul sign of the permutation moving entry i into slot images[i].

    ``images`` is 1-based (images[i-1] = sigma(i)); ``degrees`` are the
    degrees of the entries in input order.  The sign counts inversions
    whose two entries both have odd degree.
    """
    if len(images) != len(degrees):
        raise ShapeError(
            f"permutation length {len(images)} != degree list length {len(degrees)}"
        )
    sign = 1
    n = len(images)
    for i in range(n):
        if degrees[i] % 2 == 0:
            continue
        for j in range(i + 1, n):
            if degrees[j] % 2 == 0:
                continue
            if images[i] > images[j]:
                sign = -sign
    return sign


def koszul_sign(perm, degrees):
    """Koszul sign of a Permutation acting on entries with given degrees."""
    return koszul_sign_images(perm.images, degrees)


def tensor_module(factors, weight_bound=None):
    """Tensor product of graded modules: basis = tuples, degree/weight add.

    Tuples whose total weight exceeds ``weight_bound`` are omitted; this
    truncation is the desk-scale stand-in for the completed tensor product.
    """
    if not factors:
        raise ShapeError("empty tensor product")
    ring = factors[0].ring
    for f in factors[1:]:
        if f.ring is not ring and f.ring.spec() != ring.spec():
            raise ShapeError("tensor factors over different rings")
    basis = []

    def rec(idx, name_acc, deg, wt):
        if weight_bound is not None and wt > weight_bound:
            return
        if idx == len(factors):
            basis.append(BasisElement(tuple(name_acc), deg, wt))
            return
        mod = factors[idx]
        for n, b in mod.basis.items():
            rec(idx + 1, name_acc + [n], deg + b.degree, wt + b.weight)

    rec(0, [], 0, 0)
    out_basis = []
    for b in basis:
        out_basis.append(BasisElement(b.name, b.degree, max(b.weight, 1)))
    return GradedModule(ring, out_basis)
