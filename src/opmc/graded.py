"""Finitely generated free graded modules with weights, Koszul signs,
sparse elements and linear maps.

Degrees are homological (differentials have degree -1).  The weight of a
basis element is its filtration index: weight w means the element spans
F^w but not F^(w+1).  Completion is realized as truncation at a global
weight bound, so every construction downstream is exact modulo classes of
weight exceeding that bound.

Normal form.  The terms of an ``Element`` and the rows of a ``LinearMap``
hold only nonzero scalars in the ring's normal form (int for Z and Z/m,
reduced into 0..m-1 for Z/m; for Q an int for integral values, a reduced
``Fraction`` otherwise).  The invariant is
established where terms are made, and nowhere read back: terms from
outside go through ``GradedModule.element`` and map entries through the
``LinearMap`` constructor, both summed by ``Ring.collect``; every
operation here builds its result in normal form directly or through
``collect``.  ``Element.__init__`` trusts its terms, so reads never
re-normalise, and neither class has a mutator.
"""

from itertools import chain

from .errors import ShapeError

__all__ = [
    "BasisElement",
    "GradedModule",
    "Element",
    "LinearMap",
    "koszul_sign_images",
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
        """The element with ``terms``, a mapping or (name, coeff) pairs:
        summed per name, normalised and without zeros."""
        return Element(self, self.ring.collect(_items(terms)))

    def zero(self):
        return Element(self, {})

    def gen(self, name, coeff=1):
        coeff = self.ring.normalize(coeff)
        return Element(self, {name: coeff} if coeff else {})

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.basis


def _items(terms):
    """The (key, coeff) pairs of a mapping, or the pairs themselves."""
    return terms.items() if isinstance(terms, dict) else terms


class Element:
    """Sparse element: mapping basis name -> nonzero normal scalar.

    Never mutated; ``terms`` must already be in normal form.
    """

    __slots__ = ("module", "terms")

    def __init__(self, module, terms):
        self.module = module
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def add(self, other):
        self._check(other)
        return Element(self.module, self.module.ring.collect(
            chain(self.terms.items(), other.terms.items())))

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, coeff):
        mul = self.module.ring.mul
        # a product vanishes when coeff does, or over Z/m at a zero divisor
        return Element(self.module, {n: p for n, c in self.terms.items()
                                     if (p := mul(c, coeff))})

    def coeff(self, name):
        return self.terms.get(name, self.module.ring.zero)

    def eq(self, other):
        self._check(other)
        return self.terms == other.terms

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
    """Sparse degree-homogeneous linear map between graded modules.

    ``entries`` are ((src, tgt), coeff) pairs, or a mapping of them,
    summed once at construction; the map is never mutated after.
    """

    def __init__(self, source, target, degree, entries=()):
        if source.ring is not target.ring and source.ring.spec() != target.ring.spec():
            raise ShapeError("source and target over different rings")
        self.source = source
        self.target = target
        self.degree = degree
        self.ring = target.ring
        self.entries = {}
        for (src, tgt), c in self.ring.collect(_items(entries)).items():
            if target.degree(tgt) != source.degree(src) + degree:
                raise ShapeError(
                    f"entry {src!r} -> {tgt!r} violates degree: "
                    f"{source.degree(src)} + {degree} != {target.degree(tgt)}"
                )
            self.entries.setdefault(src, {})[tgt] = c

    def pairs(self):
        """The nonzero entries as ((src, tgt), coeff) pairs."""
        return (((src, tgt), c) for src, row in self.entries.items()
                for tgt, c in row.items())

    def apply(self, x):
        if x.module is not self.source:
            raise ShapeError("element not in the source module")
        ring = self.ring
        return Element(self.target, ring.collect(
            (tgt, ring.mul(c, e))
            for n, c in x.terms.items()
            for tgt, e in self.entries.get(n, {}).items()))

    def apply_name(self, name):
        """The image of a basis name; it shares the stored row."""
        return Element(self.target, self.entries.get(name, {}))

    def compose(self, other):
        """self after other (source of self = target of other)."""
        if other.target is not self.source:
            raise ShapeError("maps not composable")
        mul = self.ring.mul
        return LinearMap(other.source, self.target, self.degree + other.degree, (
            ((src, tgt), mul(c, e))
            for (src, mid), c in other.pairs()
            for tgt, e in self.entries.get(mid, {}).items()))

    def add(self, other):
        if other.source is not self.source or other.target is not self.target:
            raise ShapeError("maps between different modules")
        if other.degree != self.degree:
            raise ShapeError("maps of different degrees")
        return LinearMap(self.source, self.target, self.degree,
                         chain(self.pairs(), other.pairs()))

    def scale(self, coeff):
        mul = self.ring.mul
        return LinearMap(self.source, self.target, self.degree,
                         ((key, mul(c, coeff)) for key, c in self.pairs()))

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
        return cls(module, module, 0, (((n, n), 1) for n in module.names))


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
