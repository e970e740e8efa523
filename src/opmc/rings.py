"""Exact coefficient rings: Z, Z/m (m >= 2) and Q.

Scalars are plain Python values, normalized by the ring object: an int
for Z and Z/m; for Q an int for integral values, a reduced ``Fraction``
otherwise.  A ring handle does no arithmetic.  Kernels multiply, add and
negate normal values with Python's own ``*``, ``+`` and ``-``, exact on
ints and Fractions, and reduce once: in ``collect``, or with
``normalize`` where a value is stored, compared or returned.  That is
sound because ``normalize`` is a ring homomorphism: normalize(a + b) =
normalize(normalize(a) + normalize(b)), and the same for *.  A str
operand (a scalar as written in a file, say) is normalized on the way
in, so it never meets Python's + or *.  Nothing here divides
implicitly.
"""

from fractions import Fraction

from .errors import InvalidRingError, NonUnitError


class Ring:
    """Handle exposing 0, 1, the normal form and the sparse sum of one
    coefficient ring.

    Each subclass defines ``normalize`` and ``spec``; ``RationalRing``
    alone has ``is_unit`` and ``inv``, for the norm map of
    ``TrivialModule``.
    """

    contains_rationals = False
    finite = False

    def __init__(self):
        self.zero = self.normalize(0)
        self.one = self.normalize(1)

    def collect(self, items):
        """Sum (key, coeff) pairs by key, normalize each sum once and drop
        the zeros; keys keep the order of their first term.

        The one sparse sum of the package, and its one reduction point:
        a term may be any product of normal values (say a ``Fraction``
        that is integral, or an int outside 0..m-1), since ``normalize``
        is a ring homomorphism.  An int term is summed as it is; any
        other term is normalized first, so a str never meets Python's +.
        """
        normalize = self.normalize
        acc = {}
        get = acc.get
        for key, c in items:
            if type(c) is not int:
                c = normalize(c)
            acc[key] = get(key, 0) + c
        out = {}
        for key, s in acc.items():
            s = normalize(s)
            if s:
                out[key] = s
        return out


class IntegerRing(Ring):
    def normalize(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise NonUnitError(f"{x} is not an integer")
            return int(x)
        return int(x)

    def spec(self):
        return {"kind": "integers"}

    def __repr__(self):
        return "Z"


class ModularRing(Ring):
    finite = True

    def __init__(self, modulus):
        if not isinstance(modulus, int) or modulus < 2:
            raise InvalidRingError(f"modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = modulus
        super().__init__()

    def normalize(self, x):
        return int(x) % self.modulus

    def elements(self):
        return list(range(self.modulus))

    def spec(self):
        return {"kind": "integers-mod-m", "modulus": self.modulus}

    def __repr__(self):
        return f"Z/{self.modulus}"


class RationalRing(Ring):
    """Q: an int for integral values, a reduced ``Fraction`` otherwise.

    Each rational has exactly one such form, and ``Fraction(n)`` equals,
    hashes and prints as ``n``, so the form never shows in keys, equality
    or output.  A product of Fractions that is integral stays a
    ``Fraction`` until it is normalized.
    """

    contains_rationals = True

    def normalize(self, x):
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def is_unit(self, a):
        return Fraction(a) != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise NonUnitError("0 is not a unit in Q")
        return self.normalize(1 / Fraction(a))

    def spec(self):
        return {"kind": "rationals"}

    def __repr__(self):
        return "Q"


_SHARED = {}  # repr -> the one handle of that ring


def ring_make(spec):
    """The ring handle of a spec dict {"kind": ..., "modulus"?: m}.

    The spec is validated first, by building a handle; then every spec of
    one ring returns the same object, so the memos keyed on the ring
    object (the simplex complexes and their maps) hit across loads.  A
    handle holds no mutable state, so sharing it is safe.
    """
    kind = spec.get("kind")
    if kind == "integers":
        ring = IntegerRing()
    elif kind == "integers-mod-m":
        if "modulus" not in spec:
            raise InvalidRingError("integers-mod-m requires a modulus")
        ring = ModularRing(spec["modulus"])
    elif kind == "rationals":
        ring = RationalRing()
    else:
        raise InvalidRingError(f"unknown ring kind {kind!r}")
    return _SHARED.setdefault(repr(ring), ring)
