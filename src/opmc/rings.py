"""Exact coefficient rings: Z, Z/m (m >= 2) and Q.

Scalars are plain Python values, normalized by the ring object: an int
for Z and Z/m; for Q an int for integral values, a reduced ``Fraction``
otherwise.  All arithmetic is exact; nothing here ever divides
implicitly.
"""

from fractions import Fraction
from math import gcd

from .errors import InvalidRingError, NonUnitError

_EXACT = (int, Fraction)  # scalar types that RationalRing combines directly


class Ring:
    """Handle exposing 0, 1 and exact arithmetic for one coefficient ring."""

    contains_rationals = False
    finite = False

    def __init__(self):
        self.zero = self.normalize(0)
        self.one = self.normalize(1)

    def normalize(self, x):
        raise NotImplementedError

    # An int pair takes one operation and one normalize.  Any other
    # operand is normalized first, so a str never meets Python's own
    # + or * (which would concatenate or repeat it).

    def add(self, a, b):
        if type(a) is not int or type(b) is not int:
            a, b = self.normalize(a), self.normalize(b)
        return self.normalize(a + b)

    def sub(self, a, b):
        if type(a) is not int or type(b) is not int:
            a, b = self.normalize(a), self.normalize(b)
        return self.normalize(a - b)

    def neg(self, a):
        if type(a) is not int:
            a = self.normalize(a)
        return self.normalize(-a)

    def mul(self, a, b):
        if type(a) is not int or type(b) is not int:
            a, b = self.normalize(a), self.normalize(b)
        return self.normalize(a * b)

    def is_zero(self, a):
        return self.normalize(a) == self.zero

    def collect(self, items):
        """Sum (key, coeff) pairs by key, normalize each sum once and drop
        the zeros; keys keep the order of their first term.

        The one sparse sum of the package.  It equals folding ``add``
        over each key's terms: an int term is summed as it is, any other
        term is normalized first, as ``add`` does.
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

    def is_unit(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def elements(self):
        """All ring elements; only available for finite rings."""
        raise NotImplementedError(f"{self} is not finite")

    def spec(self):
        raise NotImplementedError


class IntegerRing(Ring):
    def normalize(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise NonUnitError(f"{x} is not an integer")
            return int(x)
        return int(x)

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise NonUnitError(f"{a} is not a unit in Z")
        return a

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

    def is_unit(self, a):
        return gcd(self.normalize(a), self.modulus) == 1

    def inv(self, a):
        a = self.normalize(a)
        if not self.is_unit(a):
            raise NonUnitError(f"{a} is not a unit in Z/{self.modulus}")
        return pow(a, -1, self.modulus)

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
    or output.  An int pair takes Python's own + and *; int and
    ``Fraction`` operands run once and an integral result becomes an int;
    other operands (a str, say) are normalized first.
    """

    contains_rationals = True

    def normalize(self, x):
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        if type(a) is int and type(b) is int:
            return a + b
        if type(a) not in _EXACT or type(b) not in _EXACT:
            a, b = self.normalize(a), self.normalize(b)
        s = a + b
        return s.numerator if s.denominator == 1 else s

    def mul(self, a, b):
        if type(a) is int and type(b) is int:
            return a * b
        if type(a) not in _EXACT or type(b) not in _EXACT:
            a, b = self.normalize(a), self.normalize(b)
        p = a * b
        return p.numerator if p.denominator == 1 else p

    def is_zero(self, a):
        return a == 0 if type(a) in _EXACT else Fraction(a) == 0

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
