"""Exact coefficient rings: Z, Z/m (m >= 2) and Q.

Scalars are plain Python values (int for Z and Z/m, Fraction for Q),
normalized by the ring object.  All arithmetic is exact; nothing here
ever divides implicitly.
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

    def eq(self, a, b):
        return self.normalize(a) == self.normalize(b)

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
    """Q, with ``Fraction`` scalars.

    ``Fraction`` arithmetic already returns reduced fractions, so on int
    and ``Fraction`` operands each operation runs once and its result is
    wrapped only when it is an int; other operands (a str, say) are
    converted one by one first.
    """

    contains_rationals = True

    def normalize(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        if type(a) in _EXACT and type(b) in _EXACT:
            s = a + b
            return s if type(s) is Fraction else Fraction(s)
        return Fraction(a) + Fraction(b)

    def mul(self, a, b):
        if type(a) in _EXACT and type(b) in _EXACT:
            p = a * b
            return p if type(p) is Fraction else Fraction(p)
        return Fraction(a) * Fraction(b)

    def is_zero(self, a):
        return a == 0 if type(a) in _EXACT else Fraction(a) == 0

    def is_unit(self, a):
        return Fraction(a) != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise NonUnitError("0 is not a unit in Q")
        return 1 / Fraction(a)

    def spec(self):
        return {"kind": "rationals"}

    def __repr__(self):
        return "Q"


def ring_make(spec):
    """Build a ring handle from a spec dict {"kind": ..., "modulus"?: m}."""
    kind = spec.get("kind")
    if kind == "integers":
        return IntegerRing()
    if kind == "integers-mod-m":
        if "modulus" not in spec:
            raise InvalidRingError("integers-mod-m requires a modulus")
        return ModularRing(spec["modulus"])
    if kind == "rationals":
        return RationalRing()
    raise InvalidRingError(f"unknown ring kind {kind!r}")

