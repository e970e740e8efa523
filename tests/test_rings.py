import ast
import random

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opmc.errors import InvalidRingError, NonUnitError
from opmc.rings import Ring, ring_make


Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
Z8 = ring_make({"kind": "integers-mod-m", "modulus": 8})
Q = ring_make({"kind": "rationals"})


# A ring handle does no arithmetic: a kernel applies Python's + and * to
# normal values and normalizes once.  These three are that rule, with
# each operand normalized first as an entry point does, and are what
# the laws below are checked on.

def _plus(ring, a, b):
    return ring.normalize(ring.normalize(a) + ring.normalize(b))


def _times(ring, a, b):
    return ring.normalize(ring.normalize(a) * ring.normalize(b))


def _minus(ring, a):
    return ring.normalize(-ring.normalize(a))


def test_defining_relations():
    assert _plus(Z2, 1, 1) == 0
    assert Q.contains_rationals
    assert not Z.contains_rationals and not Z8.contains_rationals


def test_invalid_modulus():
    with pytest.raises(InvalidRingError):
        ring_make({"kind": "integers-mod-m", "modulus": 1})
    with pytest.raises(InvalidRingError):
        ring_make({"kind": "integers-mod-m"})
    with pytest.raises(InvalidRingError):
        ring_make({"kind": "reals"})
    # validated before the shared handles are looked up: no TypeError
    for bad in ([5], True, False, 1, "5", 2.0):
        with pytest.raises(InvalidRingError):
            ring_make({"kind": "integers-mod-m", "modulus": bad})


def test_one_handle_per_ring():
    for spec in ({"kind": "integers"}, {"kind": "rationals"},
                 {"kind": "integers-mod-m", "modulus": 6}):
        assert ring_make(dict(spec)) is ring_make(dict(spec))
    assert ring_make({"kind": "integers-mod-m", "modulus": 2}) is Z2
    assert ring_make({"kind": "integers-mod-m", "modulus": 3}) is not Z2


def test_mod8_arith():
    assert _plus(Z8, 3, 5) == 0


def test_nonunit_errors():
    with pytest.raises(NonUnitError):
        Q.inv(0)


def test_normalization():
    assert Z8.normalize(-1) == 7
    assert Q.normalize("2/4") == Fraction(1, 2)
    assert Z.normalize(Fraction(4, 2)) == 2


@pytest.mark.parametrize("ring", [Z, Z2, Z8, Q], ids=["Z", "Z2", "Z8", "Q"])
def test_ring_axioms_random(ring):
    rng = random.Random(7)

    def rand():
        if ring.contains_rationals:
            return ring.normalize(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        return ring.normalize(rng.randint(-50, 50))

    def add(a, b):
        return _plus(ring, a, b)

    def mul(a, b):
        return _times(ring, a, b)

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, ring.zero) == a
        assert mul(a, ring.one) == a
        assert add(a, _minus(ring, a)) == ring.zero
        if ring is Q and ring.is_unit(a):
            assert mul(a, ring.inv(a)) == ring.one
            assert mul(ring.inv(a), a) == ring.one


def test_mod_closed():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-100, 100), rng.randint(-100, 100)
        assert 0 <= _plus(Z8, a, b) < 8
        assert 0 <= _times(Z8, a, b) < 8


FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
SCALARS = st.one_of(st.integers(-10 ** 9, 10 ** 9), FRACTIONS, FRACTIONS.map(str))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=SCALARS, b=SCALARS)
def test_rational_fast_paths(a, b):
    """Over Q, Python's + and * on normal values, normalized once, and
    ``normalize`` itself agree with Fraction arithmetic on int, Fraction
    and str operands, and return an int exactly when the denominator is
    1, a Fraction otherwise; a value is zero exactly when its normal
    form is falsy."""
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((_plus(Q, a, b), fa + fb), (_times(Q, a, b), fa * fb),
                      (Q.normalize(a), fa)):
        assert type(got) is (int if want.denominator == 1 else Fraction)
        assert got == want
    assert (not Q.normalize(a)) is (fa == 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=SCALARS, b=SCALARS)
def test_rational_results_are_never_floats(a, b):
    """Every Q result returns an exact scalar in normal form: an int or
    a Fraction, never a float, whatever the operand forms."""
    results = [_plus(Q, a, b), _plus(Q, a, _minus(Q, b)), _times(Q, a, b),
               _minus(Q, a), Q.normalize(a),
               *Q.collect([("k", a), ("k", b), ("j", a)]).values()]
    for x in (a, b):
        if Q.is_unit(x):
            results.append(Q.inv(x))
    for got in results:
        assert type(got) in (int, Fraction) and _is_scalar(Q, got)


SRC = Path(__file__).parent.parent / "src" / "opmc"


def _true_divisions(tree):
    """The enclosing class and function names of each true division
    (``/`` or ``/=``) in a module's syntax tree."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, (ast.BinOp, ast.AugAssign))
                  and isinstance(child.op, ast.Div)):
                found.append(".".join(scope))
            walk(child, inner)

    walk(tree, ())
    return found


def test_only_rational_inv_divides():
    """With ints as Q scalars a stray ``/`` would make a float, so the
    one true division of the package is the one in ``RationalRing.inv``."""
    found = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in _true_divisions(ast.parse(path.read_text("utf-8")))]
    assert found == [("rings.py", "RationalRing.inv")]


def test_only_q_specialises():
    """No ring class does arithmetic: kernels use Python's operators and
    ``normalize``.  Only Q adds ``is_unit`` and ``inv``."""
    for cls in (Ring, type(Z), type(Z2), type(Q)):
        for op in ("add", "sub", "neg", "mul", "is_zero"):
            assert not hasattr(cls, op), (cls.__name__, op)
    assert [cls.__name__ for cls in (type(Z), type(Z2), type(Q))
            if hasattr(cls, "inv") or hasattr(cls, "is_unit")] == ["RationalRing"]


def test_str_operands_are_normalized_first():
    # Python's own + and * on str operands would concatenate or repeat
    Z5 = ring_make({"kind": "integers-mod-m", "modulus": 5})
    assert _plus(Z, "1", "2") == 3
    assert _times(Z, 2, "3") == 6
    assert _plus(Z5, "1", "2") == 3
    assert _plus(Z, "5", _minus(Z, "7")) == -2 and _minus(Z, "4") == -4
    assert _times(Z5, "3", "4") == 2 and _minus(Z5, "1") == 4
    assert _plus(Q, "1/2", _minus(Q, "1/3")) == Fraction(1, 6)
    assert _minus(Q, "1/2") == Fraction(-1, 2)
    for ring in (Z, Z5):
        for got in (_plus(ring, "1", "2"), _times(ring, 2, "3"),
                    _plus(ring, Fraction(4), _minus(ring, "1"))):
            assert type(got) is int
        # collect, the one sum of the package, normalizes a str term first
        assert ring.collect([("k", "1"), ("j", "4"), ("k", "2")]) == \
            {"k": 3, "j": 4}


AXIOM_RINGS = [Z] + [ring_make({"kind": "integers-mod-m", "modulus": m})
                     for m in (2, 3, 4, 6)] + [Q]


def _operand(value, form):
    """``value`` as an int, a Fraction or a str; the int form of a value
    that is not integral is its Fraction."""
    if form == "int" and Fraction(value).denominator != 1:
        form = "fraction"
    return {"int": int, "fraction": Fraction, "str": str}[form](value)


def _operand_domain(ring):
    """Exact values and the operand forms they are drawn in: integers,
    and over Q fractions too."""
    ints = st.integers(-10 ** 6, 10 ** 6)
    values = st.one_of(ints, FRACTIONS) if ring.contains_rationals else ints
    return values, ("int", "fraction", "str")


def _oracle(ring, value):
    """The normalized ring element of an exact rational, computed apart
    from the ring's own arithmetic: over Q an int when it is integral."""
    if ring.contains_rationals:
        f = Fraction(value)
        return f.numerator if f.denominator == 1 else f
    if isinstance(ring, type(Z)):
        return int(value)
    return int(value) % ring.modulus


def _is_scalar(ring, c):
    """``c`` is a fixed point of ``ring.normalize``, type included."""
    n = ring.normalize(c)
    return type(c) is type(n) and c == n


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_ring_axioms_on_mixed_operands(ring, data):
    """``normalize`` is a ring homomorphism: normalize(a o b) equals
    normalize(normalize(a) o normalize(b)) for + and *, and the same for
    negation, on int, Fraction and str operands, each result checked
    against plain rational arithmetic and in the ring's normal form.
    The ring laws then hold for Python's operators normalized once:
    associativity, commutativity, distributivity, units and negatives."""
    values, forms = _operand_domain(ring)
    raw = [data.draw(values) for _ in range(3)]
    a, b, c = (_operand(v, data.draw(st.sampled_from(forms))) for v in raw)
    fa, fb, fc = (Fraction(v) for v in raw)

    def check(got, want):
        want = _oracle(ring, want)
        assert _is_scalar(ring, got) and type(got) is type(want)
        assert got == want

    def add(x, y):
        return _plus(ring, x, y)

    def mul(x, y):
        return _times(ring, x, y)

    def neg(x):
        return _minus(ring, x)

    # the homomorphism, against the normal form of the exact result
    if str not in (type(a), type(b)):
        # unnormalized operands: Python's own operators, normalized once
        assert ring.normalize(a + b) == add(a, b)
        assert ring.normalize(a * b) == mul(a, b)
        assert ring.normalize(-a) == neg(a)
    check(add(a, b), fa + fb)
    check(add(a, neg(b)), fa - fb)
    check(mul(a, b), fa * fb)
    check(neg(a), -fa)
    check(add(add(a, b), c), fa + fb + fc)
    check(mul(mul(a, b), c), fa * fb * fc)
    # the laws
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert add(a, ring.zero) == ring.normalize(a) == mul(ring.one, a)
    assert add(a, neg(a)) == ring.zero
    assert neg(neg(a)) == ring.normalize(a)


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_collect_is_the_add_fold(ring, data):
    """collect sums like folding normalized + per key and dropping the
    zeros:
    the same keys in first-term order, the same values, in normal form,
    on int, Fraction and str operands with repeated keys."""
    values, forms = _operand_domain(ring)
    # few keys, so most keys repeat; some repeated terms cancel
    pairs = data.draw(st.lists(st.tuples(
        st.sampled_from("abcde"), values, st.sampled_from(forms)), max_size=12))
    items = [(key, _operand(v, form)) for key, v, form in pairs]
    for key, v, form in data.draw(st.lists(st.sampled_from(pairs), max_size=3)
                                  if pairs else st.just([])):
        items.append((key, _operand(-v, form)))
    fold = {}
    for key, c in items:
        fold[key] = _plus(ring, fold.get(key, ring.zero), c)
    fold = {key: c for key, c in fold.items() if c}
    got = ring.collect(items)
    assert list(got) == list(fold) and got == fold
    assert all(_is_scalar(ring, c) for c in got.values())
    want = {}
    for key, c in items:
        want[key] = want.get(key, 0) + Fraction(c)
    assert got == {key: _oracle(ring, s) for key, s in want.items()
                   if _oracle(ring, s) != 0}
