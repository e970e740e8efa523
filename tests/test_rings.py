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


def test_defining_relations():
    assert Z2.add(1, 1) == 0
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
    assert Z8.add(3, 5) == 0


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

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        if ring is Q and ring.is_unit(a):
            assert ring.mul(a, ring.inv(a)) == ring.one
            assert ring.mul(ring.inv(a), a) == ring.one


def test_mod_closed():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-100, 100), rng.randint(-100, 100)
        assert 0 <= Z8.add(a, b) < 8
        assert 0 <= Z8.mul(a, b) < 8


FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
SCALARS = st.one_of(st.integers(-10 ** 9, 10 ** 9), FRACTIONS, FRACTIONS.map(str))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=SCALARS, b=SCALARS)
def test_rational_fast_paths(a, b):
    """Q's own mul and normalize, and the add and is_zero it takes from
    Ring, agree with Fraction arithmetic on int, Fraction and str
    operands, and return an int exactly when the denominator is 1, a
    Fraction otherwise."""
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((Q.add(a, b), fa + fb), (Q.mul(a, b), fa * fb),
                      (Q.normalize(a), fa)):
        assert type(got) is (int if want.denominator == 1 else Fraction)
        assert got == want
    assert Q.is_zero(a) is (fa == 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=SCALARS, b=SCALARS)
def test_rational_results_are_never_floats(a, b):
    """Every Q operation returns an exact scalar in normal form: an int
    or a Fraction, never a float, whatever the operand forms."""
    results = [Q.add(a, b), Q.sub(a, b), Q.mul(a, b), Q.neg(a),
               Q.normalize(a), *Q.collect([("k", a), ("k", b), ("j", a)]).values()]
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
    for ring in (Z, Z2, Z8):
        for op in ("add", "mul", "is_zero"):
            assert getattr(type(ring), op) is getattr(Ring, op)


def test_str_operands_are_normalized_first():
    # Python's own + and * on str operands would concatenate or repeat
    Z5 = ring_make({"kind": "integers-mod-m", "modulus": 5})
    assert Z.add("1", "2") == 3
    assert Z.mul(2, "3") == 6
    assert Z5.add("1", "2") == 3
    assert Z.sub("5", "7") == -2 and Z.neg("4") == -4
    assert Z5.mul("3", "4") == 2 and Z5.neg("1") == 4
    assert Q.sub("1/2", "1/3") == Fraction(1, 6) and Q.neg("1/2") == Fraction(-1, 2)
    for ring in (Z, Z5):
        for got in (ring.add("1", "2"), ring.mul(2, "3"), ring.sub(Fraction(4), "1")):
            assert type(got) is int


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
    """Associativity, commutativity, distributivity, units and neg on
    int, Fraction and str operands, each result checked against plain
    rational arithmetic and in the ring's normal form."""
    values, forms = _operand_domain(ring)
    raw = [data.draw(values) for _ in range(3)]
    a, b, c = (_operand(v, data.draw(st.sampled_from(forms))) for v in raw)
    fa, fb, fc = (Fraction(v) for v in raw)

    def check(got, want):
        want = _oracle(ring, want)
        assert _is_scalar(ring, got) and type(got) is type(want)
        assert got == want

    check(ring.add(a, b), fa + fb)
    check(ring.sub(a, b), fa - fb)
    check(ring.mul(a, b), fa * fb)
    check(ring.neg(a), -fa)
    check(ring.add(ring.add(a, b), c), fa + fb + fc)
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(ring.add(a, b), c) == ring.add(ring.mul(a, c), ring.mul(b, c))
    assert ring.add(a, ring.zero) == ring.normalize(a) == ring.mul(ring.one, a)
    assert ring.add(a, ring.neg(a)) == ring.zero
    assert ring.sub(a, b) == ring.add(a, ring.neg(b))
    assert ring.neg(ring.neg(a)) == ring.normalize(a)


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_collect_is_the_add_fold(ring, data):
    """collect sums like folding ``add`` per key and dropping the zeros:
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
        fold[key] = ring.add(fold.get(key, ring.zero), c)
    fold = {key: c for key, c in fold.items() if not ring.is_zero(c)}
    got = ring.collect(items)
    assert list(got) == list(fold) and got == fold
    assert all(_is_scalar(ring, c) for c in got.values())
    want = {}
    for key, c in items:
        want[key] = want.get(key, 0) + Fraction(c)
    assert got == {key: _oracle(ring, s) for key, s in want.items()
                   if _oracle(ring, s) != 0}
