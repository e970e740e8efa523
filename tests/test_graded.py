import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opmc.errors import ShapeError
from opmc.graded import (
    BasisElement,
    GradedModule,
    LinearMap,
    koszul_sign_images,
)
from opmc.rings import ring_make
from opmc import symmetric
from opmc.symmetric import all_permutations, permute_slots
from helpers import compose, map_identity, map_pairs, sub
from test_rings import (AXIOM_RINGS, _is_scalar, _operand, _operand_domain,
                        _oracle)

Z = ring_make({"kind": "integers"})


def simple_module(degs_weights):
    return GradedModule(
        Z,
        [BasisElement(f"b{i}", d, w) for i, (d, w) in enumerate(degs_weights)],
    )


def test_koszul_sign_basics():
    assert koszul_sign_images((2, 1), (1, 1)) == -1
    assert koszul_sign_images((2, 1), (1, 2)) == 1
    assert koszul_sign_images((1, 2, 3), (1, 1, 1)) == 1


def test_koszul_sign_length_mismatch():
    with pytest.raises(ShapeError):
        koszul_sign_images((1, 2), (1,))


def test_koszul_sign_homomorphism():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 5)
        degs = tuple(rng.randint(-2, 3) for _ in range(n))
        perms = all_permutations(n)
        s, t = rng.choice(perms), rng.choice(perms)
        st = symmetric.compose(s, t)
        # sign of the composite equals sign of t then s acting on the permuted degrees
        permuted = permute_slots(t, degs)
        assert koszul_sign_images(st, degs) == (
            koszul_sign_images(t, degs) * koszul_sign_images(s, permuted))


def test_linmap_identity_compose_zero():
    m = simple_module([(0, 1), (1, 1)])
    ident = map_identity(m)
    x = m.gen("b1", 3)
    assert ident.apply(x).eq(x)
    zero = LinearMap(m, m, -1)
    assert zero.apply(x).is_zero()
    d = LinearMap(m, m, -1, {("b1", "b0"): 1})
    assert compose(d, ident).degree == -1
    assert compose(ident, d).degree == -1


def test_linmap_degree_enforced():
    m = simple_module([(0, 1), (1, 1)])
    with pytest.raises(ShapeError):
        LinearMap(m, m, 0, {("b1", "b0"): 1})


def test_differential_squares_to_zero():
    m = simple_module([(0, 1), (1, 1), (2, 1)])
    # the zero entry is dropped
    d = LinearMap(m, m, -1, {("b2", "b1"): 2, ("b1", "b0"): 0})
    assert d.entries == {"b2": {"b1": 2}}
    assert compose(d, d).entries == {}


def test_element_arith():
    m = simple_module([(0, 1), (0, 1)])
    x = m.gen("b0", 2).add(m.gen("b1", 3))
    y = sub(x, x)
    assert y.is_zero()
    assert x.scale(0).is_zero()
    assert x.coeff("b1") == 3


def test_permute_slots_convention():
    # sigma = (1 2) as images (2, 1): entry 1 goes to slot 2
    assert permute_slots((2, 1), ("a", "b")) == ("b", "a")
    # 1->2, 2->3, 3->1
    assert permute_slots((2, 3, 1), ("x", "y", "z")) == ("z", "x", "y")


NAMES = ("a", "b", "c")
PAIRS = tuple((s, t) for s in NAMES for t in NAMES)


def _draw_terms(data, ring, keys):
    """(key, scalar) pairs in int, Fraction and str forms, with repeated
    keys and some cancelling copies, and their exact sums per key."""
    values, forms = _operand_domain(ring)
    pairs = data.draw(st.lists(st.tuples(
        st.sampled_from(keys), values, st.sampled_from(forms)), max_size=8))
    items = [(key, _operand(v, form)) for key, v, form in pairs]
    for key, v, form in data.draw(st.lists(st.sampled_from(pairs), max_size=3)
                                  if pairs else st.just([])):
        items.append((key, _operand(-v, form)))
    exact = {}
    for key, c in items:
        exact[key] = exact.get(key, 0) + Fraction(c)
    return items, exact


def _assert_normal(ring, terms, exact):
    """``terms`` are ``exact`` reduced into the ring, zero-free, and each
    scalar is in the ring's normal form."""
    want = {key: _oracle(ring, s) for key, s in exact.items()}
    assert terms == {key: c for key, c in want.items() if c != 0}
    for c in terms.values():
        assert c and _is_scalar(ring, c)


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=repr)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_operations_return_normal_form(ring, data):
    """Elements and maps hold normalised, zero-free terms from
    construction on, equal to plain rational arithmetic reduced mod m."""
    M = GradedModule(ring, [BasisElement(n, 0) for n in NAMES])
    (x_items, x), (y_items, y) = (_draw_terms(data, ring, NAMES)
                                  for _ in range(2))
    (f_items, f), (g_items, g) = (_draw_terms(data, ring, PAIRS)
                                  for _ in range(2))
    values, forms = _operand_domain(ring)
    k = data.draw(values)
    X, Y = M.element(x_items), M.element(y_items)
    F, G = LinearMap(M, M, 0, f_items), LinearMap(M, M, 0, g_items)

    def fold(*parts):
        out = {}
        for key, c in parts:
            out[key] = out.get(key, 0) + c
        return out

    _assert_normal(ring, X.terms, x)
    _assert_normal(ring, X.add(Y).terms, fold(*x.items(), *y.items()))
    _assert_normal(ring, sub(X, Y).terms,
                   fold(*x.items(), *((n, -c) for n, c in y.items())))
    _assert_normal(ring, X.scale(_operand(k, data.draw(st.sampled_from(forms)))).terms,
                   {n: c * Fraction(k) for n, c in x.items()})
    _assert_normal(ring, dict(map_pairs(F)), f)
    assert all(F.entries.values())
    _assert_normal(ring, F.apply(X).terms, fold(*(
        (t, c * e) for n, c in x.items() for (s, t), e in f.items() if s == n)))
    for n in NAMES:
        _assert_normal(ring, F.apply_name(n).terms,
                       {t: e for (s, t), e in f.items() if s == n})
    _assert_normal(ring, dict(map_pairs(compose(F, G))), fold(*(
        ((s, t), c * e) for (s, m), c in g.items()
        for (m2, t), e in f.items() if m2 == m)))


def test_element_normalises_its_terms():
    Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
    V = GradedModule(Z2, [BasisElement("x", 0), BasisElement("y", 0)])
    assert V.element({"x": 2, "y": 3}).terms == {"y": 1}
