import random

import pytest

from helpers import coleibniz_defect, random_coderivation
from opmc.builders import ass_cochains, barratt_eccles, com_cochains
from opmc.cofree import (
    DEFAULT_BASIS_CAP,
    Coderivation,
    cofree_build,
    coderivation_extend,
    completeness_check,
    morphism_extend,
    square_check,
)
from opmc.errors import ResourceLimitError
from opmc.graded import BasisElement, GradedModule
from opmc.rings import Ring, ring_make

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
QQ = ring_make({"kind": "rationals"})


def make_V(ring, spec):
    return GradedModule(ring, [BasisElement(n, d, w) for n, d, w in spec])


@pytest.fixture(scope="module")
def assZ():
    return ass_cochains(Z, 3)


@pytest.fixture(scope="module")
def cfZ(assZ):
    C, _ = assZ
    V = make_V(Z, [("x", 0, 1), ("y", -1, 1)])
    return cofree_build(C, V, 3)


def random_element(cf, rng, n_terms=4):
    out = cf.module.zero()
    for _ in range(n_terms):
        key = rng.choice(cf.module.names)
        out = out.add(cf.module.gen(key, rng.randint(-2, 2)))
    return out


def test_basis_counts(assZ):
    C, _ = assZ
    V = make_V(Z, [("x", 0, 1)])
    cf = cofree_build(C, V, 3)
    # one orbit class per arity: unit, x, [12 (x) xx], [123 (x) xxx]
    assert len(cf.module) == 4
    cf2 = cofree_build(C, V, 2)
    assert len(cf2.module) == 3
    assert (0, C.unit_name, ()) in cf.module.basis


def test_unit_counit_tangent(cfZ):
    one = cfZ.unit()
    assert cfZ.counit_coefficient(one) == 1
    v = cfZ.V.gen("x", 3).add(cfZ.V.gen("y", -1))
    emb = cfZ.from_v(v)
    assert cfZ.counit_coefficient(emb) == 0
    assert cfZ.tangent(emb).eq(v)


def test_expand_collect_roundtrip(cfZ):
    for key in cfZ.module.names:
        x = cfZ.module.gen(key)
        back = cfZ.collect(cfZ.expand(x))
        assert back.eq(x), key


def test_expand_collect_roundtrip_divided():
    C, _ = com_cochains(QQ, 3)
    V = make_V(QQ, [("x", 0, 1), ("y", -1, 1)])
    cf = cofree_build(C, V, 3)
    # sorted keys only, and no odd-degree repeats
    assert (2, "c2", ("y", "y")) not in cf.module.basis
    assert (2, "c2", ("x", "y")) in cf.module.basis
    for key in cf.module.names:
        x = cf.module.gen(key)
        assert cf.collect(cf.expand(x)).eq(x), key


def test_collect_sums_each_arity_once(cfZ, monkeypatch):
    """``collect`` reads each arity present back with one ``Ring.collect``
    (``orbit_classes``) and sums nothing again: keys of different
    arities differ."""
    calls = []
    collect = Ring.collect
    monkeypatch.setattr(Ring, "collect", lambda self, items: calls.append(1)
                        or collect(self, items))
    x = cfZ.module.element((key, 1) for key in cfZ.module.names)
    plain = cfZ.expand(x)
    assert sorted(plain) == [0, 1, 2, 3]
    calls.clear()
    assert cfZ.collect(plain).eq(x)
    assert len(calls) == len(plain)


def test_decompose_counit_component(cfZ):
    # reading the counit component of decompose(x, 1) gives x back
    rng = random.Random(11)
    counit = cfZ.cooperad.counit_name
    for _ in range(10):
        x = random_element(cfZ, rng)
        got = cfZ.decompose(x, 1)
        assert Z.collect((keys[0], c) for (a, keys), c in got.items()
                         if a == counit) == x.terms


def test_decompose_unit_is_grouplike(cfZ):
    one = cfZ.unit()
    unit_key = (0, cfZ.cooperad.unit_name, ())
    for k in (2, 3):
        got = cfZ.decompose(one, k)
        eta = cfZ.cooperad.basis_names(k)
        assert got == {(a, (unit_key,) * k): 1 for a in eta}


def test_roundtrip_corestriction(assZ):
    # the tangent of the extension agrees with the plain evaluation of
    # the cogenerator data on every basis class
    rng = random.Random(5)
    for ring in (Z, Z2):
        Cr, _ = ass_cochains(ring, 3, validate=False)
        V = make_V(ring, [("x", 0, 1), ("y", -1, 1)])
        cf = cofree_build(Cr, V, 3)
        for t in range(8):
            Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
            Q = coderivation_extend(Qt)
            for key in cf.module.names:
                got = cf.tangent(Q.on_key(key))
                assert got.eq(Qt.value_on(cf.module.gen(key))), (ring, key)


def test_roundtrip_corestriction_divided():
    C, _ = com_cochains(QQ, 3)
    V = make_V(QQ, [("x", 0, 1), ("y", -1, 1)])
    cf = cofree_build(C, V, 3)
    rng = random.Random(7)
    for t in range(6):
        Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
        Q = coderivation_extend(Qt)
        for key in cf.module.names:
            got = cf.tangent(Q.on_key(key))
            assert got.eq(Qt.value_on(cf.module.gen(key))), key


def test_coleibniz(cfZ):
    # decompose_k(Q x) = sum_i +- (1 (x) .. Q_i .. ) decompose_k(x)
    rng = random.Random(13)
    for t in range(6):
        Qt = random_coderivation(cfZ, rng, curved=(t % 2 == 0))
        assert coleibniz_defect(cfZ, Qt, ks=(1, 2)) == [], t


def test_coleibniz_divided():
    # with the odd name a, the sign of the operator passing an odd prefix
    # reaches the sorted terms that are read back under the divided norm
    C, _ = com_cochains(QQ, 3)
    rng = random.Random(23)
    for spec in ([("x", 0, 1), ("y", -1, 1)],
                 [("a", 1, 1), ("x", 0, 1), ("y", -1, 1)]):
        cf = cofree_build(C, make_V(QQ, spec), 3)
        for t in range(4):
            Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
            assert coleibniz_defect(cf, Qt, ks=(1, 2, 3)) == [], (spec, t)


def test_coleibniz_e2_odd_cooperad_degrees():
    # E2 cochains over Z have cooperad names of odd degree, and a and b
    # give odd and even prefixes, so both signs of the operator show:
    # the inner factor passing the prefix, and Q passing outer and prefix
    C, _ = barratt_eccles(Z, 3, 2, n=2, validate=False)
    V = make_V(Z, [("x", 0, 1), ("a", 1, 1), ("y", -1, 2), ("b", 2, 1)])
    cf = cofree_build(C, V, 3)
    Qt = random_coderivation(cf, random.Random(5), curved=True, density=0.8)
    assert coleibniz_defect(cf, Qt, ks=(1, 2)) == []


def test_square_zero_by_degree(assZ):
    # with generators in degrees 0 and -1, any flat coderivation squares
    # to zero: the corestriction of Q o Q sits in too low a degree
    C, _ = assZ
    rng = random.Random(3)
    V = make_V(Z, [("x", 0, 1), ("y", -1, 1)])
    cf = cofree_build(C, V, 3)
    for _ in range(5):
        Qt = random_coderivation(cf, rng, curved=False)
        ok, witness = square_check(Qt)
        assert ok, witness


def test_square_detects_failure():
    C, _ = ass_cochains(Z2, 2, validate=False)
    V = make_V(Z2, [("a", 2, 1), ("b", 1, 1), ("c", 0, 1)])
    cf = cofree_build(C, V, 2)
    cu = C.counit_name
    comps = {
        (1, cu, ("a",)): V.gen("b"),
        (1, cu, ("b",)): V.gen("c"),
    }
    Qt = Coderivation(cf, comps)
    ok, witness = square_check(Qt)
    assert not ok
    assert witness[0] == (1, cu, ("a",))


def test_linear_part_is_tensor_differential(assZ):
    C, _ = assZ
    V = make_V(Z, [("x", 0, 1), ("y", 1, 1)])
    cf = cofree_build(C, V, 3)
    cu = C.counit_name
    Qt = Coderivation(cf, {(1, cu, ("y",)): V.gen("x")})
    Q = coderivation_extend(Qt)
    got = Q.on_key((2, "12", ("y", "y")))
    assert got.terms == {
        (2, "12", ("x", "y")): 1,
        (2, "12", ("y", "x")): -1,
    }


def test_curvature_inserts(assZ):
    C, _ = assZ
    V = make_V(Z, [("x", -1, 1), ("y", 0, 1)])
    cf = cofree_build(C, V, 3)
    cu = C.counit_name
    rho = V.gen("x")
    Qt = Coderivation(cf, {(0, C.unit_name, ()): rho})
    Q = coderivation_extend(Qt)
    # the unitary class flows to the curvature
    assert Q(cf.unit()).eq(cf.from_v(rho))
    # arity-1 classes gain arity-2 insertion terms
    got = Q.on_key((1, cu, ("y",)))
    assert any(k[0] == 2 for k in got.terms), got


def test_morphism_identity(cfZ):
    cu = cfZ.cooperad.counit_name
    g = {(1, cu, (vn,)): cfZ.V.gen(vn) for vn in cfZ.V.names}
    Phi = morphism_extend(g, cfZ, cfZ)
    assert Phi(cfZ.unit()).eq(cfZ.unit())
    rng = random.Random(17)
    for _ in range(5):
        x = random_element(cfZ, rng)
        assert Phi(x).eq(x)


def test_completeness_check(assZ):
    C, _ = assZ
    V = make_V(Z, [("x", -1, 1), ("z", 0, 2)])
    cf = cofree_build(C, V, 3)
    cu = C.counit_name
    good = Coderivation(cf, {(1, cu, ("x",)): V.zero()})
    assert completeness_check(good) == []
    bad = Coderivation(cf, {(1, cu, ("z",)): V.gen("x")})
    # the value x has weight 1 on a key whose v-tuple has weight 2
    assert completeness_check(bad) == [
        ("weight-violation", (1, cu, ("z",)), 1, 2)]


@pytest.mark.parametrize("build, names", [
    # the arity-3 tuples of the one representative pass the cap
    (lambda: ass_cochains(Z, 3, validate=False), 26),
    # each representative's tuples fit, all of arity 3 together do not
    (lambda: barratt_eccles(Z2, 3, 2, n=2, validate=False), 11),
], ids=["ass", "e2"])
def test_basis_cap(build, names):
    """A weight-1 cogenerator set of n names keys reps(r) * n^r classes
    in arity r; one name more than fits is refused."""
    C, _ = build()

    def rank(n):
        return 1 + sum(len(C.component(r).orbit_reps) * n ** r
                       for r in range(1, C.r_max + 1))

    def V(n):
        return make_V(C.ring, [(f"v{i}", 0, 1) for i in range(n)])

    assert rank(names) <= DEFAULT_BASIS_CAP < rank(names + 1)
    assert len(cofree_build(C, V(names), 3).module) == rank(names)
    with pytest.raises(ResourceLimitError, match=f"exceeds cap {DEFAULT_BASIS_CAP}"):
        cofree_build(C, V(names + 1), 3)
