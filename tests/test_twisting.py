import itertools
import math
import random

import pytest

from helpers import rand_scalar, random_coderivation
from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    com_cochains,
    perm_from_name,
)
from opmc.cofree import Coderivation, cofree_build, square_check
from opmc import twisting
from opmc.errors import InternalCheckError, ResourceLimitError, UnsupportedError
from opmc.graded import BasisElement, GradedModule
from opmc.rings import ring_make
from opmc.twisting import (
    exp_element,
    is_mc,
    mc_enumerate,
    mc_residual,
    one_param,
    shuffle,
    twist,
)

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
Z8 = ring_make({"kind": "integers-mod-m", "modulus": 8})
QQ = ring_make({"kind": "rationals"})


def make_cf(ring, r_max=3, w_max=3, spec=(("x", 0, 1), ("y", -1, 2)),
            build=ass_cochains):
    # y has weight 2 so that random complete coderivations carry honest
    # arity-2 components (weight additivity allows (x,x) -> y)
    C, H = build(ring, r_max, validate=False)
    V = GradedModule(ring, [BasisElement(n, d, w) for n, d, w in spec])
    return H, cofree_build(C, V, w_max)


def random_element(cf, rng, n_terms=4, keys=None):
    out = cf.module.zero()
    for _ in range(n_terms):
        key = rng.choice(keys or cf.module.names)
        out = out.add(cf.module.gen(key, rng.randint(-2, 2)))
    return out


def coderivations_equal(A, B):
    keys = set(A.comps) | set(B.comps)
    return all(A.component(k).eq(B.component(k)) for k in keys)


def test_shuffle_unit():
    H, cf = make_cf(Z)
    one = cf.unit()
    rng = random.Random(1)
    for _ in range(6):
        x = random_element(cf, rng)
        assert shuffle(H, cf, one, x).eq(x)
        assert shuffle(H, cf, x, one).eq(x)


def test_shuffle_associativity():
    rng = random.Random(2)
    H, cf = make_cf(Z)
    for _ in range(5):
        x, y, z = (random_element(cf, rng, 3) for _ in range(3))
        lhs = shuffle(H, cf, shuffle(H, cf, x, y), z)
        rhs = shuffle(H, cf, x, shuffle(H, cf, y, z))
        assert lhs.eq(rhs)


def shuffle_decomposed(H, cf, x, y, k):
    """decompose_k(x * y) from decompose_k(x) and decompose_k(y).

    The shuffle product is a coalgebra map: reorder a, K_1..K_k, b,
    L_1..L_k to (a b), (K_1 L_1)..(K_k L_k) with Koszul signs, multiply
    the outer factors with mu_k and shuffle the blocks pairwise.
    """
    ring = cf.ring
    C = cf.cooperad
    deg = cf.module.degree
    out = {}
    for (a, Ks), ca in cf.decompose(x, k).items():
        for (b, Ls), cb in cf.decompose(y, k).items():
            odd = C.degree(k, b) * sum(deg(K) for K in Ks)
            for i in range(k):
                odd += deg(Ls[i]) * sum(deg(K) for K in Ks[i + 1:])
            coeff = ring.normalize(ca * cb * (-1 if odd % 2 else 1))
            mod = C.component(k).module
            mu = H.multiply(k, mod.gen(a), mod.gen(b))
            blocks = [shuffle(H, cf, cf.module.gen(K), cf.module.gen(L))
                      for K, L in zip(Ks, Ls)]
            for combo in itertools.product(
                    *[list(blk.terms.items()) for blk in blocks]):
                keys = tuple(key for key, _ in combo)
                if sum(cf.module.weight(key) for key in keys) > cf.w_max:
                    continue
                c = coeff
                for _, ci in combo:
                    c = ring.normalize(c * ci)
                for name, pc in mu.terms.items():
                    kk = (name, keys)
                    out[kk] = ring.normalize(out.get(kk, 0) + c * pc)
    return {kk: c for kk, c in out.items() if c}


@pytest.mark.parametrize("ring", [Z2, Z], ids=["Z2", "Z"])
def test_shuffle_associativity_e2(ring):
    # the degree-1 cogenerator a makes Koszul signs visible over Z
    rng = random.Random(3)
    C, H = barratt_eccles(ring, 3, 2, n=2, validate=False)
    V = GradedModule(ring, [BasisElement("x", 0, 1), BasisElement("y", -1, 1),
                            BasisElement("a", 1, 1)])
    cf = cofree_build(C, V, 3)
    # products of three factors stay inside arity 3 only for light factors:
    # one fixed triple of arity-1 classes, then random light ones
    gx, gy, ga = (cf.from_v(V.gen(n)) for n in ("x", "y", "a"))
    triples = [(gx.add(ga), gy, ga.scale(-1))]
    light = [key for key in cf.module.names if key[0] <= 1]
    for _ in range(3):
        triples.append([random_element(cf, rng, 3, light) for _ in range(3)])
    for i, (x, y, z) in enumerate(triples):
        lhs = shuffle(H, cf, shuffle(H, cf, x, y), z)
        rhs = shuffle(H, cf, x, shuffle(H, cf, y, z))
        assert lhs.eq(rhs)
        if i == 0:
            # the a, y, a orderings cancel; the six of x, y, a remain
            assert len(lhs.terms) == 6
        w = random_element(cf, rng, 3)
        assert shuffle(H, cf, cf.unit(), w).eq(w)
        assert shuffle(H, cf, w, cf.unit()).eq(w)
        w = random_element(cf, rng, 3, [k for k in cf.module.names
                                        if k[0] == 2])
        for k in (1, 2):
            assert cf.decompose(shuffle(H, cf, x, w), k) == \
                shuffle_decomposed(H, cf, x, w, k), k
    ev = exp_element(H, cf, V.gen("x"))
    em = exp_element(H, cf, V.gen("x", -1))
    assert shuffle(H, cf, em, ev).eq(cf.unit())


def test_shuffle_divided_powers_oracle():
    # over Q with rank-one cooperad components the weight-r classes on a
    # single degree-0 generator multiply like divided powers:
    # gamma_a * gamma_b = binom(a+b, a) gamma_{a+b}
    C, H = com_cochains(QQ, 3)
    V = GradedModule(QQ, [BasisElement("x", 0, 1)])
    cf = cofree_build(C, V, 3)
    gamma = {a: cf.module.gen((a, f"c{a}", ("x",) * a)) for a in (1, 2, 3)}
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            got = shuffle(H, cf, gamma[a], gamma[b])
            if a + b > 3:
                assert got.is_zero(), (a, b)
            else:
                want = gamma[a + b].scale(math.comb(a + b, a))
                assert got.eq(want), (a, b)


def test_one_param_profile():
    H, cf = make_cf(Z, spec=(("x", 0, 1),))
    cu = cf.cooperad.counit_name
    g = one_param(H, cf, cf.V.gen("x"), 2)
    assert g.terms == {
        (0, cf.cooperad.unit_name, ()): 1,
        (1, cu, ("x",)): 2,
        (2, "12", ("x", "x")): 4,
        (3, "123", ("x", "x", "x")): 8,
    }


def test_exp_one_parameter_group():
    rng = random.Random(4)
    for ring in (Z, Z8):
        H, cf = make_cf(ring)
        v = cf.V.gen("x")
        for _ in range(4):
            k, l = rand_scalar(ring, rng), rand_scalar(ring, rng)
            lhs = shuffle(H, cf, one_param(H, cf, v, k), one_param(H, cf, v, l))
            assert lhs.eq(one_param(H, cf, v, ring.normalize(k + l)))
        ev = exp_element(H, cf, v)
        em = exp_element(H, cf, v.scale(-1))
        assert shuffle(H, cf, em, ev).eq(cf.unit())
        assert exp_element(H, cf, cf.V.zero()).eq(cf.unit())


def test_exp_grouplike_decompose():
    H, cf = make_cf(Z2, spec=(("x", 0, 1),))
    ev = exp_element(H, cf, cf.V.gen("x"))
    for k in (2, 3):
        expected = {}

        def rec(i, keys, arity):
            if i == k:
                for a in cf.cooperad.basis_names(k):
                    expected[(a, tuple(keys))] = 1
                return
            for K in ev.terms:
                if arity + K[0] <= cf.cooperad.r_max:
                    rec(i + 1, keys + [K], arity + K[0])

        rec(0, [], 0)
        assert cf.decompose(ev, k) == expected, k


def test_twist_zero_is_identity():
    rng = random.Random(5)
    H, cf = make_cf(Z)
    for t in range(4):
        Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
        assert coderivations_equal(twist(H, Qt, cf.V.zero()), Qt)


@pytest.mark.parametrize("ring, build", [
    (Z2, ass_cochains), (Z8, ass_cochains), (Z, ass_cochains),
    (QQ, com_cochains),
], ids=["Z2", "Z8", "Z", "Q-com"])
def test_twist_squares_and_involutive(ring, build):
    rng = random.Random(6)
    H, cf = make_cf(ring, build=build)
    for t in range(6):
        Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
        v = cf.V.gen("x", rand_scalar(ring, rng))
        Tw = twist(H, Qt, v)  # verify=True cross-checks the operator form
        ok, witness = square_check(Tw)
        assert ok, witness
        assert coderivations_equal(twist(H, Tw, v.scale(-1)), Qt)


def test_twist_e2():
    rng = random.Random(7)
    C, H = barratt_eccles(Z2, 3, 2, n=2, validate=False)
    V = GradedModule(Z2, [BasisElement("x", 0, 1), BasisElement("y", -1, 2)])
    cf = cofree_build(C, V, 3)
    for t in range(3):
        Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
        Tw = twist(H, Qt, V.gen("x"))
        ok, witness = square_check(Tw)
        assert ok, witness


@pytest.mark.parametrize("ring, build", [(Z, ass_cochains), (QQ, com_cochains)],
                         ids=["Z", "Q-com"])
def test_twist_verify_catches_a_spoiled_component(monkeypatch, ring, build):
    """The verify path is a real check: doubling one component of the
    twisted coderivation makes it raise."""
    rng = random.Random(9)
    H, cf = make_cf(ring, build=build)
    Qt = random_coderivation(cf, rng, curved=True)
    v = cf.V.gen("x", rand_scalar(ring, rng))
    twist(H, Qt, v)

    def spoiled(cofree, comps):
        comps = dict(comps)
        key = next(iter(comps))
        comps[key] = comps[key].scale(2)
        return Coderivation(cofree, comps)

    monkeypatch.setattr(twisting, "Coderivation", spoiled)
    with pytest.raises(InternalCheckError, match="twisted operator"):
        twist(H, Qt, v)
    twist(H, Qt, v, verify=False)


def test_curvature_of_twist_is_residual():
    rng = random.Random(8)
    for ring in (Z2, Z8, Z):
        H, cf = make_cf(ring)
        for t in range(4):
            Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
            v = cf.V.gen("x", rand_scalar(ring, rng))
            Tw = twist(H, Qt, v, verify=False)
            assert Tw.curvature().eq(mc_residual(H, Qt, v))


def test_residual_two_torsion_example():
    # m_2(x, x) = y: the residual of x is 2y, which dies mod 2
    for ring, want_zero in ((Z2, True), (Z, False)):
        H, cf = make_cf(ring)
        Qt = Coderivation(cf, {(2, "12", ("x", "x")): cf.V.gen("y")})
        res = mc_residual(H, Qt, cf.V.gen("x"))
        if want_zero:
            assert res.is_zero()
            assert is_mc(H, Qt, cf.V.gen("x"))
            assert twist(H, Qt, cf.V.gen("x")).curvature().is_zero()
        else:
            assert res.eq(cf.V.gen("y", 2))
            assert not is_mc(H, Qt, cf.V.gen("x"))


def test_mc_enumerate_two_torsion_example():
    H, cf = make_cf(Z2)
    Qt = Coderivation(cf, {(2, "12", ("x", "x")): cf.V.gen("y")})
    sols = mc_enumerate(H, Qt)
    assert sorted(repr(s) for s in sols) == ["0", "1*x"]


def test_mc_enumerate_guards():
    H, cf = make_cf(Z2)
    Qt = Coderivation(cf, {})
    with pytest.raises(ResourceLimitError):
        mc_enumerate(H, Qt, cap=0)
    Hz, cfz = make_cf(Z)
    with pytest.raises(UnsupportedError):
        mc_enumerate(Hz, Coderivation(cfz, {}))


def test_residual_matches_homotopy_relations_oracle():
    # independent oracle over Z/2 with degree-0 inputs: the residual is
    # curvature + sum over r and all permutations sigma of the structure
    # map on sigma (x) v^r, evaluated by translating sigma back to the
    # identity representative by hand
    rng = random.Random(9)
    H, cf = make_cf(
        Z2, spec=(("x", 0, 1), ("z", 0, 1), ("y", -1, 2), ("w", -1, 3))
    )
    ident = {1: "1", 2: "12", 3: "123"}
    for t in range(8):
        Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
        v = cf.V.element({n: 1 for n in ("x", "z") if rng.random() < 0.8})
        want = Qt.curvature()
        for r in range(1, cf.cooperad.r_max + 1):
            for sname in cf.cooperad.basis_names(r):
                sigma = perm_from_name(sname)
                def rec(i, letters):
                    nonlocal want
                    if i == r:
                        vt = tuple(sigma.inverse().permute_slots(letters))
                        want = want.add(
                            Qt.component((r, ident[r], vt))
                        )
                        return
                    for vn in v.terms:
                        rec(i + 1, letters + [vn])
                rec(0, [])
        assert mc_residual(H, Qt, v).eq(want), t
