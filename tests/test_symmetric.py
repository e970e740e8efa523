import random
from itertools import product
from math import factorial

import pytest

from opmc.errors import (
    FreenessError,
    InvarianceError,
    RingRequirementError,
    ShapeError,
)
from opmc.graded import BasisElement
from opmc.rings import ring_make
from opmc.symmetric import (
    OrbitModule,
    Permutation,
    TrivialModule,
    act_plain,
    all_permutations,
    coinv_normalize_plain,
    norm_inverse_plain,
    norm_plain,
)

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
Z8 = ring_make({"kind": "integers-mod-m", "modulus": 8})
Q = ring_make({"kind": "rationals"})

RINGS = {"Z": Z, "Z2": Z2, "Z8": Z8, "Q": Q}


def regular_module(ring, r):
    """Free module R[S_r] with left-multiplication action."""
    perms = all_permutations(r)
    ident = Permutation.identity(r)

    def act(sigma, name):
        tau = Permutation(tuple(int(ch) for ch in name))
        return sigma.compose(tau).oneline()

    return OrbitModule.from_orbits(
        ring, r, [BasisElement(ident.oneline(), 0)], act
    )


def vdeg_const(d):
    return lambda name: d


def test_act_identity_and_koszul():
    om = regular_module(Z, 2)
    tau = Permutation((2, 1))
    x = {("12", ("v", "w")): 1}
    assert act_plain(om, Permutation.identity(2), x, vdeg_const(0)) == x
    acted = act_plain(om, tau, x, vdeg_const(0))
    assert acted == {("21", ("w", "v")): 1}
    # both slots odd: sign -1
    y = {("12", ("v", "v")): 1}
    acted = act_plain(om, tau, y, vdeg_const(1))
    assert acted == {("21", ("v", "v")): -1}


def test_norm_r2_and_r1():
    om = regular_module(Z, 2)
    x = {("12", ("v", "w")): 1}
    assert norm_plain(om, x, vdeg_const(0)) == {
        ("12", ("v", "w")): 1,
        ("21", ("w", "v")): 1,
    }
    om1 = regular_module(Z, 1)
    x1 = {("1", ("v",)): 5}
    assert norm_plain(om1, x1, vdeg_const(0)) == x1


def test_norm_well_defined_on_representatives():
    om = regular_module(Z, 3)
    rng = random.Random(5)
    perms = all_permutations(3)
    for _ in range(20):
        vt = tuple(rng.choice("abc") for _ in range(3))
        x = {("123", vt): rng.randint(-3, 3)}
        sigma = rng.choice(perms)
        moved = act_plain(om, sigma, x, vdeg_const(1))
        assert norm_plain(om, x, vdeg_const(1)) == norm_plain(om, moved, vdeg_const(1))


def test_norm_inverse_round_trip():
    rng = random.Random(11)
    for rname, ring in RINGS.items():
        for r in (1, 2, 3, 4):
            om = regular_module(ring, r)
            ident = Permutation.identity(r).oneline()
            for _ in range(10):
                x = {}
                for _ in range(rng.randint(1, 3)):
                    vt = tuple(rng.choice("ab") for _ in range(r))
                    x[(ident, vt)] = ring.normalize(rng.randint(1, 5))
                x = {k: c for k, c in x.items() if not ring.is_zero(c)}
                y = norm_plain(om, x, vdeg_const(0))
                assert norm_inverse_plain(om, y, vdeg_const(0)) == x, (rname, r)


def test_norm_inverse_rejects_non_invariant():
    om = regular_module(Z, 2)
    y = {("12", ("v", "w")): 1}
    with pytest.raises(InvarianceError):
        norm_inverse_plain(om, y, vdeg_const(0))


def test_norm_inverse_detects_unreachable():
    om = regular_module(Z, 2)
    # invariant but not a norm over Z: the symmetric tensor on one slot pair
    y = {("12", ("v", "v")): 1, ("21", ("v", "v")): 1}
    assert norm_inverse_plain(om, y, vdeg_const(0)) == {("12", ("v", "v")): 1}
    y_bad = {("12", ("v", "w")): 1, ("21", ("v", "w")): 1}
    with pytest.raises((InvarianceError, FreenessError)):
        norm_inverse_plain(om, y_bad, vdeg_const(0))


def test_coinv_normalize():
    om = regular_module(Z, 2)
    x = {("21", ("w", "v")): 1}
    assert coinv_normalize_plain(om, x, vdeg_const(0)) == {("12", ("v", "w")): 1}
    x_odd = {("21", ("v", "v")): 1}
    assert coinv_normalize_plain(om, x_odd, vdeg_const(1)) == {("12", ("v", "v")): -1}
    # already a representative
    x_rep = {("12", ("v", "w")): 2}
    assert coinv_normalize_plain(om, x_rep, vdeg_const(0)) == x_rep
    for module, name in ((om, "21"), (TrivialModule(Q, 2, "c2"), "c2")):
        with pytest.raises(ShapeError, match="slot count"):
            module.coinv_normalize(name, ("v",), (0,))


def test_normalize_constant_on_orbits():
    om = regular_module(Z, 3)
    rng = random.Random(2)
    perms = all_permutations(3)
    for _ in range(30):
        vt = tuple(rng.choice("ab") for _ in range(3))
        degs = vdeg_const(rng.choice([0, 1]))
        x = {(rng.choice(perms).oneline(), vt): 1}
        base = coinv_normalize_plain(om, x, degs)
        sigma = rng.choice(perms)
        moved = act_plain(om, sigma, x, degs)
        assert coinv_normalize_plain(om, moved, degs) == base


def test_action_is_group_action_with_signs():
    om = regular_module(Z, 3)
    rng = random.Random(9)
    perms = all_permutations(3)
    for _ in range(50):
        s, t = rng.choice(perms), rng.choice(perms)
        vt = tuple(rng.choice("ab") for _ in range(3))
        degs = vdeg_const(1)
        x = {(rng.choice(perms).oneline(), vt): 1}
        lhs = act_plain(om, s.compose(t), x, degs)
        rhs = act_plain(om, s, act_plain(om, t, x, degs), degs)
        assert lhs == rhs


def test_rational_norm_variant():
    # the trivial module's orbit sum is the norm divided by r!
    om = TrivialModule(Q, 2, "c2")
    half = Q.normalize("1/2")
    assert om.orbit_sum("c2", ("v", "w"), vdeg_const(0)) == {
        ("c2", ("v", "w")): half, ("c2", ("w", "v")): half}
    assert om.orbit_sum("c2", ("v", "w"), vdeg_const(1)) == {
        ("c2", ("v", "w")): half, ("c2", ("w", "v")): -half}
    # an odd-degree name twice: the class vanishes
    assert om.orbit_sum("c2", ("v", "v"), vdeg_const(1)) == {}


def test_trivial_module_refuses_integers():
    for ring in (Z, Z2, Z8):
        with pytest.raises(RingRequirementError,
                           match="divided norm, which requires Q"):
            TrivialModule(ring, 2, "c2")


def test_trivial_module_closed_forms():
    """Stabilizer sum h, sort sign and orbit sum against the S_r loops
    they replace."""
    degree = {"a": 0, "b": 1, "c": 0, "d": 1}
    checked = 0
    for r in range(1, 5):
        om = TrivialModule(Q, r, "c")
        group = all_permutations(r)
        keys = set()
        for vt in product(sorted(degree), repeat=r):
            degs = tuple(degree[v] for v in vt)
            # oracle: the whole norm over S_r, divided by r!
            norm = norm_plain(om, {("c", vt): Q.one}, degree.get)
            want = {k: Q.mul(c, Q.inv(Q.normalize(factorial(r))))
                    for k, c in norm.items()}
            assert om.orbit_sum("c", vt, degree.get) == want
            svt = tuple(sorted(vt))
            # oracle: the first sigma carrying vt to its sorted tuple
            sign = next(s.koszul_sign(degs) for s in group
                        if s.permute_slots(vt) == svt)
            assert om.coinv_normalize("c", vt, degs) == ("c", svt, sign)
            lam = om.collection_coefficient("c", vt, degree.get)
            if vt != svt:
                assert lam is None
            else:
                # oracle: signed sum over the stabilizer of vt
                h = sum(s.koszul_sign(degs) for s in group
                        if s.permute_slots(vt) == vt)
                assert lam == (None if h == 0 else Q.normalize(factorial(r)) / h)
                if h:
                    keys.add(vt)
            checked += 1
        assert om.class_tuples(degree, degree.get) == sorted(keys)
    assert checked == 340
