import random
from itertools import product
from math import factorial

import pytest

from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    be_components,
    be_name,
    be_simplices,
    com_cochains,
    perm_from_name,
    perm_name,
)
from opmc.errors import RingRequirementError, ShapeError
from opmc.graded import BasisElement, koszul_sign_images
from opmc.rings import ring_make
from opmc.symmetric import (
    OrbitModule,
    TrivialModule,
    act_plain,
    adjacent_swaps,
    all_permutations,
    compose,
    inverse,
    is_group_action,
    norm_plain,
    orbit_classes,
    permute_slots,
)

from dense_builders import from_orbits
from helpers import BE_AT_3

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
Z8 = ring_make({"kind": "integers-mod-m", "modulus": 8})
Q = ring_make({"kind": "rationals"})

RINGS = {"Z": Z, "Z2": Z2, "Z8": Z8, "Q": Q}


def regular_module(ring, r):
    """Free module R[S_r] with left-multiplication action."""

    def act(sigma, name):
        return perm_name(compose(sigma, perm_from_name(name)))

    return from_orbits(
        ring, r, [BasisElement(perm_name(tuple(range(1, r + 1))), 0)], act
    )


def vdeg_const(d):
    return lambda name: d


def expand_classes(om, classes, vdegree):
    """The plain tensor of {(rep, vtuple): coeff}: each class expanded
    by ``om.orbit_sum``."""
    ring = om.ring
    return ring.collect((pk, c * e) for (rep, vt), c in classes.items()
                        for pk, e in om.orbit_sum(rep, vt, vdegree).items())


def reads_back(om, y, vdegree):
    """Whether the classes ``orbit_classes`` reads from the plain tensor
    y expand back to y: the round trip that holds exactly on invariants."""
    return (expand_classes(om, orbit_classes(om, y, vdegree), vdegree)
            == om.ring.collect(y.items()))


def test_act_identity_and_koszul():
    om = regular_module(Z, 2)
    tau = (2, 1)
    x = {("12", ("v", "w")): 1}
    assert act_plain(om, (1, 2), x, vdeg_const(0)) == x
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
            ident = perm_name(tuple(range(1, r + 1)))
            for d in (0, 1):
                for _ in range(10):
                    x = {}
                    for _ in range(rng.randint(1, 3)):
                        vt = tuple(rng.choice("ab") for _ in range(r))
                        x[(ident, vt)] = ring.normalize(rng.randint(1, 5))
                    x = {k: c for k, c in x.items() if c}
                    y = norm_plain(om, x, vdeg_const(d))
                    back = orbit_classes(om, y, vdeg_const(d))
                    assert back == x, (rname, r, d)
                    assert reads_back(om, y, vdeg_const(d))


def test_norm_inverse_rejects_non_invariant():
    om = regular_module(Z, 2)
    y = {("12", ("v", "w")): 1}
    for d in (0, 1):
        assert not reads_back(om, y, vdeg_const(d))
    # the representative terms are read as they are
    assert orbit_classes(om, y, vdeg_const(0)) == y


def test_norm_inverse_detects_unreachable():
    om = regular_module(Z, 2)
    # the norm of a class whose two slots hold the same name
    y = {("12", ("v", "v")): 1, ("21", ("v", "v")): 1}
    assert orbit_classes(om, y, vdeg_const(0)) == {("12", ("v", "v")): 1}
    assert reads_back(om, y, vdeg_const(0))
    # at odd slot degree the swap flips the sign, so y is no norm there
    assert not reads_back(om, y, vdeg_const(1))
    y_odd = {("12", ("v", "v")): 1, ("21", ("v", "v")): -1}
    assert orbit_classes(om, y_odd, vdeg_const(1)) == {("12", ("v", "v")): 1}
    assert reads_back(om, y_odd, vdeg_const(1))
    y_bad = {("12", ("v", "w")): 1, ("21", ("v", "w")): 1}
    assert not reads_back(om, y_bad, vdeg_const(0))


def test_divided_norm_inverse_on_the_trivial_module():
    """Over Q the trivial module's classes, keyed by sorted tuples with
    no repeated odd-degree name, come back from their orbit sums (the
    norm over r!) and, r! times, from their norms."""
    degree = {"a": 0, "b": 1, "c": 0, "d": 1}
    rng = random.Random(7)
    for r in range(1, 5):
        om = TrivialModule(Q, r, "c")
        keys = om.class_tuples(degree, degree.get)
        fact = Q.normalize(factorial(r))
        for _ in range(10):
            x = Q.collect((("c", vt), Q.normalize(rng.randint(-3, 3)))
                          for vt in rng.sample(keys, min(3, len(keys))))
            y = expand_classes(om, x, degree.get)
            assert orbit_classes(om, y, degree.get) == x
            assert reads_back(om, y, degree.get)
            normed = norm_plain(om, x, degree.get)
            assert orbit_classes(om, normed, degree.get) == {
                k: Q.normalize(c * fact) for k, c in x.items()}
            assert reads_back(om, normed, degree.get)
    om = TrivialModule(Q, 2, "c")
    # one ordering alone is not invariant; an odd name twice is
    # anti-invariant, so its class vanishes and nothing is read back
    for y in ({("c", ("a", "b")): 1}, {("c", ("b", "b")): 1}):
        assert not reads_back(om, y, degree.get)


class ReadsOneNonRepresentative(OrbitModule):
    """A free module whose reading also takes the name ``extra``, which
    is no orbit representative: a spoiled ``collection_coefficient``."""

    extra = None

    def collection_coefficient(self, name, slots, vdegree):
        if name == self.extra:
            return self.ring.one
        return super().collection_coefficient(name, slots, vdegree)


@pytest.mark.parametrize("r", [2, 3])
def test_checked_inverse_refuses_a_spoiled_reading(r):
    om = regular_module(Z, r)
    basis = [BasisElement(n, 0) for n in om.module.names]
    spoiled = ReadsOneNonRepresentative(Z, r, basis, om.orbit_reps, om.actions)
    spoiled.extra = next(n for n in om.module.names if not om.is_rep(n))
    x = {(om.orbit_reps[0], tuple("abc"[:r])): 1}
    for d in (0, 1):
        y = norm_plain(om, x, vdeg_const(d))
        assert orbit_classes(om, y, vdeg_const(d)) == x
        assert reads_back(om, y, vdeg_const(d))
        assert orbit_classes(spoiled, y, vdeg_const(d)) != x
        assert not reads_back(spoiled, y, vdeg_const(d))


def normal_form(om, terms, vdegree):
    """(rep, slots, coefficient) of a one-term plain tensor, read with
    ``om.coinv_normalize``."""
    ((cname, vt), c), = terms.items()
    rep, slots, sign = om.coinv_normalize(cname, vt, tuple(vdegree(v) for v in vt))
    return rep, slots, sign * c


def test_coinv_normalize():
    om = regular_module(Z, 2)
    x = {("21", ("w", "v")): 1}
    assert normal_form(om, x, vdeg_const(0)) == ("12", ("v", "w"), 1)
    x_odd = {("21", ("v", "v")): 1}
    assert normal_form(om, x_odd, vdeg_const(1)) == ("12", ("v", "v"), -1)
    # already a representative
    x_rep = {("12", ("v", "w")): 2}
    assert normal_form(om, x_rep, vdeg_const(0)) == ("12", ("v", "w"), 2)
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
        x = {(perm_name(rng.choice(perms)), vt): 1}
        base = normal_form(om, x, degs)
        sigma = rng.choice(perms)
        moved = act_plain(om, sigma, x, degs)
        assert normal_form(om, moved, degs) == base


def test_action_is_group_action_with_signs():
    om = regular_module(Z, 3)
    rng = random.Random(9)
    perms = all_permutations(3)
    for _ in range(50):
        s, t = rng.choice(perms), rng.choice(perms)
        vt = tuple(rng.choice("ab") for _ in range(3))
        degs = vdeg_const(1)
        x = {(perm_name(rng.choice(perms)), vt): 1}
        lhs = act_plain(om, compose(s, t), x, degs)
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
            want = {k: Q.normalize(c * Q.inv(factorial(r)))
                    for k, c in norm.items()}
            assert om.orbit_sum("c", vt, degree.get) == want
            svt = tuple(sorted(vt))
            # oracle: the first sigma carrying vt to its sorted tuple
            sign = next(koszul_sign_images(s, degs) for s in group
                        if permute_slots(s, vt) == svt)
            assert om.coinv_normalize("c", vt, degs) == ("c", svt, sign)
            lam = om.collection_coefficient("c", vt, degree.get)
            if vt != svt:
                assert lam is None
            else:
                # oracle: signed sum over the stabilizer of vt
                h = sum(koszul_sign_images(s, degs) for s in group
                        if permute_slots(s, vt) == vt)
                assert lam == (None if h == 0 else Q.normalize(factorial(r)) / h)
                if h:
                    keys.add(vt)
            checked += 1
        assert om.class_tuples(degree, degree.get) == sorted(keys)
    assert checked == 340


# ---------------------------------------------------------------------------
# the group law of an action table


def dense_is_group_action(r, actions):
    """The group law as loops over all pairs of S_r: every row maps the
    names of the identity row into them, the identity fixes each name,
    and act[s t] = act[s] o act[t] for every s and t."""
    group = all_permutations(r)
    names = actions[tuple(range(1, r + 1))]
    if any(x not in names for row in actions.values() for x in row.values()):
        return False
    if any(x != n for n, x in names.items()):
        return False
    for s in group:
        for t in group:
            fst = actions[compose(s, t)]
            fs, ft = actions[s], actions[t]
            if any(fst[n] != fs[ft[n]] for n in names):
                return False
    return True


def spoiled_tables(r, actions):
    """Copies of an arity-r table with one row spoiled: the images of the
    first and the last name swapped in the reversal row, the identity
    moving the first name onto the last, and the last adjacent swap
    sending the first name off the basis."""
    ident = tuple(range(1, r + 1))
    names = list(actions[ident])
    first, last = names[0], names[-1]

    def spoil(images, changes):
        return {**actions, images: {**actions[images], **changes}}

    out = []
    if len(names) > 1:
        rev = tuple(range(r, 0, -1))
        row = actions[rev]
        out.append(spoil(rev, {first: row[last], last: row[first]}))
        out.append(spoil(ident, {first: last}))
    if r > 1:
        out.append(spoil(adjacent_swaps(r)[-1], {first: "off-the-basis"}))
    return out


def build_components(build):
    """The components of one build, named kind-ring."""
    kind, ring = build.rsplit("-", 1)
    ring = RINGS[ring]
    if kind == "ass":
        return ass_cochains(ring, 4, validate=False)[0].components
    if kind == "be":
        return barratt_eccles(ring, 3, 2, validate=False)[0].components
    if kind == "be-chains":
        # the action table of chains and cochains is one table
        return be_components(ring, {r: {be_name(s): s for s in be_simplices(r, 1, None)}
                                    for r in range(5)})
    return com_cochains(ring, 4, validate=False)[0].components


@pytest.mark.parametrize("build", [
    f"{kind}-{ring}" for kind in ("ass", "be", "be-chains") for ring in ("Z", "Z2", "Q")
] + ["com-Q"])
def test_group_law_matches_the_loop_over_all_pairs(build):
    """is_group_action agrees with the loops over all pairs on every
    component and on its spoiled copies, and the constructor refuses
    each copy that is no group action."""
    refused = 0
    for r, om in build_components(build).items():
        assert dense_is_group_action(r, om.actions) and is_group_action(r, om.actions)
        basis = [BasisElement(n, om.module.degree(n)) for n in om.module.names]
        for table in spoiled_tables(r, om.actions):
            want = dense_is_group_action(r, table)
            assert is_group_action(r, table) == want, (build, r)
            if not want and type(om) is OrbitModule:
                with pytest.raises(ShapeError):
                    OrbitModule(om.ring, r, basis, om.orbit_reps, table)
                refused += 1
    assert refused or build == "com-Q"


def test_table_that_is_no_group_action_is_refused_at_every_arity():
    """In S_5, swap the reversal's images of two names that the freeness
    index never reads, or drop a row: the constructor refuses both."""
    om = regular_module(Z, 5)
    basis = [BasisElement(n, 0) for n in om.module.names]
    rev = (5, 4, 3, 2, 1)
    row = dict(om.actions[rev])
    row["21345"], row["12354"] = row["12354"], row["21345"]
    with pytest.raises(ShapeError, match="not a group action"):
        OrbitModule(Z, 5, basis, om.orbit_reps, {**om.actions, rev: row})
    missing = {images: row for images, row in om.actions.items() if images != rev}
    with pytest.raises(ShapeError, match="no row"):
        OrbitModule(Z, 5, basis, om.orbit_reps, missing)


@pytest.mark.parametrize("reps", [["nope"], [12], ["12", "nope"]])
def test_orbit_representative_outside_the_basis_is_refused(reps):
    # a representative that names no basis element, alone or beside a
    # good one, is refused with a ShapeError, not a KeyError
    om = regular_module(Z, 2)
    basis = [BasisElement(n, 0) for n in om.module.names]
    with pytest.raises(ShapeError, match="is not a basis name"):
        OrbitModule(Z, 2, basis, reps, om.actions)


@pytest.mark.parametrize("build", sorted(BE_AT_3))
def test_vertices_and_their_composites_are_permutations(build):
    """Every vertex of a basis simplex is a permutation of 1..r, and so
    are its inverse and its composite with every sigma of S_r, which the
    action table is built from: nothing checks an image tuple at run
    time."""
    d_max, n = BE_AT_3[build]
    for r in range(4):
        ident = tuple(range(1, r + 1))
        vertices = {p for s in be_simplices(r, d_max, n) for p in s}
        assert vertices == set(all_permutations(r))
        for p in vertices:
            assert tuple(sorted(inverse(p))) == ident
            assert compose(inverse(p), p) == compose(p, inverse(p)) == ident
            for sigma in all_permutations(r):
                assert tuple(sorted(compose(sigma, p))) == ident
