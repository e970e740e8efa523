"""The sparse validators against the dense reference loops, law by law.

Every comparison is on the whole ``Report.checks`` list, so the law
names, their order, the pass/fail flags and the failure witnesses must
all agree.  The spoiled structures each break one law family; both
validators must reject them at the same law with the same witness.
"""

import copy
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import dense_validators as dense
from opmc import cooperad
from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    com_cochains,
    en_restriction_morphism,
)
from opmc.cooperad import CooperadMorphism, CooperadTruncation, HopfStructure
from opmc.graded import koszul_sign_images
from opmc.rings import Ring, ring_make
from opmc.symmetric import Permutation

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
Q = ring_make({"kind": "rationals"})

INSTANCES = {
    "ass-Z-3": lambda: ass_cochains(Z, 3, validate=False),
    "com-Q-3": lambda: com_cochains(Q, 3, validate=False),
    # the cooperad of the linf-cli benchmark instance
    "com-Q-4": lambda: com_cochains(Q, 4, validate=False),
    "E2-Z-d1": lambda: barratt_eccles(Z, 3, 1, n=2, validate=False),
    "E2-Z2-d1": lambda: barratt_eccles(Z2, 3, 1, n=2, validate=False),
    # the cooperad of the shipped E2 instance
    "E2-Z2-d2": lambda: barratt_eccles(Z2, 3, 2, n=2, validate=False),
    "Einf-Z2-d1": lambda: barratt_eccles(Z2, 3, 1, n=None, validate=False),
    # complete E2: 84 arity-3 names, about 1 s for the dense cooperad loops
    "E2c-Z2": lambda: barratt_eccles(Z2, 3, None, n=2, validate=False),
}
# the dense Hopf loops run over every triple of names: about 19 s on
# E2-Z2-d2, whose 72 arity-3 names make 373,248 triples
HOPF_INSTANCES = sorted(set(INSTANCES) - {"E2-Z2-d2", "E2c-Z2"})


@lru_cache(maxsize=None)
def build(label):
    return INSTANCES[label]()


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return request.param, build(request.param)


def failing_laws(rep):
    return [law for law, _ in rep.failures()]


def same_reports(sparse_rep, dense_rep):
    assert sparse_rep.checks == dense_rep.checks
    return sparse_rep


def test_cooperad_reports_match(instance):
    _, (C, _) = instance
    rep = same_reports(cooperad.validate_cooperad(C), dense.validate_cooperad(C))
    assert rep.ok


@pytest.mark.parametrize("label", HOPF_INSTANCES)
def test_hopf_reports_match(label):
    C, H = build(label)
    rep = same_reports(cooperad.validate_hopf(C, H), dense.validate_hopf(C, H))
    if label.startswith("E"):
        # at d_max=1 the cup product drops the products of two edges, and
        # Delta of a product no longer matches
        assert failing_laws(rep) == ["hopf-cocomposition-compat arity 3"]
        assert rep.failures()[0][1][:3] == (3, 2, (1, 2))
    else:
        assert rep.ok


def test_cocom_unit_images_match(instance):
    # the units eta_r are the images of a cooperad morphism from the
    # unitary cocommutative cooperad: validate_hopf's last law, per arity,
    # against the dense loop alone (the whole dense report is too slow on
    # E2-Z2-d2).  Every instance passes it, E2 and E-infinity at d_max 1
    # too, where the compatibility law fails
    _, (C, H) = instance
    arities = range(C.r_max + 1)
    laws = [check for check in cooperad.validate_hopf(C, H).checks
            if check[0].startswith("hopf-unit-cocomposition")]
    assert laws == [(f"hopf-unit-cocomposition arity {r}", True, None)
                    for r in arities]
    assert [dense.hopf_unit_cocomp_check(C, H, r) for r in arities] == [
        None] * len(arities)


def test_morphism_reports_match():
    einf, _ = barratt_eccles(Z2, 3, 1, n=None, validate=False)
    e2, _ = barratt_eccles(Z2, 3, 1, n=2, validate=False)
    phi = en_restriction_morphism(einf, e2, validate=False)
    assert same_reports(cooperad.validate_morphism(phi),
                        dense.validate_morphism(phi)).ok

    be1, _ = barratt_eccles(Z, 3, 0, n=1, validate=False)
    ass, _ = ass_cochains(Z, 3, validate=False)
    iso = en_restriction_morphism(be1, ass, validate=False)
    assert same_reports(cooperad.validate_morphism(iso),
                        dense.validate_morphism(iso)).ok

    # send one arity-3 class to the wrong permutation
    maps = dict(iso.maps)
    maps[3] = copy.copy(iso.maps[3])
    maps[3].entries = dict(maps[3].entries, **{"123": {"132": 1}})
    bad = CooperadMorphism(be1, ass, maps)
    rep = same_reports(cooperad.validate_morphism(bad), dense.validate_morphism(bad))
    assert failing_laws(rep)[0] == "morphism-equivariance arity 3"
    assert "morphism-cocomposition arity 3" in failing_laws(rep)


def test_structures_are_normal_by_construction(monkeypatch):
    C, H = build("E2-Z2-d1")
    tables = copy.deepcopy(C.cocomp)
    key, name = next((key, n) for key, t in tables.items()
                     for n, terms in t.items() if len(terms) >= 2)
    row = tables[key][name]
    (_, o0, gs0), (_, o1, gs1) = row[:2]
    row[:2] = [("1", o0, list(gs0)), (3, o1, gs1)]
    products = {r: dict(t) for r, t in H.products.items()}
    (a, b), [(_, ab)] = next(iter(products[2].items()))
    products[2][a, b] = [(3, ab), ("1", ab)]
    C2 = CooperadTruncation(Z2, C.r_max, C.components, tables,
                            C.unit_name, C.counit_name)
    H2 = HopfStructure(C2, products, H.units)
    assert C2.cocompose(*key, name)[:2] == [(1, o0, gs0), (1, o1, gs1)]
    assert H2.multiply_names(2, a, b) == [(1, ab), (1, ab)]
    assert cooperad.validate_cooperad(C2).checks == cooperad.validate_cooperad(C).checks

    # the builders' tables and products are in normal form already: the
    # constructors store them as given
    given = []
    cooperad_init, hopf_init = CooperadTruncation.__init__, HopfStructure.__init__

    def record_cooperad(self, ring, r_max, components, cocomp, *args, **kwargs):
        given.append(copy.deepcopy(cocomp))
        cooperad_init(self, ring, r_max, components, cocomp, *args, **kwargs)

    def record_hopf(self, cooperad, products, units):
        given.append(copy.deepcopy(products))
        hopf_init(self, cooperad, products, units)

    monkeypatch.setattr(CooperadTruncation, "__init__", record_cooperad)
    monkeypatch.setattr(HopfStructure, "__init__", record_hopf)
    for label in ("ass-Z-3", "com-Q-3", "E2-Z2-d1"):
        C, H = INSTANCES[label]()
        assert given == [C.cocomp, H.products]
        given.clear()


def test_witness_is_the_lowest_position_in_any_table_order(ass3, einf2):
    """Two spoiled names of one table, the later basis position first in
    the table's dict order: both reports name the earlier one, in
    coassociativity and in Hopf compatibility."""
    def spoiled(C, key, later, earlier):
        tables = copy.deepcopy(C.cocomp)
        rest = tables[key]
        rows = {n: [(C.ring.normalize(rest[n][0][0] + 1),) + rest[n][0][1:]]
                + rest[n][1:] for n in (later, earlier)}
        tables[key] = {**rows, **{n: t for n, t in rest.items() if n not in rows}}
        bad = CooperadTruncation(C.ring, C.r_max, C.components, tables,
                                 C.unit_name, C.counit_name)
        names = C.basis_names(sum(key[1]))
        assert names.index(earlier) < names.index(later)
        assert list(bad.table(*key))[:2] == [later, earlier]
        return bad

    # the flat and the middle table of the tree ((0,), (0, 3)), which
    # each name alone fails: the order of the two sides of the law
    for key in ((3, (0, 0, 3)), (2, (0, 3))):
        bad = spoiled(ass3, key, "321", "213")
        rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
        assert dict(rep.failures())["coassociativity arity 3"] == (
            3, "213", ((0,), (0, 3)), "coassociativity mismatch")

    C, H = einf2
    bad = spoiled(C, (2, (2, 0)), "21", "12")
    rep = both_hopf(bad, HopfStructure(bad, H.products, H.units))
    assert dict(rep.failures())["hopf-cocomposition-compat arity 2"] == (
        2, 2, (2, 0), "12", "12")


def test_witness_is_the_first_tree_that_fails(ass3):
    """Two trees of arity 3 fail, and the later one at a name of lower
    basis position: both reports name the earlier tree and its name."""
    tables = copy.deepcopy(ass3.cocomp)
    for key, name in (((3, (0, 1, 2)), "321"), ((3, (0, 2, 1)), "312")):
        coeff, o, gs = tables[key][name][0]
        tables[key][name][0] = (coeff + 1, o, gs)
    bad = CooperadTruncation(Z, ass3.r_max, ass3.components, tables,
                             ass3.unit_name, ass3.counit_name)
    trees = [tree[0] for tree in cooperad.coassoc_trees(3, 3)]
    assert trees.index(((0,), (1, 2))) < trees.index(((0,), (2, 1)))
    names = ass3.basis_names(3)
    assert names.index("312") < names.index("321")
    rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    assert dict(rep.failures())["coassociativity arity 3"] == (
        3, "321", ((0,), (1, 2)), "coassociativity mismatch")
    # the later tree alone fails at the lower name
    assert dense._coassoc_check(bad, 3, ((0,), (2, 1)))[:2] == (3, "312")


def test_collect_calls_per_validation(monkeypatch):
    """``Ring.collect`` calls in one validate_cooperad: one per side per
    arity for coassociativity, one per table row read for equivariance,
    and one per name for the counit laws.  They were 1,602 and 1,490 when
    coassociativity was joined one tree at a time."""
    calls = []
    collect = Ring.collect

    def counted(self, items):
        calls.append(1)
        return collect(self, items)

    monkeypatch.setattr(Ring, "collect", counted)
    for label, want in (("com-Q-4", 142), ("E2-Z2-d2", 874)):
        C, _ = build(label)
        calls.clear()
        assert cooperad.validate_cooperad(C).ok
        assert (label, len(calls)) == (label, want)


def test_compositions_children_within_budget():
    for r_max in (2, 3, 4):
        for r in range(r_max + 1):
            for m in range(1, r_max + 1):
                assert (cooperad.compositions_children(r, m, r_max)
                        == tuple(dense.compositions_children(r, m, r_max)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_riffle_parity_is_the_koszul_sign(k):
    """a x_1..x_k b y_1..y_k -> a b x_1 y_1 .. x_k y_k, the interleave of
    the Hopf compatibility law and of the shuffle kernel, against the
    Koszul sign of that permutation on every 0/1 degree pattern."""
    # a, x_i, b, y_j sit at 1, 1 + i, k + 2, k + 2 + j and go to 1, 2i + 1, 2, 2j + 2
    images = [1] + [2 * i + 1 for i in range(1, k + 1)] + [2] \
        + [2 * j + 2 for j in range(1, k + 1)]
    for bits in product((0, 1), repeat=2 * k + 1):
        b, xs, ys = bits[0], bits[1:k + 1], bits[k + 1:]
        want = koszul_sign_images(images, (0,) + xs + (b,) + ys)
        assert (-1) ** cooperad.riffle_parity(b, xs, ys) == want, bits


# ---------------------------------------------------------------------------
# spoiled structures: E-infinity cochains at r_max=2, d_max=2 over Z, so
# products, signs and every cocomposition shape of arity 2 take part


@pytest.fixture(scope="module")
def einf2():
    C, H = barratt_eccles(Z, 2, 2, n=None, validate=False)
    assert cooperad.validate_cooperad(C).ok and cooperad.validate_hopf(C, H).ok
    return C, H


def spoil_products(H, r, change):
    products = {k: dict(t) for k, t in H.products.items()}
    change(products[r])
    return HopfStructure(H.cooperad, products, H.units)


def both_hopf(C, H):
    return same_reports(cooperad.validate_hopf(C, H), dense.validate_hopf(C, H))


def test_spoiled_dropped_product(einf2):
    C, H = einf2
    # the product of two edges: its moved copies under S_2 stay nonzero
    bad = spoil_products(H, 2, lambda t: t.update({("12|21", "21|12"): []}))
    rep = both_hopf(C, bad)
    assert failing_laws(rep)[0] == "hopf-equivariance arity 2"


def test_spoiled_added_product(einf2):
    C, H = einf2
    # two edges that do not meet: their product must be zero
    assert H.multiply_names(2, "12|21", "12|21") == []
    bad = spoil_products(H, 2, lambda t: t.update({("12|21", "12|21"): [(1, "12|21|12")]}))
    rep = both_hopf(C, bad)
    assert failing_laws(rep)[0] == "hopf-associativity arity 2"


def test_spoiled_cocomposition_coefficient(einf2):
    C, H = einf2
    tables = copy.deepcopy(C.cocomp)
    row = tables[(2, (2, 0))]["12|21"]
    coeff, o, gs = row[0]
    row[0] = (Z.normalize(coeff + 1), o, gs)
    bad = CooperadTruncation(Z, C.r_max, C.components, tables,
                             C.unit_name, C.counit_name)
    rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    # Delta_{2;(2,0)} meets only itself in the coassociativity trees of
    # r_max=2, so the swap of its two slots is what catches it
    assert failing_laws(rep)[0] == "equivariance arity 2"
    rep = both_hopf(bad, HopfStructure(bad, H.products, H.units))
    assert failing_laws(rep)[0] == "hopf-cocomposition-compat arity 2"


@pytest.mark.parametrize("table, row, arity", [
    # only the swap inside sigma_1 moves Delta_{1;(2)}
    ((1, (2,)), ("12", [(1, "1", ("21",))]), 2),
    # only the swap of mu moves Delta_{2;(0,0)}
    ((2, (0, 0)), ("()", [(1, "12", ("()", "()")), (2, "21", ("()", "()"))]), 0),
], ids=["sigma", "mu"])
def test_spoiled_table_seen_by_one_kind_of_generator(einf2, table, row, arity):
    C, _ = einf2
    tables = copy.deepcopy(C.cocomp)
    name, terms = row
    tables[table][name] = terms
    bad = CooperadTruncation(Z, C.r_max, C.components, tables,
                             C.unit_name, C.counit_name)
    rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    assert f"equivariance arity {arity}" in failing_laws(rep)


def test_spoiled_hopf_unit(einf2):
    C, H = einf2
    units = dict(H.units)
    units[2] = C.component(2).module.gen("12")
    rep = both_hopf(C, HopfStructure(C, H.products, units))
    assert failing_laws(rep)[0] == "hopf-unit arity 2"
    # Delta_{2;(0,0)}(eta_0) still has both orderings in the outer slot,
    # where the spoiled eta_2 has one; each arity has a shape with outer
    # eta_2, and each fails
    assert failing_laws(rep)[-3:] == [
        f"hopf-unit-cocomposition arity {r}" for r in range(3)]


def test_spoiled_action_not_a_bijection(einf2):
    C, H = einf2
    # a hand-built module that skipped OrbitModule's checks: the swap now
    # sends both edges of one orbit to the same edge
    om = copy.copy(C.component(2))
    row = om.actions[(2, 1)]
    om.actions = {**om.actions, (2, 1): {**row, "12|21": row["21|12"]}}
    components = dict(C.components)
    components[2] = om
    bad = CooperadTruncation(Z, C.r_max, components, C.cocomp,
                             C.unit_name, C.counit_name)
    # the cocomposition tables of arity 2 only ever move the two edges
    # together, so the table laws cannot see this; both versions agree
    same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    rep = both_hopf(bad, HopfStructure(bad, H.products, H.units))
    assert failing_laws(rep)[0] == "hopf-equivariance arity 2"


# ---------------------------------------------------------------------------
# table equivariance: the generators and the full walk


def equivariance_parts(C, r):
    """What validate_cooperad reads for the equivariance law of arity r:
    whether the generators speak for the group, and the first witness
    among the generators alone."""
    deg, act = C.degrees, cooperad._actions(C)
    return (cooperad._acts_by_homomorphisms(deg, act),
            cooperad._equivariance_check(
                C, r, deg, act, cooperad._generator_plan(r, C.r_max)))


def is_generator(mu, sigmas):
    """One of mu, sigma_1..sigma_k is an adjacent swap, the rest identities."""
    moved = [[i for i, x in enumerate(p, 1) if x != i] for p in (mu,) + sigmas]
    moved = [m for m in moved if m]
    return len(moved) == 1 and len(moved[0]) == 2 and moved[0][1] == moved[0][0] + 1


@pytest.fixture(scope="module")
def ass3():
    C, _ = ass_cochains(Z, 3, validate=False)
    return C


def flatten(plan):
    """The block permutations (k, shape, mu, sigmas) of a plan, in order."""
    return [(k, shape, mu, sigmas)
            for k, shape, mu, _, _, elements in plan for sigmas, _ in elements]


def test_block_generator_counts():
    """450 generators stand in for 8,142 block permutations at r_max 4,
    and 76 for 322 at r_max 3.  The cached plan lists the generators in
    the order of ``_block_generators``, each with its block images."""
    for r_max, n_gen, n_all in ((3, 76, 322), (4, 450, 8142)):
        C, _ = com_cochains(Q, r_max, validate=False)
        act = cooperad._actions(C)
        gens = [g for r in range(r_max + 1)
                for g in cooperad._block_generators(r, r_max)]
        full = [g for r in range(r_max + 1)
                for g in cooperad._block_permutations(r, r_max, act)]
        assert (len(gens), len(set(gens)), len(full)) == (n_gen, n_gen, n_all)
        assert set(gens) == {g for g in full if is_generator(g[2], g[3])}
        for r in range(r_max + 1):
            plan = cooperad._generator_plan(r, r_max)
            assert plan is cooperad._generator_plan(r, r_max)
            assert flatten(plan) == list(cooperad._block_generators(r, r_max))
            for k, shape, mu, order, new_shape, elements in plan:
                assert [mu[i] for i in order] == list(range(1, k + 1))
                assert new_shape == tuple(shape[i] for i in order)
                for sigmas, images in elements:
                    assert images == dense.block_permutation(
                        Permutation(mu), shape, [Permutation(s) for s in sigmas]).images


def test_spoiled_table_seen_by_a_mu_swap_only():
    """A spoiled Delta_{2;(1,3)} on com-Q-4: the inner swaps with mu the
    identity compare each table with itself, since every arity acts
    trivially, so only the swap of mu sees it."""
    C, _ = build("com-Q-4")
    tables = copy.deepcopy(C.cocomp)
    tables[(2, (1, 3))]["c4"] = [(Fraction(1, 2), "c2", ("c1", "c3"))]
    bad = CooperadTruncation(Q, C.r_max, C.components, tables,
                             C.unit_name, C.counit_name)
    rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    witness = (4, "c4", 2, (1, 3), (2, 1), ((1,), (1, 2, 3)))
    assert dict(rep.failures())["equivariance arity 4"] == witness
    assert equivariance_parts(bad, 4) == (True, witness)
    plan = cooperad._generator_plan(4, C.r_max)
    deg, act = bad.degrees, cooperad._actions(bad)
    assert cooperad._equivariance_check(
        bad, 4, deg, act, [g for g in plan if g[3] == tuple(range(g[0]))]) is None


def test_spoiled_table_first_witness_not_a_generator(ass3):
    C = ass3
    tables = copy.deepcopy(C.cocomp)
    row = tables[(3, (2, 1, 0))]
    name = next(n for n in C.basis_names(3) if row.get(n))
    coeff, o, gs = row[name][0]
    row[name][0] = (Z.normalize(coeff + 1), o, gs)
    bad = CooperadTruncation(Z, C.r_max, C.components, tables,
                             C.unit_name, C.counit_name)
    rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    witness = dict(rep.failures())["equivariance arity 3"]
    # the dense loops first meet the reversal of the blocks (0, 1, 2),
    # which is no generator; a generator fails too and starts the walk
    assert witness == (3, "231", 3, (0, 1, 2), (3, 2, 1), ((), (1,), (1, 2)))
    assert not is_generator(*witness[4:])
    generators_suffice, first = equivariance_parts(bad, 3)
    assert generators_suffice and first is not None and first != witness


def test_action_not_a_homomorphism_forces_the_full_walk(ass3):
    C = ass3
    # a hand-built arity-3 module whose reversal (3 2 1) swaps its images
    # of two names: no generator of the block permutations reads that
    # entry, so each of them passes, and only the full walk can fail
    om = copy.copy(C.component(3))
    row = dict(om.actions[(3, 2, 1)])
    row["123"], row["132"] = row["132"], row["123"]
    om.actions = {**om.actions, (3, 2, 1): row}
    components = dict(C.components)
    components[3] = om
    bad = CooperadTruncation(Z, C.r_max, components, C.cocomp,
                             C.unit_name, C.counit_name)
    for r in range(C.r_max + 1):
        assert equivariance_parts(bad, r) == (False, None)
    rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    assert failing_laws(rep) == ["equivariance arity 2", "equivariance arity 3"]
