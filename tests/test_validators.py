"""The sparse validators against the dense reference loops, law by law.

Every comparison is on the whole ``Report.checks`` list, so the law
names, their order, the pass/fail flags and the failure witnesses must
all agree.  The spoiled structures each break one law family; both
validators must reject them at the same law with the same witness.
"""

import copy

import pytest

import dense_validators as dense
from opmc import cooperad
from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    be1_to_ass_iso,
    com_cochains,
    en_restriction_morphism,
)
from opmc.cooperad import CooperadMorphism, CooperadTruncation, HopfStructure
from opmc.errors import ValidationError
from opmc.rings import ring_make

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
Q = ring_make({"kind": "rationals"})

INSTANCES = {
    "ass-Z-3": lambda: ass_cochains(Z, 3, validate=False),
    "com-Q-3": lambda: com_cochains(Q, 3, validate=False),
    "E2-Z-d1": lambda: barratt_eccles(Z, 3, 1, n=2, validate=False),
    "E2-Z2-d1": lambda: barratt_eccles(Z2, 3, 1, n=2, validate=False),
    "Einf-Z2-d1": lambda: barratt_eccles(Z2, 3, 1, n=None, validate=False),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return request.param, INSTANCES[request.param]()


def failing_laws(rep):
    return [law for law, _ in rep.failures()]


def same_reports(sparse_rep, dense_rep):
    assert sparse_rep.checks == dense_rep.checks
    return sparse_rep


def test_cooperad_reports_match(instance):
    _, (C, _) = instance
    rep = same_reports(cooperad.validate_cooperad(C), dense.validate_cooperad(C))
    assert rep.ok


def test_hopf_reports_match(instance):
    label, (C, H) = instance
    rep = same_reports(cooperad.validate_hopf(C, H), dense.validate_hopf(C, H))
    if label.startswith("E"):
        # at d_max=1 the cup product drops the products of two edges, and
        # Delta of a product no longer matches
        assert failing_laws(rep) == ["hopf-cocomposition-compat arity 3"]
        assert rep.failures()[0][1][:3] == (3, 2, (1, 2))
    else:
        assert rep.ok


def test_cocom_unit_images_match(instance):
    _, (C, H) = instance
    try:
        want = dense.cocom_unit_morphism(C, H)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            cooperad.cocom_unit_morphism(C, H)
        assert str(got.value) == str(exc)
    else:
        assert cooperad.cocom_unit_morphism(C, H) == want


def test_morphism_reports_match():
    einf, _ = barratt_eccles(Z2, 3, 1, n=None, validate=False)
    e2, _ = barratt_eccles(Z2, 3, 1, n=2, validate=False)
    phi = en_restriction_morphism(einf, e2, validate=False)
    assert same_reports(cooperad.validate_morphism(phi),
                        dense.validate_morphism(phi)).ok

    be1, _ = barratt_eccles(Z, 3, 0, n=1, validate=False)
    ass, _ = ass_cochains(Z, 3, validate=False)
    iso = be1_to_ass_iso(be1, ass, validate=False)
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


def test_compositions_children_within_budget():
    for r_max in (2, 3, 4):
        for r in range(r_max + 1):
            for m in range(1, r_max + 1):
                assert (cooperad.compositions_children(r, m, r_max)
                        == dense.compositions_children(r, m, r_max))


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
    row[0] = (Z.add(coeff, 1), o, gs)
    bad = CooperadTruncation(Z, C.r_max, C.components, tables,
                             C.unit_name, C.counit_name)
    rep = same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    # Delta_{2;(2,0)} meets only itself in the coassociativity trees of
    # r_max=2, so the swap of its two slots is what catches it
    assert failing_laws(rep)[0] == "equivariance arity 2"
    rep = both_hopf(bad, HopfStructure(bad, H.products, H.units))
    assert failing_laws(rep)[0] == "hopf-cocomposition-compat arity 2"


def test_spoiled_hopf_unit(einf2):
    C, H = einf2
    units = dict(H.units)
    units[2] = C.component(2).module.gen("12")
    rep = both_hopf(C, HopfStructure(C, H.products, units))
    assert failing_laws(rep)[0] == "hopf-unit arity 2"


def test_spoiled_action_not_a_bijection(einf2):
    C, H = einf2
    # a hand-built module that skipped OrbitModule's checks: the swap now
    # sends both edges of one orbit to the same edge
    om = copy.copy(C.component(2))
    om._action = dict(om._action)
    om._action[((2, 1), "12|21")] = om._action[((2, 1), "21|12")]
    components = dict(C.components)
    components[2] = om
    bad = CooperadTruncation(Z, C.r_max, components, C.cocomp,
                             C.unit_name, C.counit_name)
    # the cocomposition tables of arity 2 only ever move the two edges
    # together, so the table laws cannot see this; both versions agree
    same_reports(cooperad.validate_cooperad(bad), dense.validate_cooperad(bad))
    rep = both_hopf(bad, HopfStructure(bad, H.products, H.units))
    assert failing_laws(rep)[0] == "hopf-equivariance arity 2"
