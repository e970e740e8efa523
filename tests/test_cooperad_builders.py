import copy
import random
from pathlib import Path

import pytest

from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    be_chain_operad,
    be_from_name,
    com_cochains,
    en_restriction_morphism,
    perm_from_name,
    perm_name,
)
from opmc.cooperad import (
    CooperadTruncation,
    HopfStructure,
    validate_cooperad,
    validate_hopf,
    validate_morphism,
)
from opmc.errors import RingRequirementError, ValidationError
from opmc.instances import load_instance
from opmc.rings import ring_make
from opmc.symmetric import Permutation, TrivialModule, all_permutations

Z = ring_make({"kind": "integers"})
Q = ring_make({"kind": "rationals"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})


# -- independent oracle: partial composition of permutations via list
# semantics (substitute a block, then rearrange by value order)


def as_sequence_op(p):
    """A permutation as an operation reordering sequences."""
    return lambda xs: [xs[p(j) - 1] for j in range(1, p.r + 1)]


def partial_compose_oracle(outer, i, inner):
    """outer o_i inner via nested evaluation on labelled letters."""
    k, m = outer.r, inner.r
    r = k + m - 1
    letters = list(range(1, r + 1))
    blocks = []
    for j in range(1, k + 1):
        if j < i:
            blocks.append([letters[j - 1]])
        elif j == i:
            blocks.append(as_sequence_op(inner)(letters[i - 1:i - 1 + m]))
        else:
            blocks.append([letters[j + m - 2]])
    flat = [x for blk in as_sequence_op(outer)(blocks) for x in blk]
    # flat[p-1] is the letter at output position p, i.e. the image tuple
    return Permutation(tuple(flat))


@pytest.fixture(scope="module")
def ass3():
    return ass_cochains(Z, 3)


def test_ass_validates(ass3):
    C, H = ass3
    assert validate_cooperad(C).ok
    assert validate_hopf(C, H).ok


def test_ass_uc2_rank(ass3):
    C, _ = ass3
    assert len(C.component(2).module) == 2
    assert len(C.component(3).module) == 6
    assert C.degree(2, "12") == 0


def test_corrupted_table_detected(ass3):
    C, _ = ass3
    tables = copy.deepcopy(C.cocomp)
    key = (2, (1, 2))
    name = next(iter(tables[key]))
    coeff, o, gs = tables[key][name][0]
    tables[key][name][0] = (Z.add(coeff, 1), o, gs)
    bad = CooperadTruncation(Z, C.r_max, C.components, tables,
                             C.unit_name, C.counit_name)
    rep = validate_cooperad(bad)
    assert not rep.ok
    assert rep.failures()


def one_inner_terms(C, r, c):
    """(k, i, m, outer, inner, coeff) of Delta(c) on the shapes
    (1^(i-1), m, 1^(k-i)) with m != 1, read from the tables; every other
    inner slot carries the counit, the only name of arity 1."""
    out = []
    for m in range(C.r_max + 1):
        k = r - m + 1
        if m == 1 or not 1 <= k <= C.r_max:
            continue
        for i in range(1, k + 1):
            shape = (1,) * (i - 1) + (m,) + (1,) * (k - i)
            for coeff, o, gs in C.cocompose(k, shape, c):
                assert all(g == C.counit_name for j, g in enumerate(gs) if j != i - 1)
                out.append((k, i, m, o, gs[i - 1], coeff))
    return out


def test_infinitesimal_matches_partial_duals(ass3):
    C, _ = ass3
    for r in (2, 3):
        for c in C.basis_names(r):
            got = {}
            for k, i, m, out, inner, coeff in one_inner_terms(C, r, c):
                if m < 2:
                    continue
                got.setdefault((k, i, m), {})[(out, inner)] = coeff
            expect = {}
            for m in range(2, C.r_max + 1):
                k = r - m + 1
                if k < 1:
                    continue
                for i in range(1, k + 1):
                    table = {}
                    for outer in all_permutations(k):
                        for inner in all_permutations(m):
                            res = partial_compose_oracle(outer, i, inner)
                            if perm_name(res) == c:
                                table[(perm_name(outer), perm_name(inner))] = Z.one
                    if table:
                        expect[(k, i, m)] = table
            assert got == expect, (r, c)


def test_infinitesimal_arity0_insertions(ass3):
    C, _ = ass3
    # inserting the unitary element into delta_sigma, sigma in S_2, yields
    # arity-3 outers composing down to sigma when one input is deleted
    terms = one_inner_terms(C, 2, "21")
    zero_arity = [(out, i) for k, i, m, out, inner, coeff in terms if m == 0]
    assert zero_arity  # insertion terms exist
    for out, i in zero_arity:
        mu = perm_from_name(out)
        shape = tuple(0 if j == i else 1 for j in range(1, mu.r + 1))
        from opmc.builders import compose_permutations

        composed = compose_permutations(
            mu, shape, [Permutation(()) if s == 0 else Permutation((1,)) for s in shape]
        )
        assert perm_name(composed) == "21"


def test_counit_infinitesimal_trivial(ass3):
    C, _ = ass3
    counit = C.counit_name
    assert [t for t in one_inner_terms(C, 1, counit) if t[2] >= 2] == []
    # the terms with every inner of arity 1 are the counit law's: c over
    # the counit in each slot, the counit itself included
    assert C.cocompose(1, (1,), counit) == [(Z.one, counit, (counit,))]
    for r in range(1, C.r_max + 1):
        for c in C.basis_names(r):
            assert C.cocompose(r, (1,) * r, c) == [(Z.one, c, (counit,) * r)]


def test_cocom_unit_morphism(ass3):
    # eta_r, the image of the arity-r generator of uCOCOM, is the sum of
    # the permutations; validate_hopf checks that eta is a morphism
    C, H = ass3
    assert H.unit(2).terms == {"12": 1, "21": 1}
    assert H.unit(0).terms == {C.unit_name: 1}
    laws = {law: ok for law, ok, _ in validate_hopf(C, H).checks}
    assert [laws[f"hopf-unit-cocomposition arity {r}"] for r in range(4)] == [
        True] * 4
    units = dict(H.units)
    units[3] = H.unit(3).scale(2)
    rep = validate_hopf(C, HopfStructure(C, H.products, units))
    # 2 eta_3 is no unit, and each arity has a shape with outer arity 3
    assert [law for law, _ in rep.failures()] == ["hopf-unit arity 3"] + [
        f"hopf-unit-cocomposition arity {r}" for r in range(4)]


def test_hopf_validators_catch_breakage(ass3):
    C, H = ass3
    broken = {r: dict(t) for r, t in H.products.items()}
    broken[2] = {k: [] for k in broken[2]}
    rep = validate_hopf(C, HopfStructure(C, broken, H.units))
    assert any("hopf-unit arity 2" in law for law, _ in rep.failures())

    units = dict(H.units)
    units[2] = C.component(2).module.gen("12")
    rep = validate_hopf(C, HopfStructure(C, H.products, units))
    assert not rep.ok


def test_com_requires_rationals():
    with pytest.raises(RingRequirementError):
        com_cochains(Z, 3)


def test_com_validates():
    C, H = com_cochains(Q, 3)
    assert validate_cooperad(C).ok
    assert validate_hopf(C, H).ok
    assert all(type(C.component(r)) is TrivialModule for r in range(4))


# ---------------------------------------------------------------------------
# Barratt-Eccles


def test_be_arity2_ranks():
    C, _ = barratt_eccles(Z, 2, 2, n=None, validate=False)
    names = C.basis_names(2)
    by_deg = {}
    for nm in names:
        by_deg.setdefault(C.degree(2, nm), []).append(nm)
    # two alternating tuples per dimension
    assert {d: len(v) for d, v in by_deg.items()} == {0: 2, -1: 2, -2: 2}


def test_be_chain_differential_squares_to_zero():
    op = be_chain_operad(Z, 2, 3, n=None)
    for r in (0, 1, 2):
        for nm in op.components[r].module.names:
            acc = {}
            for c1, mid in op.differential(r, nm):
                for c2, out in op.differential(r, mid):
                    acc[out] = acc.get(out, 0) + c1 * c2
            assert all(v == 0 for v in acc.values()), (r, nm)


def test_be_composition_is_chain_map():
    # d(gamma(a; b)) = gamma(da; b) + (-1)^{|a|} gamma(a; db) on samples
    op = be_chain_operad(Z, 3, 2, n=None)
    rng = random.Random(4)
    shapes = [((2,), 1), ((1, 1), 2), ((1, 2), 2), ((2, 0), 2), ((1, 1, 1), 3)]
    for shape, k in shapes:
        outers = op.components[k].module.names
        inner_pools = [op.components[ri].module.names for ri in shape]
        for _ in range(60):
            a = rng.choice(outers)
            bs = [rng.choice(pool) for pool in inner_pools]
            total = op.components[k].module.degree(a) + sum(
                op.components[shape[j]].module.degree(bs[j]) for j in range(len(bs))
            )
            if total > 2:
                # composite falls outside the dimension window; the
                # truncated composition is no longer a chain map there
                continue
            lhs = {}
            for c, nm in op.compose(a, shape, bs):
                for c2, out in op.differential(sum(shape), nm):
                    lhs[out] = lhs.get(out, 0) + c * c2
            rhs = {}
            for c, da in op.differential(k, a):
                for c2, nm in op.compose(da, shape, bs):
                    rhs[nm] = rhs.get(nm, 0) + c * c2
            sign = 1 if op.components[k].module.degree(a) % 2 == 0 else -1
            for i, b in enumerate(bs):
                prefix = sum(
                    op.components[shape[j]].module.degree(bs[j]) for j in range(i)
                )
                s2 = sign * (1 if prefix % 2 == 0 else -1)
                for c, db in op.differential(shape[i], b):
                    bs2 = list(bs)
                    bs2[i] = db
                    for c2, nm in op.compose(a, shape, bs2):
                        rhs[nm] = rhs.get(nm, 0) + s2 * c * c2
            lhs = {k2: v for k2, v in lhs.items() if v}
            rhs = {k2: v for k2, v in rhs.items() if v}
            assert lhs == rhs, (shape, a, bs)


def test_be_validates_n2_r3():
    C, H = barratt_eccles(Z, 3, 2, n=2, validate=False)
    assert validate_cooperad(C).ok
    assert validate_hopf(C, H).ok


def test_be1_matches_ass():
    be1, _ = barratt_eccles(Z, 3, 2, n=1, validate=False)
    ass, _ = ass_cochains(Z, 3, validate=False)
    for r in range(4):
        assert len(be1.component(r).module) == len(ass.component(r).module)
        assert all(be1.degree(r, nm) == 0 for nm in be1.basis_names(r))
    phi = en_restriction_morphism(be1, ass)
    for r in range(4):
        for nm in be1.basis_names(r):
            (vertex,) = be_from_name(nm)
            assert phi.maps[r].apply_name(nm).terms == {perm_name(vertex): 1}
    assert validate_morphism(phi).ok


def cooperad_items(C, H):
    """Everything a cochain cooperad and its Hopf structure hold, as
    ordered lists: names, degrees, orbit reps, action tables,
    cocomposition tables with term order, products and units."""
    arities = []
    for r in range(C.r_max + 1):
        comp = C.component(r)
        names = list(comp.module.names)
        arities.append((
            names, [C.degree(r, nm) for nm in names], list(comp.orbit_reps),
            [(sigma.images, nm, comp.act_name(sigma, nm))
             for sigma in comp.group() for nm in names],
            list(H.products[r].items()), list(H.unit(r).terms.items()),
        ))
    tables = [(key, list(table.items())) for key, table in C.cocomp.items()]
    return C.label, C.unit_name, C.counit_name, arities, tables


@pytest.mark.parametrize("r_max", [2, 3, 4])
@pytest.mark.parametrize("ring", [Z, Z2, Q], ids=["Z", "Z2", "Q"])
def test_ass_is_complexity_one_be(ring, r_max):
    assert (cooperad_items(*ass_cochains(ring, r_max, validate=False))
            == cooperad_items(*barratt_eccles(ring, r_max, 0, n=1,
                                              validate=False)))


def test_einfty_to_en_restriction():
    einf, _ = barratt_eccles(Z, 3, 2, n=None, validate=False)
    e2, _ = barratt_eccles(Z, 3, 2, n=2, validate=False)
    phi = en_restriction_morphism(einf, e2)
    # positive-complexity classes die
    dead = [nm for nm in einf.basis_names(2) if nm not in set(e2.basis_names(2))]
    assert dead
    for nm in dead:
        assert phi.maps[2].apply_name(nm).is_zero()


def test_complete_e2_restricts_to_e1_and_the_shipped_e2():
    """``e2c_z2.json`` omits d_max, so it loads complete E2 at r_max 3,
    whose arity-3 top degree is (2 - 1) * C(3, 2) = 3."""
    data = Path(__file__).parent / "data"
    e2c = load_instance(str(data / "e2c_z2.json")).cooperad
    assert min(e2c.degree(3, nm) for nm in e2c.basis_names(3)) == -3
    e1, _ = barratt_eccles(Z2, 3, 0, n=1)
    e2 = load_instance(str(data / "e2_z2.json")).cooperad
    for target in (e1, e2):
        report = validate_morphism(en_restriction_morphism(e2c, target,
                                                           validate=False))
        assert report.ok


def test_cup_unit_is_vertex_sum():
    C, H = barratt_eccles(Z, 2, 2, n=None, validate=False)
    eta = H.unit(2)
    assert all(C.degree(2, nm) == 0 for nm in eta.terms)
    assert len(eta.terms) == 2
