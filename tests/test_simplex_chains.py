import gc
from itertools import combinations, product

import pytest

from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    be_from_name,
    en_restriction_morphism,
)
from opmc.errors import ResourceLimitError, ShapeError
from opmc.rings import ring_make
from opmc.simplex_chains import (
    Surjection,
    c_coalgebra_decompose,
    chains,
    contraction,
    coproduct_plan,
    degeneracy_map,
    face_map,
    induced_map,
    surjection_action,
    table_reduction,
)

from dense_builders import surjection_boundary
from dense_convolution import (
    dense_einfty_decompose,
    dense_surjection_action,
    dense_table_reduction,
)
from helpers import (
    chain_gen,
    compose,
    decompose_over,
    map_add,
    map_eq,
    map_identity,
    map_scale,
    surjection_degree,
)

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})


def test_boundary_examples():
    cx = chains(Z, 2)
    d01 = cx.d.apply(chain_gen(cx, (0, 1)))
    assert d01.terms == {(1,): 1, (0,): -1}
    d012 = cx.d.apply(chain_gen(cx, (0, 1, 2)))
    assert d012.terms == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


@pytest.mark.parametrize("n", range(5))
def test_boundary_squares_to_zero(n):
    cx = chains(Z, n)
    assert compose(cx.d, cx.d).entries == {}


def test_basis_counts_and_degrees():
    cx = chains(Z, 3)
    assert len(cx.module) == 15
    assert cx.module.degree((0, 2, 3)) == 2
    assert cx.top() == (0, 1, 2, 3)


def test_induced_map_functoriality():
    # g o f induced = (g induced) o (f induced)
    src, mid, tgt = chains(Z, 1), chains(Z, 2), chains(Z, 3)
    f = [0, 2]
    g = [0, 1, 3]
    gf = induced_map([g[v] for v in f], src, tgt)
    comp = compose(induced_map(g, mid, tgt), induced_map(f, src, mid))
    assert map_eq(gf, comp)


def test_induced_map_is_chain_map():
    src, tgt = chains(Z, 2), chains(Z, 3)
    for f in combinations(range(4), 3):
        fm = induced_map(list(f), src, tgt)
        assert map_eq(compose(fm, src.d), compose(tgt.d, fm)), f
    # a non-injective vertex map still gives a chain map after collapse
    fm = induced_map([0, 1, 1], src, tgt)
    assert map_eq(compose(fm, src.d), compose(tgt.d, fm))


def test_face_and_degeneracy():
    f0 = face_map(Z, 0, 2)  # skips vertex 0: Delta^1 -> Delta^2
    assert f0.apply_name((0, 1)).terms == {(1, 2): 1}
    s0 = degeneracy_map(Z, 0, 1)  # repeats vertex 0: Delta^2 -> Delta^1
    assert s0.apply_name((0, 1)).is_zero()
    assert s0.apply_name((1, 2)).terms == {(0, 1): 1}
    assert s0.apply_name((0, 1, 2)).is_zero()


def test_chains_is_one_store():
    # every map reads its complexes from the one memoised store
    assert chains(Z, 2) is chains(Z, 2)
    assert chains(Z, 2) is not chains(Z2, 2)
    for n in (1, 2, 3):
        for i in range(n + 1):
            f = face_map(Z, i, n)
            assert f.source is chains(Z, n - 1).module
            assert f.target is chains(Z, n).module
            s = degeneracy_map(Z, i, n)
            assert s.source is chains(Z, n + 1).module
            assert s.target is chains(Z, n).module
        cx, eps, p, h = contraction(Z, 0, n)
        assert cx is chains(Z, n)
        assert eps.target is p.source is chains(Z, 0).module
        # maps are memoised too: a repeat call shares one map, which
        # has no mutator
        for build in (face_map, degeneracy_map, contraction):
            assert build(Z, 0, n) is build(Z, 0, n)
        assert not hasattr(face_map(Z, 0, n), "set")
        assert not any(hasattr(m, "set") for m in contraction(Z, 0, n)[1:])


def test_induced_map_rejects_bad_vertex_maps():
    src, tgt = chains(Z, 1), chains(Z, 2)
    with pytest.raises(ShapeError):
        induced_map([1, 0], src, tgt)
    with pytest.raises(ShapeError):
        induced_map([0, 3], src, tgt)
    with pytest.raises(ShapeError):
        induced_map([0], src, tgt)


@pytest.mark.parametrize("n", range(5))
def test_contraction_identity(n):
    for k in range(n + 1):
        cx, eps, p, h = contraction(Z, k, n)
        lhs = map_add(compose(cx.d, h), compose(h, cx.d))
        rhs = map_add(map_identity(cx.module),
                      map_scale(compose(p, eps), -1))
        assert map_eq(lhs, rhs), (n, k)
        assert compose(eps, p).apply_name((0,)).terms == {(0,): 1}


def test_contraction_examples():
    cx, eps, p, h = contraction(Z, 1, 2)
    assert h.apply_name((0, 2)).terms == {(0, 1, 2): -1}
    assert h.apply_name((0, 1)).is_zero()
    assert h.apply_name((1, 2)).is_zero()
    assert p.apply_name((0,)).terms == {(1,): 1}
    assert eps.apply_name((0, 1, 2)).is_zero()
    assert eps.apply_name((2,)).terms == {(0,): 1}


def test_surjection_validation():
    assert surjection_degree(Surjection((1, 2, 1))) == 1
    assert surjection_degree(Surjection((1, 2))) == 0
    with pytest.raises(ShapeError):
        Surjection((1, 1, 2))  # degenerate
    with pytest.raises(ShapeError):
        Surjection((1, 3))  # not onto
    with pytest.raises(ShapeError):
        Surjection(())


def test_action_identity_surjection():
    cx = chains(Z, 3)
    u = Surjection((1,))
    for I in cx.module.names:
        assert surjection_action(u, I) == {(I,): 1}


def test_action_degree_zero_is_alexander_whitney():
    # (1,2) cuts front/back; (2,1) the transposed cuts
    cx = chains(Z, 2)
    top = cx.top()
    assert surjection_action(Surjection((1, 2)), top) == {
        ((0,), (0, 1, 2)): 1,
        ((0, 1), (1, 2)): 1,
        ((0, 1, 2), (2,)): 1,
    }
    # the middle term regroups two degree-1 pieces past each other
    assert surjection_action(Surjection((2, 1)), top) == {
        ((0, 1, 2), (0,)): 1,
        ((1, 2), (0, 1)): -1,
        ((2,), (0, 1, 2)): 1,
    }


def test_action_cup_one_on_interval():
    got = surjection_action(Surjection((1, 2, 1)), (0, 1))
    assert got == {((0, 1), (0, 1)): 1}


def all_surjections(arity, length):
    out = []
    for seq in product(range(1, arity + 1), repeat=length):
        if set(seq) != set(range(1, arity + 1)):
            continue
        if any(seq[i] == seq[i + 1] for i in range(length - 1)):
            continue
        out.append(Surjection(seq))
    return out


def tensor_d(cx, terms):
    """Differential on {(J_1..J_r): coeff} with Koszul signs."""
    out = {}
    for key, c in terms.items():
        for i, J in enumerate(key):
            sgn = (-1) ** sum(len(key[j]) - 1 for j in range(i))
            for J2, c2 in cx.d.apply_name(J).terms.items():
                kk = key[:i] + (J2,) + key[i + 1:]
                out[kk] = out.get(kk, 0) + sgn * c * c2
    return {k: v for k, v in out.items() if v}


def add_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def scale_terms(a, c):
    return {k: c * v for k, v in a.items()}


@pytest.mark.parametrize("arity,max_len", [(2, 5), (3, 5)])
def test_action_is_chain_map(arity, max_len):
    # d(u . x) = (du) . x + (-1)^{|u|} u . (dx), exactly over Z
    cx = chains(Z, 2)
    for length in range(arity, max_len + 1):
        for u in all_surjections(arity, length):
            du = surjection_boundary(u)
            for I in cx.module.names:
                lhs = tensor_d(cx, surjection_action(u, I))
                rhs = {}
                for c, v in du:
                    rhs = add_terms(rhs, scale_terms(
                        surjection_action(v, I), c))
                sgn = (-1) ** surjection_degree(u)
                for J, c in cx.d.apply_name(I).terms.items():
                    rhs = add_terms(rhs, scale_terms(
                        surjection_action(u, J), sgn * c))
                assert lhs == rhs, (u, I)


def test_action_chain_map_spot_checks_n3():
    cx = chains(Z, 3)
    top = cx.top()
    for u in [Surjection(s) for s in
              [(1, 2, 1), (2, 1, 2), (1, 2, 1, 2), (1, 2, 3, 1), (2, 1, 3, 1)]]:
        lhs = tensor_d(cx, surjection_action(u, top))
        rhs = {}
        for c, v in surjection_boundary(u):
            rhs = add_terms(rhs, scale_terms(surjection_action(v, top), c))
        sgn = (-1) ** surjection_degree(u)
        for J, c in cx.d.apply_name(top).terms.items():
            rhs = add_terms(rhs, scale_terms(surjection_action(u, J),
                                             sgn * c))
        assert lhs == rhs, u


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_surjection_boundary_squares_to_zero(arity):
    for length in range(arity, arity + 3):
        for u in all_surjections(arity, length):
            acc = {}
            for c, v in surjection_boundary(u):
                for c2, w in surjection_boundary(v):
                    acc[w.seq] = acc.get(w.seq, 0) + c * c2
            assert all(c == 0 for c in acc.values()), u


@pytest.mark.parametrize("arity,max_len", [(1, 3), (2, 5), (3, 5), (4, 5)])
def test_surjection_action_matches_the_cut_loop(arity, max_len):
    # the pruned walk gives the per-cut loop's dict, insertion order
    # included, on every class of Delta^0..Delta^3 and the top of Delta^4
    classes = [I for n in range(4) for I in chains(Z, n).module.names]
    classes.append(chains(Z, 4).top())
    for length in range(arity, max_len + 1):
        for u in all_surjections(arity, length):
            for I in classes:
                got = surjection_action(u, I)
                want = dense_surjection_action(u, I)
                assert list(got.items()) == list(want.items()), (u, I)


def P(*images):
    from opmc.builders import Permutation

    return Permutation(images)


def test_table_reduction_examples():
    assert table_reduction((P(1, 2),)) == [Surjection((1, 2))]
    assert table_reduction((P(2, 1),)) == [Surjection((2, 1))]
    assert table_reduction((P(1, 2), P(2, 1))) == [Surjection((1, 2, 1))]
    assert table_reduction((P(2, 1), P(1, 2))) == [Surjection((2, 1, 2))]
    assert table_reduction((P(1, 2, 3), P(1, 3, 2))) == [
        Surjection((1, 2, 3, 2))
    ]


def test_table_reduction_lengths():
    # every output has length arity + dimension
    sims = [
        (P(1, 2), P(2, 1), P(1, 2)),
        (P(1, 2, 3), P(2, 1, 3), P(3, 1, 2)),
    ]
    for s in sims:
        for u in table_reduction(s):
            assert len(u.seq) == s[0].r + len(s) - 1


def test_table_reduction_matches_the_row_loop():
    # pruning a row whose first value repeats the previous one keeps the
    # list and its order, on every tuple of 1 to 4 permutations of 1..3
    perms = [P(*images) for images in product((1, 2, 3), repeat=3)
             if len(set(images)) == 3]
    perms += [P(1, 2), P(2, 1)]
    for d in range(4):
        for simplex in product(perms, repeat=d + 1):
            if len({p.r for p in simplex}) != 1:
                continue
            want = dense_table_reduction(simplex)
            assert table_reduction(simplex) == want, simplex


@pytest.mark.parametrize("walk", ["table_reduction", "surjection_action"])
def test_walks_leave_no_reference_cycle(walk):
    # each walk recurses through a closure; one call must leave nothing
    # for the cyclic collector to find
    call = {
        "table_reduction": lambda: table_reduction(
            (P(1, 2, 3), P(2, 1, 3), P(3, 1, 2))),
        "surjection_action": lambda: surjection_action(
            Surjection((1, 2, 1, 3, 2)), (0, 1, 2, 3)),
    }[walk]
    gc.collect()
    gc.disable()
    try:
        assert call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_einfty_decompose_counit():
    E, _ = barratt_eccles(Z, 3, 2, n=2, validate=False)
    cx = chains(Z, 2)
    for I in cx.module.names:
        got = decompose_over(E, I, 1)
        assert got == {("1", (I,)): 1}, I
    assert decompose_over(E, (0, 1), 0) == {}
    with pytest.raises(ShapeError):
        decompose_over(E, (0, 1), 4)


def test_einfty_decompose_cap():
    E, _ = barratt_eccles(Z, 3, 2, n=2, validate=False)
    cx = chains(Z, 2)
    with pytest.raises(ResourceLimitError):
        decompose_over(E, cx.top(), 2, cap=3)


@pytest.mark.parametrize("ring", [Z, Z2], ids=["Z", "Z2"])
def test_einfty_decompose_matches_plain_loop(ring):
    # one action per distinct surjection gives the plain loop's dict,
    # insertion order included, on top and non-top classes
    E, _ = barratt_eccles(ring, 3, 2, n=2, validate=False)
    pairs = [surj.seq for name in E.basis_names(3)
             for surj in table_reduction(be_from_name(name))]
    assert len(set(pairs)) < len(pairs)
    for n in (0, 1, 2, 3):
        cx = chains(ring, n)
        for I in cx.module.names:
            for r in (1, 2, 3):
                got = decompose_over(E, I, r)
                want, _ = dense_einfty_decompose(E, I, r)
                assert list(got.items()) == list(want.items()), (n, I, r)


@pytest.mark.parametrize("r", [2, 3])
def test_einfty_decompose_cap_counts_every_term_read(r):
    # a shared action still counts each of its terms where it is read
    E, _ = barratt_eccles(Z, 3, 2, n=2, validate=False)
    cx = chains(Z, 3)
    for I in ((0, 1, 3), cx.top()):
        want, count = dense_einfty_decompose(E, I, r)
        assert decompose_over(E, I, r, cap=count) == want
        with pytest.raises(ResourceLimitError):
            decompose_over(E, I, r, cap=count - 1)


def test_einfty_decompose_interval():
    E, _ = barratt_eccles(Z, 2, 2, n=2, validate=False)
    got = decompose_over(E, (0, 1), 2)
    assert got == {
        ("12", ((0,), (0, 1))): 1,
        ("12", ((0, 1), (1,))): 1,
        ("21", ((0, 1), (0,))): 1,
        ("21", ((1,), (0, 1))): 1,
        ("12|21", ((0, 1), (0, 1))): 1,
        ("21|12", ((0, 1), (0, 1))): -1,
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cup_product_recovery(n):
    # the degree-0 part at the front permutation recovers the classical
    # front-face/back-face diagonal on the top class
    E, _ = barratt_eccles(Z, 2, n + 1, n=n, validate=False)
    cx = chains(Z, n)
    top = cx.top()
    got = decompose_over(E, top, 2)
    aw = {k: c for (nm, k), c in got.items() if nm == "12"}
    want = {
        (tuple(range(i + 1)), tuple(range(i, n + 1))): 1
        for i in range(n + 1)
    }
    assert aw == want


def test_c_coalgebra_decompose_via_renaming():
    # push along the complexity-one renaming: only vertex tuples survive
    E1, _ = barratt_eccles(Z, 2, 2, n=1, validate=False)
    assC, _ = ass_cochains(Z, 2)
    phi = en_restriction_morphism(E1, assC)
    got = c_coalgebra_decompose(coproduct_plan(phi, 2), (0, 1))
    assert got == {
        ("12", ((0,), (0, 1))): 1,
        ("12", ((0, 1), (1,))): 1,
        ("21", ((0, 1), (0,))): 1,
        ("21", ((1,), (0, 1))): 1,
    }


def test_c_coalgebra_decompose_via_restriction():
    # restrict the two-dimensional truncation straight to the vertex
    # names: higher names die, and the complexity-one route agrees
    E2, _ = barratt_eccles(Z, 2, 2, n=2, validate=False)
    E1, _ = barratt_eccles(Z, 2, 2, n=1, validate=False)
    assC, _ = ass_cochains(Z, 2)
    got = c_coalgebra_decompose(
        coproduct_plan(en_restriction_morphism(E2, assC), 2), (0, 1))
    want = c_coalgebra_decompose(
        coproduct_plan(en_restriction_morphism(E1, assC), 2), (0, 1))
    assert got == want


def test_decompose_mod_two():
    # signs disappear but the support is the same
    Ez, _ = barratt_eccles(Z, 2, 2, n=2, validate=False)
    E2, _ = barratt_eccles(Z2, 2, 2, n=2, validate=False)
    a = decompose_over(Ez, (0, 1, 2), 2)
    b = decompose_over(E2, (0, 1, 2), 2)
    assert b == {k: 1 for k, c in a.items() if c % 2}
