import json
import random
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    en_restriction_morphism,
)
from opmc.cli import horn_from_doc
from opmc.cofree import Coderivation, cofree_build, square_check
from opmc.errors import (
    ConventionError,
    PreconditionError,
    ResourceLimitError,
    ShapeError,
    UnsupportedError,
)
from opmc import builders, instances, mc_space, simplex_chains
from opmc.graded import BasisElement, GradedModule
from opmc.mc_space import ConvolutionElement, HornData, MCProblem, horn_basis
from opmc.rings import ring_make
from opmc.simplex_chains import (
    c_coalgebra_decompose,
    chains,
    contraction,
    degeneracy_map,
    face_map,
)
from opmc.twisting import mc_enumerate

from dense_convolution import dense_mu, dense_precompose
from helpers import random_coderivation

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})


def make_problem(ring, comps=None, spec=(("x", 0, 1), ("u", 1, 1), ("y", -1, 1)),
                 r_max=3, w_max=3):
    C, H = ass_cochains(ring, r_max, validate=False)
    V = GradedModule(ring, [BasisElement(n, d, w) for n, d, w in spec])
    cf = cofree_build(C, V, w_max)
    if comps is None:
        comps = {(2, "12", ("x", "x")): V.gen("y")}
    Qt = Coderivation(cf, {k: _mk(V, v) for k, v in comps.items()})
    E1, _ = barratt_eccles(ring, r_max, 2, n=1, validate=False)
    phi = en_restriction_morphism(E1, C)
    return MCProblem(Qt, phi), H


def _mk(V, v):
    return v


def rand_psi(P, rng, n, deg=0, coeffs=(-2, -1, 1, 2)):
    V = P.V
    psi = P.zero(n, deg)
    for I in P.chains(n).module.names:
        want = len(I) - 1 + deg
        val = V.zero()
        for vn in V.names:
            if V.degree(vn) == want and rng.random() < 0.7:
                val = val.add(V.gen(vn, rng.choice(coeffs)))
        psi.set(I, val)
    return psi


def test_convolution_element_basics():
    P, _ = make_problem(Z)
    psi = P.zero(1)
    psi.set((0,), P.V.gen("x", 2))
    psi.set((0, 1), P.V.gen("u"))
    assert psi.value((0,)).terms == {"x": 2}
    assert psi.value((1,)).is_zero()
    assert psi.support() == [(0,), (0, 1)]
    assert psi.sub(psi).is_zero()
    assert psi.add(psi).eq(psi.scale(2))
    with pytest.raises(ShapeError):
        psi.set((0, 1), P.V.gen("x"))  # wrong degree
    with pytest.raises(ShapeError):
        psi.set((0, 2), P.V.gen("u"))  # not a class of Delta^1


def test_differential_without_structure_is_boundary_dual():
    # no arity-1 component: d(psi)(e_ij) = psi(e_i) - psi(e_j)
    P, _ = make_problem(Z)
    psi = P.zero(2)
    vals = {0: 1, 1: 2, 2: 5}
    for i, c in vals.items():
        psi.set((i,), P.V.gen("x", c))
    d = P.differential(psi)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert d.value((i, j)).eq(P.V.gen("x", vals[i] - vals[j]))
    assert d.value((0, 1, 2)).is_zero()
    assert d.degree == -1


def test_differential_squares_to_zero():
    comps = {(2, "12", ("x", "x")): None, (1, "1", ("u",)): None}
    P, _ = make_problem(Z, comps={})
    V = P.V
    Qt = Coderivation(P.cofree, {
        (2, "12", ("x", "x")): V.gen("y"),
        (1, "1", ("u",)): V.gen("x", 2),
    })
    P2 = MCProblem(Qt, P.phi)
    rng = random.Random(1)
    for n in (1, 2):
        for deg in (-1, 0, 1):
            psi = rand_psi(P2, rng, n, deg)
            assert P2.differential(P2.differential(psi)).is_zero(), (n, deg)


def test_mu_multilinearity():
    P, _ = make_problem(Z)
    rng = random.Random(2)
    a, b = rand_psi(P, rng, 1), rand_psi(P, rng, 1)
    c = rand_psi(P, rng, 1)
    lhs = P.mu([a.add(b.scale(3)), c])
    rhs = P.mu([a, c]).add(P.mu([b, c]).scale(3))
    assert lhs.eq(rhs)
    assert P.mu([P.zero(1), c]).is_zero()


def test_star_expansion_consistency():
    P, _ = make_problem(Z)
    rng = random.Random(3)
    for n in (0, 1, 2):
        psi = rand_psi(P, rng, n)
        want = P.zero(n, -1)
        for r in range(2, P.C.r_max + 1):
            want = want.add(P.mu([psi] * r))
        assert P.star(psi).eq(want)


def test_star_requires_flat_and_degree_zero():
    P, _ = make_problem(Z)
    curved = Coderivation(P.cofree, {
        (0, P.C.unit_name, ()): P.V.gen("y"),
        (2, "12", ("x", "x")): P.V.gen("y"),
    })
    Pc = MCProblem(curved, P.phi)
    with pytest.raises(ConventionError):
        Pc.star(Pc.zero(1))
    with pytest.raises(ShapeError):
        P.star(P.zero(1, 1))


def test_mc_check_vertex_matches_enumeration():
    P, H = make_problem(Z2, spec=(("x", 0, 1), ("y", -1, 1)))
    mc0 = P.mc_simplices(0)
    got = sorted(repr(p.value((0,))) for p in mc0)
    want = sorted(repr(s) for s in mc_enumerate(H, P.Qt))
    assert got == want == ["0", "1*x"]


def test_mc_check_reports_witness():
    P, _ = make_problem(Z2, spec=(("x", 0, 1), ("y", -1, 1)))
    psi = P.zero(1)
    psi.set((0,), P.V.gen("x"))
    # endpoints differ with no edge data: not a solution
    ok, defect = P.mc_check(psi)
    assert not ok
    assert defect.value((0, 1)).eq(P.V.gen("x"))


def test_mc_simplices_guards():
    Pz, _ = make_problem(Z)
    with pytest.raises(UnsupportedError):
        Pz.mc_simplices(0)
    P2, _ = make_problem(Z2)
    with pytest.raises(ResourceLimitError):
        P2.mc_simplices(2, cap=3)


def test_trivial_structure_gives_cycles():
    # no coderivation at all: solutions are exactly the degree-0 cycles
    P, _ = make_problem(Z2, comps={}, spec=(("x", 0, 1), ("u", 1, 1)))
    sols = P.mc_simplices(1)
    cx = P.chains(1)
    count = 0
    for cs in product((0, 1), repeat=3):
        psi = P.zero(1)
        vals = {(0,): cs[0], (1,): cs[1], (0, 1): cs[2]}
        psi.set((0,), P.V.gen("x", cs[0]))
        psi.set((1,), P.V.gen("x", cs[1]))
        psi.set((0, 1), P.V.gen("u", cs[2]))
        if P.differential(psi).is_zero():
            count += 1
            assert any(psi.eq(s) for s in sols)
    assert count == len(sols)


def test_faces_and_degeneracies_preserve_solutions():
    P, _ = make_problem(Z2)
    rng = random.Random(4)
    pool = P.mc_simplices(1, cap=10000)
    assert pool
    for psi in pool[:6]:
        for i in (0, 1):
            face = P.face(i, psi)  # verifies preservation internally
            assert face.value((0,)).eq(psi.value((i,)))
        for j in (0, 1):
            up = P.degeneracy(j, psi)
            assert P.mc_check(up)[0]
            # simplicial identity: s then the two adjacent faces recover psi
            assert P.face(j, up).eq(psi)
            assert P.face(j + 1, up).eq(psi)


def test_simplicial_identity_on_faces():
    # d_i d_j = d_{j-1} d_i for i < j on arbitrary elements
    P, _ = make_problem(Z)
    rng = random.Random(5)
    psi = rand_psi(P, rng, 3)
    for j in range(1, 4):
        for i in range(j):
            a = P.face(i, P.face(j, psi, verify=False), verify=False)
            b = P.face(j - 1, P.face(i, psi, verify=False), verify=False)
            assert a.eq(b), (i, j)


def _lifted_contraction(P, k, n):
    """H and P on convolution elements of the n-simplex: precomposition
    with the contraction's homotopy h, and with the projection p o eps
    through the point."""
    cx, eps, p, h = contraction(P.ring, k, n)
    pt = P.chains(0)
    return (lambda psi: psi.precompose(h, cx),
            lambda psi: psi.precompose(p, pt).precompose(eps, cx))


@pytest.mark.parametrize("n", range(5))
def test_lifted_homotopy_identity(n):
    # dH + Hd = id - P, with the Koszul sign of precompose on odd elements
    P, _ = make_problem(Z)
    rng = random.Random(6)
    for k in range(n + 1):
        H_op, P_op = _lifted_contraction(P, k, n)
        for deg in (-1, 0, 1):
            psi = rand_psi(P, rng, n, deg)
            gamma = H_op(psi)
            assert gamma.degree == deg + 1
            lhs = P.differential(gamma).add(H_op(P.differential(psi)))
            assert lhs.eq(psi.sub(P_op(psi))), (n, k, deg)
            proj = P_op(psi)
            for I in proj.support():
                assert len(I) == 1 and proj.value(I).eq(psi.value((k,)))


def test_projection_is_vertex_constant():
    P, _ = make_problem(Z)
    rng = random.Random(7)
    psi = rand_psi(P, rng, 2, 0)
    _, P_op = _lifted_contraction(P, 1, 2)
    proj = P_op(psi)
    for I in P.chains(2).module.names:
        if len(I) == 1:
            assert proj.value(I).eq(psi.value((1,)))
        else:
            assert proj.value(I).is_zero()


def test_horn_fill_refuses_past_the_cap(monkeypatch):
    P, _ = make_problem(Z)
    capped = MCProblem(P.Qt, P.phi, cap=100)

    def contraction(*args):
        raise AssertionError("the contraction was built before the refusal")

    # the 7-simplex has 2^8 - 1 = 255 chain classes: refused before any
    # complex is built
    monkeypatch.setattr(mc_space, "contraction", contraction)
    with pytest.raises(ResourceLimitError):
        capped.horn_fill(HornData(7, 0, P.V, {}))


def test_mu2_cocycle_operator_identity():
    # the arity-2 operation commutes with the convolution differential
    # as an odd (degree -1) operation, provided the coderivation
    # squares to zero: d(mu2) + mu2 o (d (x) 1 + 1 (x) d) = 0
    V_spec = (("x", 0, 1), ("u", 1, 1), ("y", -1, 1))
    P, _ = make_problem(Z, comps={}, spec=V_spec)
    Qt = Coderivation(P.cofree, {
        (2, "12", ("x", "x")): P.V.gen("y"),
    })
    ok, _ = square_check(Qt)
    assert ok
    P2 = MCProblem(Qt, P.phi)
    rng = random.Random(8)
    for n in (1, 2):
        for d1, d2 in [(0, 0), (-1, 0), (0, 1), (1, -1)]:
            a, b = rand_psi(P2, rng, n, d1), rand_psi(P2, rng, n, d2)
            lhs = P2.differential(P2.mu([a, b]))
            rhs = P2.mu([P2.differential(a), b]).add(
                P2.mu([a, P2.differential(b)]).scale((-1) ** d1)
            )
            assert lhs.add(rhs).is_zero(), (n, d1, d2)


# the cooperads, coderivations and morphisms are built once per module;
# each test makes its own MCProblem, so no test sees another's caches


@lru_cache(maxsize=None)
def odd_parts():
    """make_problem(Z) with components on the odd cogenerators u (degree
    1) and y (degree -1), in arities 1 to 3, so Koszul signs show."""
    P, _ = make_problem(Z, comps={})
    V = P.V
    Qt = Coderivation(P.cofree, {
        (1, "1", ("u",)): V.gen("x", 2),
        (1, "1", ("x",)): V.gen("y", 3),
        (2, "12", ("x", "x")): V.gen("y"),
        (2, "12", ("x", "u")): V.gen("x", 2),
        (2, "12", ("u", "y")): V.gen("y", -1),
        (2, "12", ("u", "u")): V.gen("u", 3),
        (3, "123", ("x", "u", "x")): V.gen("x"),
        (3, "123", ("u", "u", "y")): V.gen("x", -2),
    })
    return Qt, P.phi


@lru_cache(maxsize=None)
def e2_parts(ring):
    """E2 cochains (r_max 3, d_max 2) acting through the identity
    restriction, with components on cooperad classes of degree 0 and -1."""
    C, _ = barratt_eccles(ring, 3, 2, n=2, validate=False)
    V = GradedModule(ring, [
        BasisElement("x", 0, 1), BasisElement("u", 1, 1),
        BasisElement("y", -1, 1),
    ])
    cf = cofree_build(C, V, 3)
    Qt = Coderivation(cf, {
        (2, "12", ("x", "x")): V.gen("y"),
        (2, "12", ("x", "u")): V.gen("x"),
        (2, "12|21", ("x", "u")): V.gen("y"),
        (2, "12|21", ("u", "u")): V.gen("x", -1),
        (3, "123", ("x", "u", "x")): V.gen("x"),
        (3, "123|132", ("u", "u", "x")): V.gen("x", 3),
    })
    return Qt, en_restriction_morphism(C, C, validate=False)


def _mu_matches_dense(parts, seed, n, r, degrees, same):
    # two calls on one fresh problem: the second runs on the stored
    # coproducts and evaluations the first left, with other degrees.
    # Each is repeated, reading every class from the memo, and run on
    # the arguments' last faces, whose classes the memo holds as well.
    P = MCProblem(*parts)
    rng = random.Random(seed)
    for degs in (degrees, degrees[::-1]):
        if same:
            psis = [rand_psi(P, rng, n, degs[0])] * r
        else:
            psis = [rand_psi(P, rng, n, d) for d in degs[:r]]
        runs = [psis, psis]
        if n >= 1:
            faces = {id(p): P.face(n, p, verify=False) for p in psis}
            runs.append([faces[id(p)] for p in psis])
        for i, args in enumerate(runs):
            stored = len(P._mus)
            got, want = P.mu(args), dense_mu(P, args)
            assert got.degree == want.degree
            assert got.eq(want)
            if i and r <= P.C.r_max:
                assert len(P._mus) == stored


_DEGREES = st.lists(st.sampled_from((-1, 0, 1)), min_size=4, max_size=4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 3),
       r=st.integers(1, 4), degrees=_DEGREES, same=st.booleans())
def test_mu_matches_dense_oracle_over_z(seed, n, r, degrees, same):
    # r runs to r_max + 1, where mu is zero
    _mu_matches_dense(odd_parts(), seed, n, r, degrees, same)


@pytest.mark.parametrize("ring", [Z2, Z], ids=["Z2", "Z"])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 2),
       r=st.integers(1, 4), degrees=_DEGREES, same=st.booleans())
def test_mu_matches_dense_oracle_e2(ring, seed, n, r, degrees, same):
    _mu_matches_dense(e2_parts(ring), seed, n, r, degrees, same)


Z3 = ring_make({"kind": "integers-mod-m", "modulus": 3})
Z4 = ring_make({"kind": "integers-mod-m", "modulus": 4})


def _chain_maps_into(ring, n):
    """(name, chain map into the n-simplex, its source chains) for each
    kind of map ``precompose`` meets: the faces, the degeneracies, the
    boundary d, and per vertex the homotopy h, twice h (a non-unit row
    over Z/4) and the projection p o eps."""
    cx = chains(ring, n)
    maps = [(f"face{i}", face_map(ring, i, n), chains(ring, n - 1))
            for i in range(n + 1) if n]
    maps += [(f"degeneracy{j}", degeneracy_map(ring, j, n), chains(ring, n + 1))
             for j in range(n + 1)]
    maps.append(("d", cx.d, cx))
    for k in range(n + 1):
        _, eps, p, h = contraction(ring, k, n)
        maps += [(f"h{k}", h, cx), (f"2h{k}", h.scale(2), cx),
                 (f"p eps{k}", p.compose(eps), cx)]
    return maps


def _as_items(elem):
    """The values of a convolution element with their order and the
    order of their terms."""
    return [(I, list(v.terms.items())) for I, v in elem.values.items()]


@pytest.mark.parametrize("ring", [Z, Z2, Z3, Z4], ids=["Z", "Z2", "Z3", "Z4"])
def test_precompose_matches_dense_oracle(ring):
    # sparse elements of degree -1, 0 and 1, so rows that miss the
    # support are met, composed with every kind of map; values, their
    # order and their term order must be the oracle's
    V = GradedModule(ring, [BasisElement(f"{b}{d}", d, 1)
                            for d in range(-1, 5) for b in "ab"])
    coeffs = ring.elements() if ring.finite else (-3, -2, -1, 1, 2)
    rng = random.Random(24)
    nonzero = 0
    for n in range(4):
        for deg in (-1, 0, 1):
            for _ in range(2):
                psi = ConvolutionElement(chains(ring, n), V, deg)
                for I in psi.cx.module.names:
                    names = [b for b in V.names
                             if V.degree(b) == len(I) - 1 + deg]
                    if rng.random() < 0.6:
                        psi.set(I, V.element(
                            [(b, rng.choice(coeffs)) for b in names]))
                for name, f, src in _chain_maps_into(ring, n):
                    got = psi.precompose(f, src)
                    want = dense_precompose(psi, f, src)
                    assert got.degree == want.degree == deg + f.degree
                    assert _as_items(got) == _as_items(want), (n, deg, name)
                    nonzero += not got.is_zero()
    assert nonzero >= 150


@lru_cache(maxsize=None)
def full_parts(builder, ring):
    """A random flat coderivation on a module with a weight-1 cogenerator
    in each degree 0..3, so a degree-0 element can carry a value on every
    class of Delta^3, and a weight-3 one in each degree -1..2, so each
    arity up to 3 has components; ``builder`` is "ass" or "e2"."""
    if builder == "ass":
        C, _ = ass_cochains(ring, 3, validate=False)
        E1, _ = barratt_eccles(ring, 3, 2, n=1, validate=False)
        phi = en_restriction_morphism(E1, C)
    else:
        C, _ = barratt_eccles(ring, 3, 2, n=2, validate=False)
        phi = en_restriction_morphism(C, C, validate=False)
    V = GradedModule(ring, [BasisElement(name, d, w) for name, d, w in (
        ("x", 0, 1), ("u", 1, 1), ("t", 2, 1), ("s", 3, 1),
        ("Y", -1, 3), ("X", 0, 3), ("U", 1, 3), ("T", 2, 3))])
    Qt = random_coderivation(cofree_build(C, V, 3), random.Random(23),
                             density=0.5)
    return Qt, phi


def _psi_on_every_class(P, rng, n):
    """A random degree-0 element with a nonzero value on every class."""
    V = P.V
    coeffs = P.ring.elements() if P.ring.finite else (-2, -1, 0, 1, 3)
    psi = P.zero(n)
    for I in P.chains(n).module.names:
        names = [b for b in V.names if V.degree(b) == len(I) - 1]
        val = V.zero()
        while val.is_zero():
            val = V.element([(b, rng.choice(coeffs)) for b in names])
        psi.set(I, val)
    return psi


def _dense_defect(P, psi):
    """d(psi) + sum_{r >= 2} mu_r(psi, ..., psi) from the dense mu, with
    the boundary term -psi o d from ``precompose``."""
    out = dense_mu(P, [psi]).sub(psi.precompose(psi.cx.d, psi.cx))
    for r in range(2, P.C.r_max + 1):
        out = out.add(dense_mu(P, [psi] * r))
    return out


@pytest.mark.parametrize("builder, ring", [
    ("e2", Z2), ("e2", Z3), ("e2", Z), ("ass", Z)],
    ids=["E2-Z2", "E2-Z3", "E2-Z", "ass-Z"])
def test_mc_defect_matches_dense_oracle(builder, ring):
    # each element is checked, then its faces, on one problem, so later
    # checks read what earlier ones stored; the oracle has its own problem
    parts = full_parts(builder, ring)
    P, Q = MCProblem(*parts), MCProblem(*parts)
    rng = random.Random(7)
    unsolved = nonlinear = 0
    for n in range(4):
        for _ in range(2):
            psi = _psi_on_every_class(P, rng, n)
            for elem in [psi] + [P.face(i, psi, verify=False)
                                 for i in range(n + 1) if n]:
                got, want = P.mc_defect(elem), _dense_defect(Q, elem)
                assert got.degree == want.degree == -1
                assert got.eq(want), (n, elem)
                assert P.mc_check(elem)[1].eq(got)
                unsolved += not got.is_zero()
                nonlinear += not P.star(elem).is_zero()
    # over Z/2 the arity sum vanishes on every element drawn here, so
    # there the check covers d(psi) and the memo
    assert unsolved >= 10 and (nonlinear >= 10 or ring is Z2)


def test_mc_defect_refusals_keep_their_messages():
    P = MCProblem(*full_parts("e2", Z))
    with pytest.raises(ShapeError, match="^the arity sum is only formed in degree 0$"):
        P.mc_defect(P.zero(1, 1))
    curved = Coderivation(P.cofree, {(0, P.C.unit_name, ()): P.V.gen("Y")})
    with pytest.raises(ConventionError, match=(
            "^the convolution solution condition assumes a flat coderivation$")):
        MCProblem(curved, P.phi).mc_check(P.zero(1))


@pytest.mark.parametrize("case", ["ass-Z", "E2-Z2"])
def test_relabelled_decomposition_matches_per_class(case):
    P = MCProblem(*(odd_parts() if case == "ass-Z" else e2_parts(Z2)))
    for n in range(5):
        cx = P.chains(n)
        for I in cx.module.names:
            for r in range(1, P.C.r_max + 1):
                want = c_coalgebra_decompose(P.phi, I, r, cap=P.cap)
                assert P._decompose(n, I, r) == want, (n, I, r)


def test_horn_basis_shapes():
    assert horn_basis(1, 0) == [(0,)]
    assert horn_basis(1, 1) == [(1,)]
    assert set(horn_basis(2, 0)) == {(0,), (1,), (2,), (0, 1), (0, 2)}
    assert len(horn_basis(3, 2)) == 13
    with pytest.raises(ShapeError):
        horn_basis(0, 0)
    with pytest.raises(ShapeError):
        HornData(2, 0, None, {(1, 2): None})


def test_horn_data_accepts_exactly_the_basis():
    # every strictly increasing tuple and a few malformed ones, per horn
    V = GradedModule(Z, [BasisElement("x", 0, 1)])
    for n in range(1, 5):
        for k in range(n + 1):
            top = tuple(range(n + 1))
            faces = {I for r in range(1, n + 2) for I in combinations(top, r)}
            basis = faces - {top, tuple(v for v in top if v != k)}
            assert set(horn_basis(n, k)) == basis
            candidates = faces | {(), (0, 0), (1, 0), (n + 1,), (-1,), ("0",)}
            for I in candidates:
                if I in basis:
                    HornData(n, k, V, {I: V.zero()})
                else:
                    with pytest.raises(ShapeError, match="not a class"):
                        HornData(n, k, V, {I: V.zero()})
    for n, k in ((-3, 0), (0, 0), (2, 3), (2, -1)):
        with pytest.raises(ShapeError, match="no horn"):
            HornData(n, k, None, {})


def test_horn_fill_interval():
    P, _ = make_problem(Z2, spec=(("x", 0, 1), ("y", -1, 1)))
    for k in (0, 1):
        horn = HornData(1, k, P.V, {(k,): P.V.gen("x")})
        psi = P.horn_fill(horn)
        assert P.mc_check(psi)[0]
        assert psi.value((k,)).eq(P.V.gen("x"))


def test_horn_fill_matches_exhaustive_search():
    P, _ = make_problem(Z2)
    horn = HornData(1, 0, P.V, {(0,): P.V.gen("x")})
    psi = P.horn_fill(horn)
    sols = [
        s for s in P.mc_simplices(1, cap=10000)
        if s.value((0,)).eq(P.V.gen("x"))
    ]
    assert sols
    assert any(psi.eq(s) for s in sols)


def test_horn_fill_abelian_one_correction():
    # only an arity-1 component: a single correction suffices
    P0, _ = make_problem(Z, comps={})
    Qt = Coderivation(P0.cofree, {(1, "1", ("u",)): P0.V.gen("x", 2)})
    P = MCProblem(Qt, P0.phi)
    horn = HornData(1, 0, P.V, {(0,): P.V.zero()})
    trace = []
    psi = P.horn_fill(horn, trace=trace)
    assert P.mc_check(psi)[0]
    assert len(trace) <= 2


def test_horn_fill_corrects_once_to_the_only_filler():
    # quad_z3.json: Q_2(u, u) = v over Z/3.  The open face's first value
    # u leaves mu_2 = v, of weight 2, on the top class; one correction
    # moves it onto the open face, and the result is the only solution
    # with the horn's values
    data = Path(__file__).parent / "data"
    inst = instances.load_instance(str(data / "quad_z3.json"))
    assert square_check(inst.Qt)[0]
    P = instances.make_problem(inst)
    doc = json.loads((data / "quad_horn_2_0.json").read_text(encoding="utf-8"))
    horn = horn_from_doc(inst.V, doc)
    trace = []
    psi = P.horn_fill(horn, trace=trace)
    assert trace == [2, None]
    assert psi.value((1, 2)).eq(P.V.element([("u", 1), ("v", 2)]))
    fillers = [s for s in P.mc_simplices(2)
               if all(s.value(I).eq(horn.value(I)) for I in horn_basis(2, 0))]
    assert len(fillers) == 1 and fillers[0].eq(psi)


def test_horn_fill_rejects_non_solution_horn():
    P, _ = make_problem(Z2)
    bad = HornData(2, 0, P.V, {
        (0,): P.V.gen("x"),
        (1,): P.V.zero(),
        (2,): P.V.zero(),
        # face (0,1) connects x to 0 with no edge data: not a solution
    })
    with pytest.raises(PreconditionError):
        P.horn_fill(bad)


@pytest.mark.parametrize("k, bad_face", [(0, 2), (2, 0)])
def test_horn_fill_names_the_failing_face(k, bad_face):
    # only vertex 1 carries x, and no edge carries a value: of the two
    # faces the horn holds, the one through vertex 1 joins x to 0 and
    # fails, the other is the zero solution
    P, _ = make_problem(Z2)
    horn = HornData(2, k, P.V, {(1,): P.V.gen("x")})
    with pytest.raises(PreconditionError, match=f"horn face {bad_face} "):
        P.horn_fill(horn)


def test_horn_fill_defect_weight_grows():
    P, _ = make_problem(Z2)
    rep = None
    horn = HornData(1, 1, P.V, {(1,): P.V.gen("x")})
    trace = []
    psi = P.horn_fill(horn, trace=trace)
    weights = [w for w in trace if w is not None]
    assert all(b > a for a, b in zip(weights, weights[1:]))


def test_kan_spot_check_ass():
    P, _ = make_problem(Z2)
    rep = P.kan_spot_check(trials=12, seed=11)
    assert rep["attempted"] == 12
    assert rep["filled"] == 12
    assert {c["n"] for c in rep["cases"]} == {1, 2, 3}


def test_kan_spot_check_e2():
    C, H = barratt_eccles(Z2, 3, 2, n=2, validate=False)
    V = GradedModule(Z2, [
        BasisElement("x", 0, 1), BasisElement("u", 1, 1),
        BasisElement("y", -1, 1),
    ])
    cf = cofree_build(C, V, 3)
    Qt = Coderivation(cf, {
        (2, "12", ("x", "x")): V.gen("y"),
        (2, "12", ("x", "u")): V.gen("x"),
    })
    phi = en_restriction_morphism(C, C, validate=False)
    P = MCProblem(Qt, phi)
    rep = P.kan_spot_check(trials=6, seed=13)
    assert rep["attempted"] == rep["filled"] == 6


def _assert_rechecks_store_nothing(P, psi):
    stored = len(P._mus)
    assert stored
    assert P.mc_check(psi)[0]
    for i in range(psi.cx.n + 1):
        assert P.mc_check(P.face(i, psi, verify=False))[0]
    assert len(P._mus) == stored


def test_mu_memo_holds_a_horn_fill():
    # after a fill, checking the filler again and checking each of its
    # faces stores no new class: every content was met during the fill
    P = MCProblem(*e2_parts(Z2))
    edges = [e for e in P.mc_simplices(1) if not e.value((0, 1)).is_zero()]
    assert edges
    for n, lower in ((2, edges[-1]), (3, P.degeneracy(0, edges[-1], verify=False))):
        for k in range(n + 1):
            full = P.degeneracy(k % n, lower, verify=False)
            psi = P.horn_fill(HornData.from_simplex(full, k))
            assert any(len(I) > 1 for I in psi.values)
            _assert_rechecks_store_nothing(P, psi)


def test_mu_memo_holds_a_horn_fill_of_the_shipped_e2():
    # the memo belongs to its problem: a second problem of the same
    # instance starts empty and stays empty
    data = Path(__file__).parent / "data"
    inst = instances.load_instance(str(data / "e2_z2.json"))
    P, other = instances.make_problem(inst), instances.make_problem(inst)
    doc = json.loads((data / "e2_horn_3_0.json").read_text(encoding="utf-8"))
    psi = P.horn_fill(horn_from_doc(inst.V, doc))
    _assert_rechecks_store_nothing(P, psi)
    assert other is not P and not other._mus


def test_memo_counts_of_a_shipped_e2_fill(monkeypatch):
    # a gate on counts: filling e2_horn_3_0 and checking its faces
    # computes 18 distinct class contents and stores each once, as the
    # key of (subclass position, value) pairs found before it replaced a
    # scan of the support; a key that split one content would store
    # more, one that merged two contents fewer
    data = Path(__file__).parent / "data"
    inst = instances.load_instance(str(data / "e2_z2.json"))
    P = instances.make_problem(inst)
    computed = []
    mu_class = MCProblem._mu_class
    monkeypatch.setattr(MCProblem, "_mu_class",
                        lambda self, *args: computed.append(args)
                        or mu_class(self, *args))
    doc = json.loads((data / "e2_horn_3_0.json").read_text(encoding="utf-8"))
    psi = P.horn_fill(horn_from_doc(inst.V, doc))
    assert all(P.mc_check(P.face(i, psi, verify=False))[0] for i in range(4))
    assert len(computed) == len(P._mus) == 18


def test_set_counts_of_a_shipped_e2_fill(monkeypatch):
    # a gate on counts: filling e2_horn_3_0, then taking each face and
    # degeneracy of the filler (each checked), sets no class to zero and
    # makes 87 set calls in all; setting every class of each composite,
    # of each defect and of the horn made 495, 408 of them zero
    data = Path(__file__).parent / "data"
    inst = instances.load_instance(str(data / "e2_z2.json"))
    P = instances.make_problem(inst)
    calls = []
    set_value = ConvolutionElement.set
    monkeypatch.setattr(ConvolutionElement, "set",
                        lambda self, I, val: calls.append(bool(val.terms))
                        or set_value(self, I, val))
    doc = json.loads((data / "e2_horn_3_0.json").read_text(encoding="utf-8"))
    psi = P.horn_fill(horn_from_doc(inst.V, doc))
    for i in range(4):
        P.face(i, psi)
        P.degeneracy(i, psi)
    assert all(calls)
    assert len(calls) == 87


def test_make_problem_builds_no_cooperad(monkeypatch):
    # ass is the complexity-1 Barratt-Eccles cooperad: it acts through
    # itself, so the problem needs no second cooperad
    inst = instances.load_instance(
        str(Path(__file__).parent / "data" / "ass_z3.json"))

    def refuse(*args, **kwargs):
        raise AssertionError("make_problem built a cooperad")

    monkeypatch.setattr(instances, "barratt_eccles", refuse)
    monkeypatch.setattr(builders, "barratt_eccles", refuse)
    P = instances.make_problem(inst)
    assert P.phi.source is inst.cooperad and P.phi.target is inst.cooperad


def test_loads_share_the_simplex_memos():
    # every load of one ring gets the same ring object, so the simplex
    # complexes and maps memoised per ring are built once, not per load
    path = str(Path(__file__).parent / "data" / "ass_z3.json")

    def spot_check_round():
        inst = instances.load_instance(path)
        rep = instances.make_problem(inst).kan_spot_check(trials=3)
        assert rep["attempted"] == rep["filled"] == 3
        return inst.ring

    ring = spot_check_round()
    size = simplex_chains.chains.cache_info().currsize
    hits = simplex_chains.face_map.cache_info().hits
    for _ in range(4):
        assert spot_check_round() is ring
    assert simplex_chains.chains.cache_info().currsize == size
    assert simplex_chains.face_map.cache_info().hits > hits
