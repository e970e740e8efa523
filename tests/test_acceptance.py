"""Acceptance suite: one test (and one pass/fail line) per criterion.

All checks are exact -- zero tolerance; every equality is on-the-nose in
the coefficient ring.  Oracles are independent implementations (word
shuffles, direct homotopy-relation sums, exhaustive enumeration).
"""

import random
from itertools import combinations, product

import pytest

from dense_convolution import dense_differential
from helpers import (
    coleibniz_defect,
    compose,
    decompose_over,
    map_add,
    map_eq,
    map_identity,
    map_scale,
    rand_scalar,
    random_coderivation,
)
from opmc.builders import (
    ass_cochains,
    barratt_eccles,
    com_cochains,
    en_restriction_morphism,
    perm_from_name,
)
from opmc.cofree import (
    Coderivation,
    coderivation_extend,
    cofree_build,
    completeness_check,
    square_check,
)
from opmc.graded import BasisElement, GradedModule, koszul_sign_images
from opmc.mc_space import ConvolutionElement, HornData, MCProblem, horn_basis
from opmc.rings import ring_make
from opmc.simplex_chains import chains, contraction
from opmc.symmetric import inverse, norm_plain, orbit_classes, permute_slots
from opmc.twisting import (
    exp_element,
    mc_enumerate,
    mc_residual,
    shuffle,
    twist,
)

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
Z8 = ring_make({"kind": "integers-mod-m", "modulus": 8})
QQ = ring_make({"kind": "rationals"})

# weight-graded cogenerators: arity-2 and arity-3 components are allowed
# by weight additivity, so random complete coderivations are nontrivial
RICH_SPEC = (("x", 0, 1), ("z", 0, 2), ("y", -1, 2), ("w", -1, 3))


def make_V(ring, spec):
    return GradedModule(ring, [BasisElement(n, d, w) for n, d, w in spec])


def make_ass_cf(ring, spec=RICH_SPEC, r_max=3, w_max=4):
    C, H = ass_cochains(ring, r_max, validate=False)
    return H, cofree_build(C, make_V(ring, spec), w_max)


def report(num, label):
    print(f"criterion {num:2d} ({label}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_01_norm_map_isomorphism():
    # plain tensors c (x) v_1..v_r over the free components of the
    # associative family, with slots of degree 0 (a) and 1 (b): the norm
    # lands in the invariants and orbit_classes, the inverse the cofree
    # coalgebra reads its outputs through, takes it back
    vdeg = {"a": 0, "b": 1}.get
    rng = random.Random(101)
    checked = 0
    for ring in (Z, Z2, Z8, QQ):
        C, _ = ass_cochains(ring, 4, validate=False)
        for r in range(1, 5):
            om = C.component(r)
            names = om.module.names
            for _ in range(32):
                x = ring.collect(
                    ((n, tuple(rng.choice("ab") for _ in range(r))),
                     rand_scalar(ring, rng))
                    for n in rng.sample(names, min(4, len(names))))
                y = norm_plain(om, x, vdeg)
                back = orbit_classes(om, y, vdeg)
                assert norm_plain(om, back, vdeg) == y
                # converse: on representative-supported tensors the
                # inverse recovers the tensor itself
                xr = {k: c for k, c in x.items() if om.is_rep(k[0])}
                assert orbit_classes(om, norm_plain(om, xr, vdeg), vdeg) == xr
                checked += 1
    assert checked >= 500
    report(1, "norm-map isomorphism")


def test_criterion_02_contraction_identities():
    # chain-level identity on every basis element, 0 <= k <= n <= 4
    for n in range(5):
        for k in range(n + 1):
            cx, eps, p, h = contraction(Z, k, n)
            lhs = map_add(compose(cx.d, h), compose(h, cx.d))
            rhs = map_add(map_identity(cx.module),
                          map_scale(compose(p, eps), -1))
            assert map_eq(lhs, rhs), (n, k)
    # lifted identity on random convolution elements
    C, _ = ass_cochains(Z, 3, validate=False)
    spec = [("a0", 0, 1), ("a1", 1, 1), ("a2", 2, 1), ("a3", 3, 1),
            ("a4", 4, 1), ("am", -1, 1)]
    V = make_V(Z, spec)
    cf = cofree_build(C, V, 3)
    Qt = Coderivation(cf, {
        (1, "1", ("a1",)): V.gen("a0", 2),
        (1, "1", ("a3",)): V.gen("a2", 3),
    })
    E1, _ = barratt_eccles(Z, 3, 0, n=1, validate=False)
    prob = MCProblem(Qt, en_restriction_morphism(E1, C, validate=False))
    rng = random.Random(102)
    checked = 0
    pt = prob.chains(0)
    for n in range(5):
        for k in range(n + 1):
            # H precomposes with h; P with p o eps, through the point
            cx, eps, p, h = contraction(Z, k, n)
            for deg in (-1, 0, 1):
                for _ in range(3):
                    psi = ConvolutionElement(prob.chains(n), prob.V, deg)
                    for I in prob.chains(n).module.names:
                        want = len(I) - 1 + deg
                        val = V.zero()
                        for vn in V.names:
                            if V.degree(vn) == want and rng.random() < 0.7:
                                val = val.add(V.gen(vn, rng.randint(-2, 2)))
                        psi.set(I, val)
                    lhs = dense_differential(prob, psi.precompose(h, cx)).add(
                        dense_differential(prob, psi).precompose(h, cx))
                    proj = psi.precompose(p, pt).precompose(eps, cx)
                    assert lhs.eq(psi.sub(proj)), (n, k, deg)
                    checked += 1
    assert checked >= 100
    report(2, "contraction identities, chain and convolution level")


def test_criterion_03_coderivation_roundtrip_and_coleibniz():
    rng = random.Random(103)
    for ring in (Z2, Z):
        _, cf = make_ass_cf(ring, w_max=4)
        for t in range(25):
            Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
            Q = coderivation_extend(Qt)
            for key in cf.module.names:
                got = cf.tangent(Q.on_key(key))
                assert got.eq(Qt.value_on(cf.module.gen(key))), (ring, key)
            if t < 4:  # the co-Leibniz check is the expensive half
                assert coleibniz_defect(cf, Qt, ks=(1, 2)) == [], (ring, t)
    report(3, "coderivation extension round trip and co-Leibniz rule")


def test_criterion_04_twist_squares_and_involutive():
    count = 0
    for ring in (Z2, Z8, Z):
        setups = []
        Ha, cfa = make_ass_cf(ring, w_max=4)
        setups.append((Ha, cfa, 12))
        Cb, Hb = barratt_eccles(ring, 3, 2, n=2, validate=False)
        cfb = cofree_build(Cb, make_V(ring, RICH_SPEC), 4)
        setups.append((Hb, cfb, 6))
        rng = random.Random(104)
        for H, cf, n_inst in setups:
            V = cf.V
            for t in range(n_inst):
                Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
                assert completeness_check(Qt) == []
                v = V.gen("x", rand_scalar(ring, rng)).add(
                    V.gen("z", rand_scalar(ring, rng)))
                Tw = twist(H, Qt, v, verify=False)
                ok, witness = square_check(Tw)
                assert ok, (ring, t, witness)
                back = twist(H, Tw, v.scale(-1), verify=False)
                keys = set(back.comps) | set(Qt.comps)
                assert all(
                    back.component(k).eq(Qt.component(k)) for k in keys
                ), (ring, t)
                count += 1
    assert count >= 50
    report(4, "twisted coderivations square to zero; twisting is involutive")


def test_criterion_05_flatness_bridge():
    rng = random.Random(105)
    H, cf = make_ass_cf(Z2, spec=(("x", 0, 1), ("y", -1, 2)), w_max=3)
    V = cf.V
    candidates = [V.zero(), V.gen("x")]
    for t in range(10):
        Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
        flat_set, twist_set = [], []
        for v in candidates:
            res = mc_residual(H, Qt, v)
            curv = twist(H, Qt, v, verify=False).curvature()
            assert curv.eq(res), t
            if res.is_zero():
                flat_set.append(repr(v))
            if curv.is_zero():
                twist_set.append(repr(v))
        assert flat_set == twist_set
        if Qt.flat:
            enum = sorted(repr(s) for s in mc_enumerate(H, Qt))
            assert enum == sorted(flat_set)
    report(5, "curvature of the twist equals the solution-condition residual")


def grouplike_translate_decompose(H, cf, ev, x, k):
    """Slotwise translation of decompose(x, k) by a degree-0 grouplike."""
    ring = cf.ring
    out = {}
    for (a, keys), c in cf.decompose(x, k).items():
        slot_terms = []
        for key in keys:
            el = shuffle(H, cf, ev, cf.module.gen(key))
            slot_terms.append(list(el.terms.items()))
        for combo in product(*slot_terms):
            coeff = c
            for _, ci in combo:
                coeff = ring.normalize(coeff * ci)
            keys2 = tuple(key2 for key2, _ in combo)
            wt = sum(cf.V.weight(v) for key2 in keys2 for v in key2[2])
            if wt > cf.w_max:
                continue  # the cofree side is weight-truncated
            nk = (a, keys2)
            out[nk] = ring.normalize(out.get(nk, 0) + coeff)
    return {kk: v for kk, v in out.items() if v}


def test_criterion_06_exponential_laws():
    rng = random.Random(106)
    for ring in (Z, Z8):
        H, cf = make_ass_cf(ring, spec=(("x", 0, 1), ("y", -1, 2)), w_max=3)
        V = cf.V
        v = V.gen("x")
        for _ in range(6):
            kappa, lam = rand_scalar(ring, rng), rand_scalar(ring, rng)
            lhs = shuffle(H, cf, exp_element(H, cf, v.scale(kappa)),
                          exp_element(H, cf, v.scale(lam)))
            assert lhs.eq(exp_element(H, cf, v.scale(ring.normalize(kappa + lam))))
        ev = exp_element(H, cf, v)
        em = exp_element(H, cf, v.scale(-1))
        assert shuffle(H, cf, em, ev).eq(cf.unit())
        # left translation by the exponential is a coalgebra morphism
        for key in cf.module.names:
            x = cf.module.gen(key)
            tx = shuffle(H, cf, ev, x)
            for k in (2, 3):
                assert cf.decompose(tx, k) == \
                    grouplike_translate_decompose(H, cf, ev, x, k), (key, k)
    report(6, "exponential one-parameter laws and coalgebra-morphism property")


def test_criterion_07_a_infinity_oracle():
    rng = random.Random(107)
    H, cf = make_ass_cf(Z2, w_max=4)
    V = cf.V
    ident = {1: "1", 2: "12", 3: "123"}
    deg0 = [vn for vn in V.names if V.degree(vn) == 0]

    def oracle_residual(Qt, v):
        want = Qt.curvature()
        for r in range(1, cf.cooperad.r_max + 1):
            for sname in cf.cooperad.basis_names(r):
                sigma = perm_from_name(sname)
                for letters in product(list(v.terms), repeat=r):
                    coeff = 1
                    for vn in letters:
                        coeff = Z2.normalize(coeff * v.terms[vn])
                    vt = permute_slots(inverse(sigma), letters)
                    want = want.add(
                        Qt.component((r, ident[r], vt)).scale(coeff))
        return want

    for t in range(20):
        Qt = random_coderivation(cf, rng, curved=(t % 2 == 0))
        sols_oracle = []
        for bits in product((0, 1), repeat=len(deg0)):
            v = V.element(zip(deg0, bits))
            res = mc_residual(H, Qt, v)
            assert res.eq(oracle_residual(Qt, v)), t
            if Qt.flat and res.is_zero():
                sols_oracle.append(repr(v))
        if Qt.flat:
            enum = sorted(repr(s) for s in mc_enumerate(H, Qt))
            assert enum == sorted(sols_oracle), t
    report(7, "independent homotopy-associative residual oracle agreement")


def test_criterion_08_shuffle_product():
    # exhaustive associativity over the associative-family cochains
    H, cf = make_ass_cf(Z, spec=(("x", 0, 1), ("y", -1, 1)), w_max=3)
    gens = [cf.module.gen(k) for k in cf.module.names]
    pair_cache = {}
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            pair_cache[i, j] = shuffle(H, cf, a, b)
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            for l, c in enumerate(gens):
                lhs = shuffle(H, cf, pair_cache[i, j], c)
                rhs = shuffle(H, cf, a, pair_cache[j, l])
                assert lhs.eq(rhs), (i, j, l)
    # exhaustive associativity over two-dimensional permutation cochains
    C2, H2 = barratt_eccles(Z2, 3, 2, n=2, validate=False)
    cf2 = cofree_build(C2, make_V(Z2, (("x", 0, 1),)), 3)
    gens2 = [cf2.module.gen(k) for k in cf2.module.names]
    cache2 = {}
    for i, a in enumerate(gens2):
        for j, b in enumerate(gens2):
            cache2[i, j] = shuffle(H2, cf2, a, b)
    for i, a in enumerate(gens2):
        for j, b in enumerate(gens2):
            for l, c in enumerate(gens2):
                assert shuffle(H2, cf2, cache2[i, j], c).eq(
                    shuffle(H2, cf2, a, cache2[j, l])), (i, j, l)
    # classical word-shuffle oracle over the rationals, weight <= 4
    Cq, Hq = com_cochains(QQ, 4)
    Vq = make_V(QQ, (("x", 0, 1), ("y", -1, 1)))
    cfq = cofree_build(Cq, Vq, 4)
    degs = {"x": 0, "y": -1}

    def words(el):
        out = {}
        for r, plain in cfq.expand(el).items():
            for (cname, vt), c in plain.items():
                out[vt] = out.get(vt, 0) + c
        return {k: v for k, v in out.items() if v}

    def word_shuffle(wa, wb):
        out = {}
        for u, cu in wa.items():
            for v, cv in wb.items():
                dl = [degs[n] for n in u] + [degs[n] for n in v]
                p, q = len(u), len(v)
                letters = list(u) + list(v)
                for pos in combinations(range(p + q), p):
                    rest = [i for i in range(p + q) if i not in pos]
                    images = [0] * (p + q)
                    for i, t in enumerate(pos):
                        images[i] = t + 1
                    for j, t in enumerate(rest):
                        images[p + j] = t + 1
                    word = [None] * (p + q)
                    for i, t in enumerate(images):
                        word[t - 1] = letters[i]
                    s = koszul_sign_images(images, dl)
                    w = tuple(word)
                    out[w] = out.get(w, 0) + cu * cv * s
        return {k: v for k, v in out.items() if v}

    for k1 in cfq.module.names:
        for k2 in cfq.module.names:
            got = words(shuffle(Hq, cfq, cfq.module.gen(k1),
                                cfq.module.gen(k2)))
            want = word_shuffle(words(cfq.module.gen(k1)),
                                words(cfq.module.gen(k2)))
            want = {w: c for w, c in want.items() if len(w) <= 4}
            assert got == want, (k1, k2)
    report(8, "shuffle product associativity and classical word oracle")


def test_criterion_09_cup_product_recovery():
    for n in (1, 2, 3):
        E, _ = barratt_eccles(Z, 2, n + 1, n=n, validate=False)
        cx = chains(Z, n)
        for I in cx.module.names:
            got = decompose_over(E, I, 2)
            aw = {k: c for (nm, k), c in got.items() if nm == "12"}
            want = {
                (I[:i + 1], I[i:]): 1 for i in range(len(I))
            }
            assert aw == want, (n, I)
    report(9, "arity-2 degree-0 coproduct dualizes to the cup product")


def test_criterion_10_builder_sanity():
    # every builder output passes its validators
    ass_cochains(Z, 3, validate=True)
    ass_cochains(QQ, 3, validate=True)
    com_cochains(QQ, 3, validate=True)
    be2, _ = barratt_eccles(Z2, 3, 2, n=2, validate=True)
    be1, _ = barratt_eccles(Z, 2, 2, n=1, validate=True)
    assC, _ = ass_cochains(Z, 2, validate=True)
    # the complexity-one truncation at arity 2 is isomorphic to the
    # associative family (validated renaming isomorphism)
    iso = en_restriction_morphism(be1, assC, validate=True)
    for r in (1, 2):
        assert len(be1.basis_names(r)) == len(assC.basis_names(r))
        for nm in be1.basis_names(r):
            img = iso.apply_name(r, nm)
            assert len(img.terms) == 1
    be1z2, _ = barratt_eccles(Z2, 3, 2, n=1, validate=True)
    en_restriction_morphism(be2, be1z2, validate=True)
    report(10, "builder outputs validate; complexity-1 matches associative")


def ladder_problem(ring=Z2, seed=0):
    spec = (("x", 0, 1), ("u", 1, 1), ("z", 0, 2), ("y", -1, 2))
    C, H = ass_cochains(ring, 3, validate=False)
    cf = cofree_build(C, make_V(ring, spec), 3)
    rng = random.Random(seed)
    draft = random_coderivation(cf, rng, curved=False)
    # keep the quadratic-and-higher part: flat, and the induced
    # convolution differential squares to zero
    comps = {k: v for k, v in draft.comps.items() if k[0] >= 2}
    comps[(2, "12", ("x", "x"))] = cf.V.gen("y")
    Qt = Coderivation(cf, comps)
    E1, _ = barratt_eccles(ring, 3, 0, n=1, validate=False)
    return MCProblem(Qt, en_restriction_morphism(E1, C, validate=False)), H


def test_criterion_11_mc_simplicial_set():
    for seed in (111, 112):
        prob, H = ladder_problem(seed=seed)
        # dimension-0 solutions biject with the direct enumeration
        mc0 = sorted(repr(p.value((0,))) for p in prob.mc_simplices(0))
        enum = sorted(repr(s) for s in mc_enumerate(H, prob.Qt))
        assert mc0 == enum
        # build solutions in dimensions 1..3 and check the simplicial
        # structure on them
        produced = {0: prob.mc_simplices(0)}
        rng = random.Random(seed)
        for n in (1, 2, 3):
            produced[n] = []
            for k in range(n + 1):
                if n == 1:
                    v0 = rng.choice(produced[0])
                    horn = HornData(1, k, prob.V, {(k,): v0.value((0,))})
                else:
                    lower = rng.choice(produced[n - 1])
                    full = prob.degeneracy(rng.randrange(n), lower)
                    horn = HornData.from_simplex(full, k)
                produced[n].append(prob.horn_fill(horn))
        for n in (1, 2, 3):
            for psi in produced[n]:
                assert prob.mc_check(psi)[0]
                for j in range(n + 1):
                    up = prob.degeneracy(j, psi)  # verified internally
                    assert prob.mc_check(up)[0]
                for i in range(n + 1):
                    prob.face(i, psi)  # verified internally
                if n >= 2:
                    for j in range(1, n + 1):
                        for i in range(j):
                            a = prob.face(i, prob.face(j, psi))
                            b = prob.face(j - 1, prob.face(i, psi))
                            assert a.eq(b), (n, i, j)
    report(11, "solution simplicial set: enumeration, faces, degeneracies")


def test_criterion_12_kan_filling():
    filled = 0
    covered = set()
    for seed in (121, 122, 123):
        prob, _ = ladder_problem(seed=seed)
        rng = random.Random(seed)
        pool = {0: prob.mc_simplices(0)}
        w_max = prob.cofree.w_max
        for n in (1, 2, 3):
            pool[n] = []
            for k in range(n + 1):
                if n == 1:
                    v0 = rng.choice(pool[0])
                    horn = HornData(1, k, prob.V, {(k,): v0.value((0,))})
                else:
                    lower = rng.choice(pool[n - 1])
                    full = prob.degeneracy(rng.randrange(n), lower)
                    horn = HornData.from_simplex(full, k)
                trace = []
                psi = prob.horn_fill(horn, trace=trace)
                assert len(trace) <= w_max + 1
                assert prob.mc_check(psi)[0]
                for I in horn_basis(n, k):
                    assert psi.value(I).eq(horn.value(I)), (n, k, I)
                pool[n].append(psi)
                filled += 1
                covered.add((n, k))
    assert filled >= 20
    assert covered == {(n, k) for n in (1, 2, 3) for k in range(n + 1)}
    # tiniest size: cross-check the filler against exhaustive search
    prob, H = ladder_problem(seed=7)
    verts = prob.mc_simplices(0)
    for v0 in verts:
        for k in (0, 1):
            horn = HornData(1, k, prob.V, {(k,): v0.value((0,))})
            psi = prob.horn_fill(horn)
            sols = [s for s in prob.mc_simplices(1)
                    if s.value((k,)).eq(v0.value((0,)))]
            assert sols, (k,)
            assert any(psi.eq(s) for s in sols)
    report(12, "constructive horn filling at desk scale")
