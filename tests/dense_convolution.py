"""Dense reference convolution: the oracles for ``MCProblem.mc_defect``,
``ConvolutionElement.precompose`` and ``c_coalgebra_decompose``.

``dense_mu`` is the one mu_r of general degree, with its own Koszul
sign, and ``dense_differential`` is d(psi) = mu_1(psi) - psi o d; the
laws of the convolution complex are tested on them, and their degree-0
sums are what ``mc_defect`` must equal.  ``dense_mu`` is the
straightforward per-class loop that the memoised join of
``opmc.mc_space`` replaces.  For every basis class of the simplex it
builds a ``coproduct_plan`` and computes the chain coproduct of that
class with ``c_coalgebra_decompose``, reads every block value through
``ConvolutionElement.value`` and adds each evaluated term to the class
value as an ``Element``.  Nothing is shared between classes or calls,
so it is slow; tests keep their simplices small.
``dense_einfty_decompose`` is the chain coproduct over the cochains
themselves, what ``c_coalgebra_decompose`` gives through the identity
morphism, with every (name, surjection) pair acting on the class anew,
through ``dense_surjection_action`` (every cut of the class, each
regrouped and signed on its own) and ``dense_table_reduction`` (every
row-length composition, filtered at the end).

``dense_precompose`` is the composite with a chain map as a loop that
sums and sets a value on every class of the source, zeros included.

The twist path has its memo-free oracles here too: ``dense_shuffle_plain``
re-cuts the left factor into every 0/1 shape for each right factor,
``dense_twist_components`` runs it once per basis key and evaluates every
plain tensor anew, and ``dense_on_key`` is the per-key loop of
``coderivation_extend`` that sums prefix degrees and output weights term
by term and calls ``Qt.eval_plain`` for every block it reads.
"""

from itertools import combinations, product

from opmc.builders import be_from_name
from opmc.cooperad import riffle_parity, shapes
from opmc.errors import ShapeError
from opmc.graded import Element, koszul_sign_images
from opmc.mc_space import ConvolutionElement
from opmc.simplex_chains import (
    Surjection,
    c_coalgebra_decompose,
    coproduct_plan,
)


def _cut_positions(l, p):
    """All 0 = c_0 <= c_1 <= ... <= c_l = p: l interval endpoints."""
    out = []

    def rec(i, last, acc):
        if i == l:
            out.append(tuple(acc + [p]))
            return
        for c in range(last, p + 1):
            rec(i + 1, c, acc + [c])

    rec(1, 0, [0])
    return out


def dense_surjection_action(u, I):
    """The interval-cut action of u on e_I, one cut at a time: each cut
    is regrouped by output slot, dropped when a slot repeats a vertex,
    and signed by ``koszul_sign_images`` of the stable sort by slot."""
    seq = u.seq
    l = len(seq)
    r = u.arity
    p = len(I) - 1
    last_occ = {v: max(t for t in range(l) if seq[t] == v) for v in set(seq)}
    out = {}
    for cuts in _cut_positions(l, p):
        pieces = []  # (slot, piece degree for the sign)
        segs = [[] for _ in range(r)]
        extra = 1
        for t in range(l):
            a, b = cuts[t], cuts[t + 1]
            slot = seq[t] - 1
            segs[slot].extend(I[a:b + 1])
            deg = b - a
            if t != last_occ[seq[t]]:
                deg += 1
                if b % 2:
                    extra = -extra
            pieces.append((slot, deg))
        if any(not s for s in segs):
            continue
        if any(len(set(s)) != len(s) for s in segs):
            continue
        order = sorted(range(len(pieces)), key=lambda t: (pieces[t][0], t))
        position = {t: i + 1 for i, t in enumerate(order)}
        images = [position[t] for t in range(len(pieces))]
        sign = koszul_sign_images(images, [d for _, d in pieces]) * extra
        key = tuple(tuple(s) for s in segs)
        out[key] = out.get(key, 0) + sign
    return {k: c for k, c in out.items() if c}


def dense_table_reduction(simplex):
    """The table reduction of a tuple of permutations, every row-length
    composition built out and those with equal adjacent values dropped."""
    d = len(simplex) - 1
    out = []

    def rec(i, closed, seq, remaining_len):
        row_all = [v for v in simplex[i].images if v not in closed]
        if i == d:
            full = seq + row_all
            if len(row_all) == remaining_len and all(
                    full[t] != full[t + 1] for t in range(len(full) - 1)):
                out.append(Surjection(full))
            return
        for a in range(1, min(len(row_all), remaining_len - (d - i)) + 1):
            take = row_all[:a]
            rec(i + 1, closed | set(take[:-1]), seq + take,
                remaining_len - a)

    rec(0, frozenset(), [], simplex[0].r + d)
    return out


def dense_einfty_decompose(E, I, r):
    """The arity-r chain coproduct of e_I (r >= 1), one action per
    (name, surjection) pair; returns it with the number of terms read."""
    out = {}
    count = 0
    for name in E.basis_names(r):
        for surj in dense_table_reduction(be_from_name(name)):
            for key, c in dense_surjection_action(surj, I).items():
                count += 1
                out[name, key] = out.get((name, key), 0) + c
    ring = E.ring
    norm = {k: ring.normalize(c) for k, c in out.items()}
    return {k: c for k, c in norm.items() if c}, count


def dense_precompose(psi, f, src_cx):
    """psi o f with a value set on every class of the source, zeros
    included, each summed by ``collect`` from the row of f."""
    out = ConvolutionElement(src_cx, psi.V, psi.degree + f.degree)
    sign = -1 if psi.degree * f.degree % 2 else 1
    for J in src_cx.module.names:
        out.set(J, Element(psi.V, psi.V.ring.collect(
            (vn, sign * c * vc)
            for I, c in f.apply_name(J).terms.items()
            for vn, vc in psi.value(I).terms.items())))
    return out


def dense_mu(problem, psis):
    """mu_r(psi_1, ..., psi_r), one chain coproduct per class."""
    r = len(psis)
    if r < 1:
        raise ShapeError("mu needs at least one argument")
    cx = psis[0].cx
    for p in psis[1:]:
        if p.cx.n != cx.n:
            raise ShapeError("mu arguments live on different simplices")
    C, V, ring, Qt = problem.C, problem.V, problem.ring, problem.Qt
    out = ConvolutionElement(cx, V, sum(p.degree for p in psis) - 1)
    if r > C.r_max:
        return out
    degs = [p.degree for p in psis]
    for I in cx.module.names:
        acc = V.zero()
        dec = c_coalgebra_decompose(coproduct_plan(problem.phi, r), I,
                                    cap=problem.cap)
        for (cname, Js), c in dec.items():
            # Koszul sign: psi_i crosses the cooperad factor and the
            # chain factors to its left
            sgn = 1
            crossed = C.degree(r, cname)
            for i in range(r):
                if degs[i] % 2 and crossed % 2:
                    sgn = -sgn
                crossed += len(Js[i]) - 1
            vals = [psis[i].value(Js[i]) for i in range(r)]
            if any(v.is_zero() for v in vals):
                continue
            for combo in product(*(v.terms.items() for v in vals)):
                coeff = ring.normalize(c * sgn)
                for _, ci in combo:
                    coeff = ring.normalize(coeff * ci)
                vt = tuple(vn for vn, _ in combo)
                acc = acc.add(Qt.eval_plain(r, cname, vt).scale(coeff))
        out.set(I, acc)
    return out


def dense_differential(problem, psi):
    """d(psi) = mu_1(psi) - psi o d, the composite signed by precompose."""
    return dense_mu(problem, [psi]).sub(psi.precompose(psi.cx.d, psi.cx))


def dense_shuffle_plain(H, cf, u, x):
    """The plain shuffle product u * x, both factors cut anew."""
    C = cf.cooperad
    ring = cf.ring
    deg, vdeg = C.degrees, cf.V.degree
    out = []

    def terms(plain, k, shape):
        """Per term: (v-tuple, weight, [(coeff, outer, block-degrees)])."""
        res = []
        for (cname, vt), c in plain.items():
            cocomp = []
            for lam, a, blocks in cf.cocompose_plain(k, shape, cname, vt):
                degs = [deg[ri][g] + sum(vdeg(v) for v in vb)
                        for ri, g, vb in blocks]
                cocomp.append((ring.normalize(c * lam), a, degs))
            res.append((vt, sum(cf.V.weight(v) for v in vt), cocomp))
        return res

    eps_u = u.get(0, {}).get((C.unit_name, ()), ring.zero)
    eps_x = x.get(0, {}).get((C.unit_name, ()), ring.zero)
    out.append(((0, (C.unit_name, ())), ring.normalize(eps_u * eps_x)))
    for p, uplain in u.items():
        for q, xplain in x.items():
            k = p + q
            if not 0 < k <= C.r_max:
                continue
            for S in combinations(range(k), p):
                shape = tuple(1 if i in S else 0 for i in range(k))
                xterms = terms(xplain, k, tuple(1 - s for s in shape))
                for vu, wu, ucomp in terms(uplain, k, shape):
                    for vx, wx, xcomp in xterms:
                        if wu + wx > cf.w_max:
                            continue
                        iu, ix = iter(vu), iter(vx)
                        names = tuple(next(iu) if s else next(ix)
                                      for s in shape)
                        for ca, a, degsA in ucomp:
                            for cb, b, degsB in xcomp:
                                coeff = ring.normalize(ca * cb)
                                if riffle_parity(deg[k][b], degsA, degsB):
                                    coeff = ring.normalize(-coeff)
                                for pc, c in H.multiply_names(k, a, b):
                                    out.append(((k, (c, names)),
                                                ring.normalize(coeff * pc)))
    return cf.sum_by_arity(out)


def dense_twist_components(H, Qt, ev_plain):
    """The components of the twist of Qt by v, ``ev_plain`` the plain
    exp(v): one kernel call and fresh evaluations per basis key."""
    cf = Qt.cofree
    ring = cf.ring
    comps = {}
    for key in cf.module.names:
        r, rep, vt = key
        w = dense_shuffle_plain(H, cf, ev_plain, {r: {(rep, vt): ring.one}})
        val = Qt.value_on_plain(w, Qt.eval_plain)
        if not val.is_zero():
            comps[key] = val
    return comps


def dense_on_key(Qt, key):
    """(plain image, key-form image) of a basis key under the coderivation
    extending Qt, computed with nothing kept between keys."""
    cf = Qt.cofree
    C = cf.cooperad
    ring = cf.ring
    vdeg = cf.V.degree
    terms = []
    for (cname, vt), coeff in cf.expand_key(key).items():
        for k, shape in shapes(key[0], C.r_max):
            other = [i for i in range(k) if shape[i] != 1]
            if len(other) > 1:
                continue
            slots = [(i, sum(shape[:i])) for i in (other or range(k))]
            for lam, out, blocks in cf.cocompose_plain(k, shape, cname, vt):
                for i, start in slots:
                    m, inner, block = blocks[i]
                    val = Qt.eval_plain(m, inner, block)
                    if val.is_zero():
                        continue
                    prefix, suffix = vt[:start], vt[start + m:]
                    odd = C.degrees[k][out] + sum(vdeg(v) for v in prefix)
                    base = ring.normalize(coeff * (-lam if odd % 2 else lam))
                    for vn, vc in val.terms.items():
                        nvt = prefix + (vn,) + suffix
                        if sum(cf.V.weight(v) for v in nvt) > cf.w_max:
                            continue
                        terms.append(((k, (out, nvt)), ring.normalize(base * vc)))
    plain = cf.sum_by_arity(terms)
    return plain, cf.collect(plain)
