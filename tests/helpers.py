"""Shared helpers for randomized test instances."""

from fractions import Fraction

from opmc.cofree import Coderivation, coderivation_extend


def coleibniz_defect(cf, Qt, ks=(1, 2)):
    """Keys where decompose_k(Q x) differs from the coderivation rule.

    Terms whose cofactor weights sum beyond the truncation are dropped on
    the right-hand side: a curved Q raises weight, and such terms exist
    on neither side of the truncated identity.
    """
    C = cf.cooperad
    ring = cf.ring
    Q = coderivation_extend(Qt)
    bad = []
    for key in cf.module.names:
        x = cf.module.gen(key)
        for k in ks:
            lhs = cf.decompose(Q(x), k)
            rhs = {}
            for (a, keys), c in cf.decompose(x, k).items():
                adeg = C.degree(k, a)
                for i in range(k):
                    pre = adeg + sum(cf.module.degree(keys[j]) for j in range(i))
                    sign = -1 if pre % 2 else 1
                    for key2, c2 in Q.on_key(keys[i]).terms.items():
                        nk = (a, keys[:i] + (key2,) + keys[i + 1:])
                        if sum(cf.module.weight(kk) for kk in nk[1]) > cf.w_max:
                            continue
                        val = ring.mul(ring.mul(c, c2), sign)
                        rhs[nk] = ring.add(rhs.get(nk, ring.zero), val)
            rhs = {kk: v for kk, v in rhs.items() if not ring.is_zero(v)}
            if lhs != rhs:
                bad.append((key, k))
    return bad


def rand_scalar(ring, rng):
    if getattr(ring, "finite", False):
        return rng.randrange(ring.modulus)
    if ring.contains_rationals:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
    return rng.randint(-2, 2)


def random_coderivation(cf, rng, curved=False, density=0.6):
    """Random corestriction data respecting degree and weight additivity."""
    V = cf.V
    ring = cf.ring
    comps = {}
    for key in cf.module.names:
        r = key[0]
        if r == 0 and not curved:
            continue
        tdeg = cf.module.degree(key) - 1
        wt = cf.module.weight(key)
        terms = {}
        for vn in V.names:
            if V.degree(vn) != tdeg or V.weight(vn) < wt:
                continue
            if rng.random() < density:
                terms[vn] = rand_scalar(ring, rng)
        comps[key] = V.element(terms)
    return Coderivation(cf, comps)
