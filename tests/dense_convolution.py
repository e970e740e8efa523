"""Dense reference convolution: the oracles for ``MCProblem.mu`` and for
``einfty_decompose``.

This is the straightforward per-class loop that the sparse join in
``opmc.mc_space`` replaces.  For every basis class of the simplex it
computes the chain coproduct of that class with ``c_coalgebra_decompose``,
reads every block value through ``ConvolutionElement.value`` and adds
each evaluated term to the class value as an ``Element``.  Nothing is
shared between classes or calls, so it is slow; tests keep their
simplices small.  ``dense_einfty_decompose`` is the chain coproduct with
every (name, surjection) pair acting on the class anew.
"""

from itertools import product

from opmc.builders import be_from_name
from opmc.errors import ShapeError
from opmc.mc_space import ConvolutionElement
from opmc.simplex_chains import (
    c_coalgebra_decompose,
    surjection_action,
    table_reduction,
)


def dense_einfty_decompose(E, cx, I, r):
    """The arity-r chain coproduct of e_I (r >= 1), one action per
    (name, surjection) pair; returns it with the number of terms read."""
    out = {}
    count = 0
    for name in E.basis_names(r):
        for surj in table_reduction(be_from_name(name)):
            for key, c in surjection_action(surj, cx, I).items():
                count += 1
                out[name, key] = out.get((name, key), 0) + c
    ring = cx.ring
    norm = {k: ring.normalize(c) for k, c in out.items()}
    return {k: c for k, c in norm.items() if not ring.is_zero(c)}, count


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
        dec = c_coalgebra_decompose(problem.phi, problem.E, cx, I, r,
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
                    coeff = ring.mul(coeff, ci)
                vt = tuple(vn for vn, _ in combo)
                acc = acc.add(Qt.eval_plain(r, cname, vt).scale(coeff))
        out.set(I, acc)
    return out
