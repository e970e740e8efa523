"""Library tour: build a structure, twist it, and fill a horn.

Run from the repository root after `pip install -e .`:

    python3 demos/library_tour.py
"""

import random

from opmc.builders import ass_cochains, barratt_eccles, en_restriction_morphism
from opmc.cofree import Coderivation, cofree_build, square_check
from opmc.graded import BasisElement, GradedModule
from opmc.mc_space import HornData, MCProblem
from opmc.rings import ring_make
from opmc.twisting import exp_element, mc_enumerate, mc_residual, shuffle, twist

# ---------------------------------------------------------------------------
# 1. ring, cooperad, cogenerators, cofree object
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})
C, H = ass_cochains(Z2, r_max=3)
V = GradedModule(Z2, [
    BasisElement("x", 0, 1),   # name, degree, weight
    BasisElement("u", 1, 1),
    BasisElement("y", -1, 2),
])
cf = cofree_build(C, V, w_max=3)
print(f"cofree object over Z/2: {len(cf.module.names)} basis classes, "
      f"weight truncated at {cf.w_max}")

# 2. a structure: the single quadratic operation m2(x, x) = y
Qt = Coderivation(cf, {(2, "12", ("x", "x")): V.gen("y")})
ok, _ = square_check(Qt)
print(f"extended coderivation squares to zero: {ok}")

# 3. solution condition and enumeration of degree-0 solutions
for cand in (V.zero(), V.gen("x")):
    res = mc_residual(H, Qt, cand)
    print(f"residual at {cand!r}: {res!r}")
print("all solutions:", sorted(repr(s) for s in mc_enumerate(H, Qt)))

# 4. exponentials and the shuffle product
ev = exp_element(H, cf, V.gen("x"))
em = exp_element(H, cf, V.gen("x").scale(-1))
print(f"exp(x) has {len(ev.terms)} terms; "
      f"exp(-x) * exp(x) = unit: {shuffle(H, cf, em, ev).eq(cf.unit())}")

# 5. twisting by a solution, and twisting back
Tw = twist(H, Qt, V.gen("x"))
print(f"twist by x is flat: {Tw.flat}; components: {sorted(Tw.comps)}")
back = twist(H, Tw, V.gen("x").scale(-1))
same = all(back.component(k).eq(Qt.component(k))
           for k in set(back.comps) | set(Qt.comps))
print(f"twisting back recovers the original: {same}")

# 6. the simplicial solution space and constructive horn filling
E1, _ = barratt_eccles(Z2, 3, 0, n=1)
prob = MCProblem(Qt, en_restriction_morphism(E1, C))
verts = prob.mc_simplices(0)
print(f"solution vertices: {len(verts)}; "
      f"1-simplices: {len(prob.mc_simplices(1))}")

horn = HornData(2, 1, V, HornData.from_simplex(
    prob.degeneracy(0, prob.horn_fill(
        HornData(1, 0, V, {(0,): verts[-1].value((0,))}))), 1).values)
trace = []
psi = prob.horn_fill(horn, trace=trace)
print(f"filled a (2,1)-horn in {len(trace)} correction step(s); "
      f"solution on the 2-simplex: {prob.mc_check(psi)[0]}")

report = prob.kan_spot_check(trials=6, seed=random.Random(0).randint(0, 99))
print(f"kan spot check: filled {report['filled']}/{report['attempted']} horns")
