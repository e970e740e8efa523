"""e2-twist: seeded twist round trips on E2 Barratt-Eccles cochains over Z.

One operation twists a random complete coderivation by a degree-0 v
(``verify=False``), checks that the result squares to zero and twists
back by -v.  The cooperad is built with ``validate=False``, so the
validators stay out of this workload.
"""

import random

import opmc.builders as builders
import opmc.cofree as cofree
import opmc.graded as graded
import opmc.rings as rings
import opmc.twisting as twisting
from opmc.errors import OpmcError

import oracles
from speed import Stopwatch
from inputs import (
    E2_TWIST_BUILD,
    E2_TWIST_MODULE,
    E2_TWIST_W_MAX,
    int_scalar,
    random_components,
)

INPUTS_PER_ROUND = 2
# every allowed term is present, so the seed moves coefficients, not work
DENSITY = 1.0
CORRUPTIONS = ("square", "twist", "back", "residual")


class E2Twist:
    name = "e2-twist"
    checks_in_ops = False
    setup_repeats = 3

    def __init__(self, root, seed, inputs=INPUTS_PER_ROUND):
        self.rng = random.Random(seed)
        self.n_inputs = inputs
        self.ring = rings.ring_make({"kind": "integers"})

    def setup(self):
        C, self.H = builders.barratt_eccles(self.ring, validate=False,
                                            **E2_TWIST_BUILD)
        V = graded.GradedModule(
            self.ring, [graded.BasisElement(*row) for row in E2_TWIST_MODULE])
        self.cf = cofree.cofree_build(C, V, E2_TWIST_W_MAX)

    def prepare(self):
        """Draw the seeded inputs: curved and flat coderivations alternate."""
        V = self.cf.V
        self.inputs = []
        for i in range(self.n_inputs):
            arities = range(0 if i % 2 == 0 else 1, self.cf.cooperad.r_max + 1)
            comps = random_components(self.cf, self.rng, int_scalar, arities,
                                      DENSITY)
            Qt = cofree.Coderivation(
                self.cf, {k: _element(V, t) for k, t in comps.items()})
            v = V.gen("x", int_scalar(self.rng))
            self.inputs.append((Qt, v))
        return []

    def produce(self):
        records = []
        for Qt, v in self.inputs:
            rec = {"label": "round-trip", "input": (Qt, v), "error": None}
            sw = Stopwatch()
            try:
                rec["twisted"] = twisting.twist(self.H, Qt, v, verify=False)
                rec["square"] = cofree.square_check(rec["twisted"])
                rec["back"] = twisting.twist(self.H, rec["twisted"], v.scale(-1),
                                             verify=False)
            except OpmcError as exc:
                rec["error"] = f"{exc.code}: {exc}"
            rec["seconds"], rec["wall_s"] = sw.stop()
            if rec["error"] is None:
                rec["residual"] = twisting.mc_residual(self.H, Qt, v)
            records.append(rec)
        return records

    def check(self, records):
        cf = self.cf
        weight = {n: cf.V.weight(n) for n in cf.V.names}
        for rec in records:
            if rec["error"]:
                rec["failure"] = rec["error"]
                continue
            Qt, v = rec["input"]
            tw, back = rec["twisted"], rec["back"]
            if not rec["square"][0]:
                rec["failure"] = f"twist does not square to zero at {rec['square'][1]!r}"
                continue
            keys = set(back.comps) | set(Qt.comps)
            bad = [k for k in keys if not back.component(k).eq(Qt.component(k))]
            if bad:
                rec["failure"] = f"twisting back by -v changed {bad[0]!r}"
                continue
            if not tw.curvature().eq(rec["residual"]):
                rec["failure"] = "curvature of the twist differs from mc_residual"
                continue
            want = oracles.e2_residual(
                lambda key: Qt.component(key).terms,
                Qt.curvature().terms, v.terms, weight, cf.w_max,
                cf.cooperad.r_max)
            if rec["residual"].terms != want:
                rec["failure"] = "mc_residual differs from the class-by-class sum"
                continue
            rec["failure"] = None

    def corrupt(self, records, kind):
        """Spoil one output of the first operation; returns its index."""
        rec = records[0]
        V = self.cf.V
        if kind == "square":
            rec["square"] = (False, "corrupted")
        elif kind == "twist":
            tw = rec["twisted"]
            rec["twisted"] = _with_curvature(self.cf, tw,
                                             tw.curvature().add(V.gen("y")))
        elif kind == "back":
            back = rec["back"]
            key = next(iter(back.comps))
            comps = dict(back.comps)
            comps[key] = back.comps[key].scale(2)
            rec["back"] = cofree.Coderivation(self.cf, comps)
        elif kind == "residual":
            rec["residual"] = rec["residual"].add(V.gen("w"))
            rec["twisted"] = _with_curvature(self.cf, rec["twisted"],
                                             rec["residual"])
        return 0


def _with_curvature(cf, tw, curvature):
    comps = dict(tw.comps)
    comps[(0, cf.cooperad.unit_name, ())] = curvature
    return cofree.Coderivation(cf, comps)


def _element(V, terms):
    el = V.zero()
    el.terms = dict(terms)
    return el
