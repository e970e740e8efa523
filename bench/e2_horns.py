"""e2-horns: horn filling on a checked-in E2 instance over Z/2.

The instance is loaded through ``instances.load_instance``, which runs
the full validator cascade as every CLI command does.  Each round starts
from a fresh problem, so the chain coproduct is computed again: the
first operation enumerates the vertices, then every selected horn is
filled and its filler, faces and degeneracies are checked.  An
operation's time includes its checks.  Nothing here reaches the shuffle
kernel: the vertex set is compared against ``mc_enumerate`` without its
twist cross-check.
"""

import json
import random

import opmc.cli as cli
import opmc.cooperad as cooperad
import opmc.instances as instances
import opmc.mc_space as mc_space
import opmc.twisting as twisting
from opmc.errors import OpmcError

import oracles
from speed import Stopwatch
from inputs import E2_HORN_FILES_PER_DIM, E2_HORNS_DIMS

INSTANCE = "bench/data/e2_z2.json"
HORNS = "bench/data/horns/e2_h{n}_{i}.json"
HORNS_PER_DIM = 3
CORRUPTIONS = ("vertices", "filler", "face")


class E2Horns:
    name = "e2-horns"
    checks_in_ops = True
    # one load runs the whole validator cascade, about 20 s
    setup_repeats = 1

    def __init__(self, root, seed, dims=E2_HORNS_DIMS, per_dim=HORNS_PER_DIM):
        self.root = root
        self.rng = random.Random(seed)
        self.dims = dims
        self.per_dim = per_dim

    def setup(self):
        self.inst = instances.load_instance(str(self.root / INSTANCE))
        problem = instances.make_problem(self.inst)
        self.morphism_report = cooperad.validate_morphism(problem.phi)
        self.solutions = twisting.mc_enumerate(
            self.inst.hopf, self.inst.Qt, cross_check=False)

    def prepare(self):
        """Order the horns by the seed; report failed set-up checks.

        The seed decides which horns of each dimension are filled and in
        what order, and so which fill computes the chain coproduct of its
        simplex and which finds it cached.
        """
        self.horns = []
        for n in self.dims:
            for i in self.rng.sample(range(E2_HORN_FILES_PER_DIM), self.per_dim):
                path = self.root / HORNS.format(n=n, i=i)
                doc = json.loads(path.read_text(encoding="utf-8"))
                self.horns.append(cli.horn_from_doc(self.inst.V, doc))
        self.vertex_set = {_frozen(v.terms) for v in self.solutions}
        if not self.morphism_report.ok:
            return [f"chain-coalgebra morphism: {self.morphism_report.failures()[0]}"]
        return []

    def produce(self):
        head = {"label": "vertices", "error": None}
        sw = Stopwatch()
        try:
            problem = instances.make_problem(self.inst)
            head["vertices"] = problem.mc_simplices(0)
        except OpmcError as exc:
            head["error"] = f"{exc.code}: {exc}"
        head["seconds"], head["wall_s"] = sw.stop()
        records = [head]
        if head["error"]:
            return records
        for horn in self.horns:
            rec = {"label": f"fill-{horn.n}", "problem": problem, "horn": horn,
                   "error": None}
            sw = Stopwatch()
            try:
                psi = rec["filler"] = problem.horn_fill(horn)
                rec["faces"] = [problem.face(i, psi, verify=False)
                                for i in range(horn.n + 1)]
                rec["degeneracies"] = [problem.degeneracy(j, psi, verify=False)
                                       for j in range(horn.n + 1)]
            except OpmcError as exc:
                rec["error"] = f"{exc.code}: {exc}"
            rec["seconds"], rec["wall_s"] = sw.stop()
            records.append(rec)
        return records

    def check(self, records):
        """Set each record's failure; fills pay for their checks in time."""
        head = records[0]
        if head["error"]:
            head["failure"] = head["error"]
        else:
            got = {_frozen(v.value((0,)).terms) for v in head["vertices"]}
            head["failure"] = None if got == self.vertex_set else (
                "mc_simplices(0) differs from mc_enumerate")
        for rec in records[1:]:
            if rec["error"]:
                rec["failure"] = rec["error"]
                continue
            sw = Stopwatch()
            rec["failure"] = _check_fill(rec)
            seconds, wall = sw.stop()
            rec["seconds"] += seconds
            rec["wall_s"] += wall

    def corrupt(self, records, kind):
        """Spoil one output; returns the index of the operation it belongs to."""
        V = self.inst.V
        if kind == "vertices":
            records[0]["vertices"] = records[0]["vertices"][1:]
            return 0
        rec = records[1]
        if kind == "filler":
            psi = rec["filler"].copy()
            I = mc_space.horn_basis(rec["horn"].n, rec["horn"].k)[0]
            psi.set(I, psi.value(I).add(V.gen("x")))
            rec["filler"] = psi
        elif kind == "face":
            face = rec["faces"][0].copy()
            face.set((0,), face.value((0,)).add(V.gen("x")))
            rec["faces"] = [face] + rec["faces"][1:]
        return 1


def _check_fill(rec):
    problem, horn, psi = rec["problem"], rec["horn"], rec["filler"]
    n = horn.n
    if not problem.mc_check(psi)[0]:
        return "filler fails mc_check"
    for I in mc_space.horn_basis(n, horn.k):
        if psi.value(I).terms != horn.value(I).terms:
            return f"filler changed the horn value on {I}"
    values = _values(psi)
    for i, face in enumerate(rec["faces"]):
        if _values(face) != oracles.face_values(values, n, i):
            return f"face {i} differs from the relabelled filler"
        if not problem.mc_check(face)[0]:
            return f"face {i} fails mc_check"
    faces = rec["faces"] if n >= 2 else []
    for j in range(1, len(faces)):
        for i in range(j):
            a = problem.face(i, faces[j], verify=False)
            b = problem.face(j - 1, faces[i], verify=False)
            if _values(a) != _values(b):
                return f"face identity d{i} d{j} = d{j - 1} d{i} fails"
    for j, up in enumerate(rec["degeneracies"]):
        if _values(up) != oracles.degeneracy_values(values, n, j):
            return f"degeneracy {j} differs from the relabelled filler"
        for i in (j, j + 1):
            if _values(problem.face(i, up, verify=False)) != values:
                return f"d{i} s{j} is not the identity"
    return None


def _values(psi):
    return {I: v.terms for I, v in psi.values.items()}


def _frozen(terms):
    return frozenset(terms.items())
