"""linf-cli: an ``opmc`` session on a curved L-infinity instance over Q.

Every command runs in-process through ``opmc.cli.main`` on a checked-in
``com`` instance (r_max=4, w_max=4, four cogenerators); one operation is
one command.  The session validates the instance, evaluates the
solution condition at three seeded elements, twists by the first of
them with the default verification on, validates the twisted file,
twists it back and exports the original for a byte comparison.
"""

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction

import opmc.cli as cli
import opmc.cofree as cofree
import opmc.instances as instances

import oracles
from speed import Stopwatch
from inputs import rational_scalar

INSTANCE = "bench/data/linf_q.json"
CORRUPTIONS = ("exit", "residual", "twisted", "export")


class LinfCli:
    name = "linf-cli"
    checks_in_ops = False
    setup_repeats = 3

    def __init__(self, root, seed):
        self.root = root
        self.rng = random.Random(seed)
        self.work = root / "bench" / "out" / f"work-{os.getpid()}"

    def setup(self):
        self.inst = instances.load_instance(str(self.root / INSTANCE))

    def prepare(self):
        """Draw the seeded elements and lay out the session's commands."""
        rng = self.rng
        self.elements = [
            {"x": rational_scalar(rng)},
            {"x": rational_scalar(rng), "z": rational_scalar(rng)},
            {"z": rational_scalar(rng)},
        ]
        self.doc = json.loads((self.root / INSTANCE).read_text(encoding="utf-8"))
        self.work.mkdir(parents=True, exist_ok=True)
        inst = str(self.root / INSTANCE)
        self.files = {k: str(self.work / f"{k}.json")
                      for k in ("twisted", "back", "orig")}
        v = self.elements[0]
        minus_v = {g: -c for g, c in v.items()}
        self.session = [("validate", ["validate", inst])]
        for j, el in enumerate(self.elements):
            self.session.append((f"mc-{j}", ["mc", "--instance", inst,
                                             "--element", _spec(el)]))
        self.session += [
            ("twist", ["twist", "--instance", inst, "--element", _spec(v),
                       "--output", self.files["twisted"]]),
            ("validate-twisted", ["validate", self.files["twisted"]]),
            ("twist-back", ["twist", "--instance", self.files["twisted"],
                            "--element", _spec(minus_v),
                            "--output", self.files["back"]]),
            ("export", ["export", "--instance", inst,
                        "--output", self.files["orig"]]),
        ]
        return []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def produce(self):
        for path in self.files.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        records = []
        for label, argv in self.session:
            sw = Stopwatch()
            code, out, err = run_cli(argv)
            seconds, wall = sw.stop()
            records.append({"label": label, "seconds": seconds, "wall_s": wall,
                            "code": code, "stdout": out, "stderr": err})
        by = {rec["label"]: rec for rec in records}
        for label, key in (("twist", "twisted"), ("twist-back", "back"),
                           ("export", "orig")):
            by[label]["file"] = _read(self.files[key])
        return records

    def check(self, records):
        by = {rec["label"]: rec for rec in records}
        for rec in records:
            rec["failure"] = None if rec["code"] == 0 else (
                f"exit code {rec['code']}: {rec['stderr'].strip()}")
        printed = {}
        for j, v in enumerate(self.elements):
            rec = by[f"mc-{j}"]
            if rec["failure"]:
                continue
            flag, residual = _parse_mc(rec["stdout"])
            printed[j] = residual
            if residual != oracles.linf_residual(self.doc, v):
                rec["failure"] = "printed residual differs from the L-infinity sum"
            elif flag != (not residual):
                rec["failure"] = "mc flag disagrees with the printed residual"
        rec = by["twist"]
        if not rec["failure"]:
            doc = json.loads(rec["file"])
            if 0 in printed and oracles.curvature_row(doc) != printed[0]:
                rec["failure"] = "curvature row differs from the printed residual"
            else:
                twisted = instances.parse_instance(doc, validate=False)
                ok, witness = cofree.square_check(twisted.Qt)
                if not ok:
                    rec["failure"] = f"twisted instance does not square to zero at {witness[0]!r}"
        rec = by["twist-back"]
        if not rec["failure"] and rec["file"] != by["export"]["file"]:
            rec["failure"] = "twisted-back file differs from the export"

    def corrupt(self, records, kind):
        """Spoil one output; returns the index of the operation it belongs to."""
        labels = [rec["label"] for rec in records]
        if kind == "exit":
            records[0]["code"] = 1
            return 0
        if kind == "residual":
            i = labels.index("mc-1")
            out = records[i]["stdout"].replace("residual: ", "residual: 7*w + ", 1)
            records[i]["stdout"] = out
            return i
        if kind == "twisted":
            i = labels.index("twist")
            doc = json.loads(records[i]["file"])
            row = next(r for r in doc["coderivation"] if r["arity"] == 0)
            row["value"] = [[g, str(Fraction(c) + 1)] for g, c in row["value"]]
            records[i]["file"] = json.dumps(doc)
            return i
        i = labels.index("export")
        records[i]["file"] = records[i]["file"].replace("}", " }", 1)
        return labels.index("twist-back")


def run_cli(argv):
    """Exit code, standard output and standard error of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _spec(element):
    return ",".join(f"{g}={c}" for g, c in sorted(element.items()))


def _parse_mc(text):
    flag = residual = None
    for line in text.splitlines():
        if line.startswith("mc: "):
            flag = line[4:] == "true"
        elif line.startswith("residual: "):
            residual = oracles.parse_printed_element(line[10:])
    return flag, residual


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None
