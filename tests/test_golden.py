"""Golden CLI outputs, byte for byte.

The expected files under ``tests/data/golden`` pin the output of the
trivial-action path (``linf_q.json``: ``com`` cochains over Q, with
fractional and with integral coefficients), of the
free-action path (the shipped ``ass`` demo instance over Z/2), and of
the convolution operations behind ``horn-fill``, ``mc-simplicial`` and
``decompose-simplex`` (the ``ass`` demo and ``e2_z2.json``, E2 cochains
over Z/2).  ``twist``, ``mc`` and ``decompose-simplex`` are pinned again
where signs do not vanish: the ``ass`` demo over Z (``ass_z.json``) and
Z/3 (``ass_z3.json``), and the E2 instance over Z (``e2_z.json``),
whose coproduct of a face is pinned too.  A quadratic instance over Z/3
(``quad_z3.json``) pins a horn fill that needs one correction step.
"""

import json
from pathlib import Path

import pytest

from opmc.cli import main
from opmc.cofree import square_check
from opmc.instances import load_instance

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
DEMOS = Path(__file__).parent.parent / "demos" / "instances"
ASS = str(DEMOS / "ass_z2.json")
HORN_1_0 = str(DEMOS / "horn_1_0.json")

CASES = {
    "linf_validate": ["validate", "linf_q.json"],
    "linf_mc_x": ["mc", "--instance", "linf_q.json", "--element", "x=2/3"],
    "linf_mc_xz": ["mc", "--instance", "linf_q.json",
                   "--element", "x=-3/2,z=1/3"],
    "linf_export": ["export", "--instance", "linf_q.json"],
    # integral coefficients over Q: the int form of a rational scalar
    "linf_mc_x2": ["mc", "--instance", "linf_q.json", "--element", "x=2"],
    "linf_twist_x3": ["twist", "--instance", "linf_q.json", "--element", "x=3"],
    "linf_twist_x3_validate": ["validate", "golden/linf_twist_x3.txt"],
    "linf_twist_x3_back": ["twist", "--instance", "golden/linf_twist_x3.txt",
                           "--element", "x=-3"],
    "ass_twist_x": ["twist", "--instance", ASS, "--element", "x"],
    "ass_mc_enumerate": ["mc", "--instance", ASS, "--enumerate"],
    "ass_horn_fill_1_0": ["horn-fill", "--instance", ASS, "--horn", HORN_1_0],
    "ass_horn_fill_3_1": ["horn-fill", "--instance", ASS,
                          "--horn", "ass_horn_3_1.json"],
    "ass_mc_simplicial_n1": ["mc-simplicial", "--instance", ASS, "--n", "1",
                             "--enumerate"],
    "ass_mc_simplicial_n2": ["mc-simplicial", "--instance", ASS, "--n", "2",
                             "--enumerate"],
    "ass_verify_filled_3_1": ["mc-simplicial", "--instance", ASS,
                              "--verify-simplex",
                              "golden/ass_horn_fill_3_1.txt"],
    "ass_decompose_top": ["decompose-simplex", "--instance", ASS, "--n", "2",
                          "--class", "0,1,2", "--arity", "2"],
    "ass_decompose_edge": ["decompose-simplex", "--instance", ASS, "--n", "3",
                           "--class", "1,3", "--arity", "2"],
    "ass_decompose_face_arity3": ["decompose-simplex", "--instance", ASS,
                                  "--n", "3", "--class", "0,2,3",
                                  "--arity", "3"],
    "ass_kan_check": ["kan-check", "--instance", ASS, "--trials", "8",
                      "--seed", "1"],
    "ass_build_cooperad": ["build-cooperad", "--instance", ASS],
    "e2_horn_fill_3_0": ["horn-fill", "--instance", "e2_z2.json",
                         "--horn", "e2_horn_3_0.json"],
    "quad_horn_fill_2_0": ["horn-fill", "--instance", "quad_z3.json",
                           "--horn", "quad_horn_2_0.json"],
}
# The same demo over Z and Z/3, and E2 cochains over Z: signs survive
for inst in ("ass_z", "ass_z3", "e2_z"):
    CASES[f"{inst}_twist_x"] = ["twist", "--instance", f"{inst}.json",
                                "--element", "x"]
    CASES[f"{inst}_mc_x2"] = ["mc", "--instance", f"{inst}.json",
                              "--element", "x=2"]
    CASES[f"{inst}_decompose_top"] = ["decompose-simplex", "--instance",
                                      f"{inst}.json", "--n", "2",
                                      "--class", "0,1,2", "--arity", "2"]
# a class other than the top, with signs: its coproduct is computed for
# the class itself
CASES["e2_z_decompose_face"] = ["decompose-simplex", "--instance", "e2_z.json",
                                "--n", "3", "--class", "0,2,3", "--arity", "2"]


@pytest.mark.parametrize("name", list(CASES))
def test_golden_stdout(name, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_golden_twist_output_file(tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    out = tmp_path / "twisted.json"
    assert main(["twist", "--instance", "linf_q.json", "--element", "x=2/3",
                 "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "linf_twist_x.json").read_bytes()


# Checked-in instances whose coderivation does not square to zero, with
# the key where square_check finds Q o Q nonzero.  The solution space and
# its horn fillers assume Q o Q = 0, so such an instance is only twisted,
# checked and decomposed.
NOT_SQUARE_ZERO = {"tests/data/e2_z.json": (3, "123", ("a", "a", "a"))}
ROOT = Path(__file__).parent.parent


def test_checked_in_instances_square_to_zero():
    seen = {}
    for top in ("tests/data", "bench/data", "demos/instances"):
        for path in sorted((ROOT / top).rglob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc.get("format") == "opmc-instance/1":
                ok, witness = square_check(load_instance(str(path)).Qt)
                seen[path.relative_to(ROOT).as_posix()] = (
                    None if ok else witness[0])
    assert "demos/instances/ass_z2.json" in seen
    assert {name: key for name, key in seen.items() if key} == NOT_SQUARE_ZERO
    for name in NOT_SQUARE_ZERO:
        commands = {args[0] for args in CASES.values()
                    if Path(name).name in args}
        assert commands == {"twist", "mc", "decompose-simplex"}
