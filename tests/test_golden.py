"""Golden CLI outputs, byte for byte.

The expected files under ``tests/data/golden`` pin the output of the
trivial-action path (``linf_q.json``: ``com`` cochains over Q) and of the
free-action path (the shipped ``ass`` demo instance over Z/2).
"""

from pathlib import Path

import pytest

from opmc.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
ASS = str(Path(__file__).parent.parent / "demos" / "instances" / "ass_z2.json")

CASES = {
    "linf_validate": ["validate", "linf_q.json"],
    "linf_mc_x": ["mc", "--instance", "linf_q.json", "--element", "x=2/3"],
    "linf_mc_xz": ["mc", "--instance", "linf_q.json",
                   "--element", "x=-3/2,z=1/3"],
    "linf_export": ["export", "--instance", "linf_q.json"],
    "ass_twist_x": ["twist", "--instance", ASS, "--element", "x"],
    "ass_mc_enumerate": ["mc", "--instance", ASS, "--enumerate"],
}


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
