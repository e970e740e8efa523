"""The library tour runs to its end and every check it prints holds."""

import re
import runpy
from pathlib import Path

TOUR = Path(__file__).resolve().parent.parent / "demos" / "library_tour.py"


def test_library_tour(capsys):
    runpy.run_path(str(TOUR), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if "False" in line]
    assert sum("True" in line for line in lines) == 5
    kan = re.fullmatch(r"kan spot check: filled (\d+)/(\d+) horns", lines[-1])
    assert kan and kan.group(1) == kan.group(2)
