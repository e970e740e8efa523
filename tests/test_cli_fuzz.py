"""CLI fuzz: every call of ``cli.main`` ends with exit code 0, 1 or 2.

Derandomised draws of argv from the real subcommands and flags (read
from ``build_parser``), with file arguments taken from ``tests/data`` or
from mutated copies of those files: a field or list item dropped, a
value's JSON type swapped, or the text truncated.  An exit code is 0 or
1 from ``main`` or 2 from argparse's ``SystemExit``; any other exception
fails the test with its traceback.

Integer options are drawn from -1..3 and no mutation enlarges a size:
``r_max``, ``d_max``, ``n``, ``w_max`` and weights are never dropped
(a dropped ``n`` reads as E-infinity), and their swaps are refused at
parse time.  Refusing oversized jobs before the work starts is a
separate matter, so the calls run under a small ``OPMC_RESOURCE_CAP``
that keeps every enumeration within a second.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from opmc.cli import build_parser, main

DATA = Path(__file__).parent / "data"
FILES = [str(p) for p in sorted(DATA.glob("*.json"))
         + sorted(DATA.glob("golden/*_horn_fill_*.txt"))]
# the files each file option reads in the format it expects
FORMATS = {"instance": "opmc-instance/1", "horn": "opmc-horn/1",
           "verify_simplex": "opmc-simplex/1"}
FILES_FOR = {dest: [f for f in FILES
                    if json.loads(Path(f).read_text())["format"] == fmt]
             for dest, fmt in FORMATS.items()}
SIZE_KEYS = {"r_max", "d_max", "n", "w_max", "weight"}
SWAPS = (None, True, 1.5, "2", [], {}, ["x", "1"], {"kind": "integers"})
ELEMENTS = ("0", "x", "x=1", "x=2/3,z=1/3", "x=-1,y=2", "q", "x=", "=1",
            ",", "x=1/0", "x=a", "")
CLASSES = ("0", "0,1", "1,3", "0,1,2", "0,2,3", "0,1,2,3", "1,0", "0,0",
           "", "a", "-1", "0,,1")


# hypothesis favours the first choice of sampled_from
RARELY_FALSE = st.sampled_from((True,) * 19 + (False,))


def _subcommands():
    """{name: [argparse action]} of the real parser, without --help."""
    ap = build_parser()
    (sub,) = [a for a in ap._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


SUBCOMMANDS = _subcommands()


def _paths(doc, at=()):
    """Every path (a tuple of keys) in a JSON document, the root
    included."""
    yield at
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, val in items:
        yield from _paths(val, at + (key,))


def _mutate(draw, text):
    """The text of a mutated copy of one JSON file."""
    kind = draw(st.sampled_from(("drop", "swap", "truncate")))
    if kind == "truncate":
        return text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    doc = json.loads(text)
    if kind == "drop":
        spots = [p for p in _paths(doc) if p and p[-1] not in SIZE_KEYS]
        if not spots:
            return text
        *parent, last = draw(st.sampled_from(spots))
        holder = doc
        for key in parent:
            holder = holder[key]
        del holder[last]
        return json.dumps(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    holder, old = None, doc
    for key in path:
        holder, old = old, old[key]
    sized = bool(path) and path[-1] in SIZE_KEYS
    new = draw(st.sampled_from([v for v in SWAPS
                                if type(v) is not type(old)
                                and not (v is None and sized)]))
    if holder is None:
        return json.dumps(new)
    holder[path[-1]] = new
    return json.dumps(doc)


def _file(draw, tmp, dest):
    """A file argument: a data file, most often of the format the option
    reads, a mutated copy of one, a missing path or a directory."""
    choice = draw(st.sampled_from(("data",) * 4 + ("mutated",) * 4
                                  + ("missing", "dir")))
    if choice == "missing":
        return os.path.join(tmp, "missing.json")
    if choice == "dir":
        return tmp
    src = draw(st.sampled_from(FILES_FOR[dest] if draw(st.integers(0, 3))
                               else FILES))
    if choice == "data":
        return src
    path = os.path.join(tmp, f"mutated{draw(st.integers(0, 9))}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_mutate(draw, Path(src).read_text(encoding="utf-8")))
    return path


def _value(draw, action, tmp):
    if action.dest == "output":
        return os.path.join(tmp, "out.json")
    if action.dest == "element":
        return draw(st.sampled_from(ELEMENTS))
    if action.dest == "simplex_class":
        return draw(st.sampled_from(CLASSES))
    if action.type is int:
        return str(draw(st.integers(-1, 3)))
    return _file(draw, tmp, action.dest)


def _argv(draw, tmp):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    for action in SUBCOMMANDS[name]:
        # a required argument is left out now and then, for argparse's exit 2
        if not draw(RARELY_FALSE if action.required else st.booleans()):
            continue
        if action.option_strings:
            argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(_value(draw, action, tmp))
    if not draw(RARELY_FALSE):
        argv.append(draw(st.sampled_from(("--bogus", "extra", "--n"))))
    return argv


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_ends_with_a_controlled_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(data.draw, tmp)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"OPMC_RESOURCE_CAP": "1000"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        # a controlled failure: an error line, or a simplex that fails
        # its --verify-simplex check
        assert (err.getvalue().startswith("error[")
                or out.getvalue().startswith("mc: false")), argv
