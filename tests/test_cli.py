import json
from pathlib import Path

import pytest

from opmc.cli import main, parse_element_spec
from opmc.errors import CompletenessError, InstanceFormatError
from opmc.instances import (
    format_element,
    instance_to_dict,
    load_instance,
    parse_instance,
)
from opmc.mc_space import MCProblem

BASE = {
    "format": "opmc-instance/1",
    "ring": {"kind": "integers-mod-m", "modulus": 2},
    "cooperad": {"builder": "ass", "r_max": 3},
    "module": [
        {"name": "x", "degree": 0, "weight": 1},
        {"name": "u", "degree": 1, "weight": 1},
        {"name": "y", "degree": -1, "weight": 2},
    ],
    "coderivation": [
        {"arity": 2, "class": "12", "inputs": ["x", "x"],
         "value": [["y", "1"]]},
    ],
    "options": {"w_max": 3},
}


@pytest.fixture()
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(BASE))
    return str(path)


def write_variant(tmp_path, name, **edits):
    doc = json.loads(json.dumps(BASE))
    doc.update(edits)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_and_canonical_roundtrip(inst_file):
    inst = load_instance(inst_file)
    doc = instance_to_dict(inst)
    inst2 = parse_instance(doc)
    assert instance_to_dict(inst2) == doc
    assert inst.ring.spec() == {"kind": "integers-mod-m", "modulus": 2}
    assert set(inst.V.names) == {"x", "u", "y"}


def test_parse_rejects_bad_documents(tmp_path):
    with pytest.raises(InstanceFormatError):
        parse_instance({"format": "nope/9"})
    with pytest.raises(InstanceFormatError):
        parse_instance({**BASE, "cooperad": {"builder": "mystery", "r_max": 2}})
    bad = json.loads(json.dumps(BASE))
    bad["coderivation"][0]["value"] = [["nope", "1"]]
    with pytest.raises(InstanceFormatError):
        parse_instance(bad)
    frac = json.loads(json.dumps(BASE))
    frac["coderivation"][0]["value"] = [["y", "1/2"]]
    with pytest.raises(InstanceFormatError):
        parse_instance(frac)
    # the be builder takes n = null or an int >= 1; strings and booleans
    # are refused rather than compared or read as 1
    for n in ("2", True):
        be = {**BASE, "cooperad": {"builder": "be", "r_max": 2, "d_max": 1,
                                   "n": n}}
        with pytest.raises(InstanceFormatError):
            parse_instance(be)


# one value of each JSON type; a bool and a float are kinds of their own,
# since the parser must neither read true as 1 nor truncate 1.5
JSON_VALUES = {"null": None, "bool": True, "float": 1.5, "int": 2,
               "string": "2", "list": [1], "object": {"a": 1}}
SMALL = {**BASE, "cooperad": {"builder": "ass", "r_max": 2}}
TYPED_DOCS = {
    "instance": SMALL,
    "be": {**BASE, "cooperad": {"builder": "be", "r_max": 2, "d_max": 1,
                                "n": 2},
           "coderivation": []},
    "horn": {"format": "opmc-horn/1", "n": 1, "k": 0,
             "values": [{"class": [0], "value": [["x", "1"]]}]},
    "simplex": {"format": "opmc-simplex/1", "n": 0,
                "values": [{"class": [0], "value": [["x", "1"]]}]},
}
# replacements that are themselves valid documents
ALLOWED = {("be", ("cooperad", "n"), "null")}


def _fields(doc, path=()):
    """Every path into ``doc``, following the first entry of each list."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _fields(value, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from _fields(doc[0], path + (0,))


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _json_type(value):
    return next(name for name, v in JSON_VALUES.items()
                if type(v) is type(value))


@pytest.mark.parametrize("kind", sorted(TYPED_DOCS))
def test_wrong_json_types_are_refused(tmp_path, capsys, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(SMALL))
    command = {
        "horn": ["horn-fill", "--instance", str(inst), "--horn"],
        "simplex": ["mc-simplicial", "--instance", str(inst),
                    "--verify-simplex"],
    }.get(kind, ["validate"])
    base = TYPED_DOCS[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(base))
    assert main(command + [str(path)]) == 0
    capsys.readouterr()
    accepted = []
    for field in _fields(base):
        was = _json_type(_value_at(base, field))
        for name, value in JSON_VALUES.items():
            if name == was or (kind, field, name) in ALLOWED:
                continue
            path.write_text(json.dumps(_replaced(base, field, value)))
            code = main(command + [str(path)])
            err = capsys.readouterr().err
            if (code != 1 or not err.startswith("error[")
                    or "Traceback" in err):
                accepted.append((field, name, code, err))
    assert not accepted


def test_parse_flags_weight_violations():
    bad = json.loads(json.dumps(BASE))
    bad["module"][2]["weight"] = 1  # y now too light for an arity-2 value
    with pytest.raises(CompletenessError) as err:
        parse_instance(bad)
    assert "('x', 'x')" in str(err.value)


@pytest.mark.parametrize("weight", [0, -1])
def test_module_weight_below_one_is_refused(tmp_path, capsys, weight):
    doc = json.loads(json.dumps(BASE))
    doc["module"][0]["weight"] = weight
    path = write_variant(tmp_path, "light.json", module=doc["module"])
    for command in (["validate", path],
                    ["kan-check", "--instance", path, "--trials", "1"]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[instance-format]:")
        assert f"'name': 'x', 'degree': 0, 'weight': {weight}" in err
        assert "Traceback" not in err


def test_element_spec_parsing(inst_file):
    inst = load_instance(inst_file)
    assert parse_element_spec(inst.V, "0").is_zero()
    el = parse_element_spec(inst.V, "x")
    assert el.terms == {"x": 1}
    el = parse_element_spec(inst.V, "x=1,u=1")
    assert el.terms == {"x": 1, "u": 1}
    with pytest.raises(InstanceFormatError):
        parse_element_spec(inst.V, "zzz")
    assert format_element(el) in ("u + x", "x + u")


ENTRY = BASE["coderivation"][0]
# Input refusals: (argv, document, error line).  "inst" in argv stands
# for the BASE instance and "doc" for the document, written to a file.
REFUSALS = {
    "bad-coefficient": (
        ["validate", "doc"],
        {**BASE, "coderivation": [{**ENTRY, "value": [["y", "1/0"]]}]},
        "error[instance-format]: bad coefficient '1/0': zero denominator"),
    # the same reader serves an element given on the command line
    "bad-element-coefficient": (
        ["mc", "--instance", "inst", "--element", "x=1/0"], None,
        "error[instance-format]: bad coefficient '1/0': zero denominator"),
    "cooperad-r-max-0": (
        ["validate", "doc"], {**BASE, "cooperad": {"builder": "ass", "r_max": 0}},
        "error[instance-format]: cooperad r_max must be a positive int, got 0"),
    "be-d-max-negative": (
        ["validate", "doc"],
        {**BASE, "cooperad": {"builder": "be", "r_max": 2, "d_max": -1, "n": 2},
         "coderivation": []},
        "error[instance-format]: bad d_max -1"),
    "w-max-0": (
        ["validate", "doc"], {**BASE, "options": {"w_max": 0}},
        "error[instance-format]: bad w_max 0"),
    "duplicate-coderivation-entry": (
        ["validate", "doc"], {**BASE, "coderivation": [ENTRY, ENTRY]},
        "error[instance-format]: duplicate coderivation entry "
        "(2, '12', ('x', 'x'))"),
    # com cochains have no chain coproduct, so no simplicial set
    "kan-check-on-com": (
        ["kan-check", "--instance",
         str(Path(__file__).parent / "data" / "linf_q.json"), "--trials", "1"],
        None,
        "error[unsupported]: no chain-coalgebra structure available for "
        "builder 'com'"),
    "simplex-n-negative": (
        ["mc-simplicial", "--instance", "inst", "--verify-simplex", "doc"],
        {"format": "opmc-simplex/1", "n": -1, "values": []},
        "error[instance-format]: bad simplex dimension -1"),
    "horn-value-of-mixed-degree": (
        ["horn-fill", "--instance", "inst", "--horn", "doc"],
        {"format": "opmc-horn/1", "n": 1, "k": 0, "values": [
            {"class": [0], "value": [["x", "1"], ["u", "1"]]}]},
        "error[shape]: horn value on e_(0,) must be homogeneous of degree 0"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_input_refusals_print_one_error_line(inst_file, tmp_path, capsys, case):
    """Each refusal exits 1 with its error line as the whole of stderr:
    no traceback and nothing on stdout."""
    argv, doc, line = REFUSALS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [{"inst": inst_file, "doc": str(path)}.get(a, a) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert (captured.out, captured.err) == ("", line + "\n")


def test_validate_command(inst_file, tmp_path, capsys):
    assert main(["validate", inst_file]) == 0
    assert "ok" in capsys.readouterr().out
    bad = write_variant(tmp_path, "bad.json", format="nope/1")
    assert main(["validate", bad]) == 1
    assert "error[instance-format]" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_einfty_degree_cut_is_rejected(tmp_path, capsys):
    """E-infinity cochains cut at d_max 1 are no Hopf cooperad: the cup
    product of two arity-3 edges fails to commute with cocomposition."""
    path = write_variant(tmp_path, "einf.json", coderivation=[], cooperad={
        "builder": "be", "r_max": 3, "d_max": 1, "n": None})
    assert main(["validate", path]) == 1
    assert capsys.readouterr().err == (
        "error[validation]: barratt-eccles hopf structure failed "
        "hopf-cocomposition-compat arity 3: "
        "(3, 2, (1, 2), '123|132', '132|321')\n")


def test_be_d_max_defaults_to_the_top_degree_for_finite_n(tmp_path, capsys):
    """A finite n without d_max is the whole truncation of E_n, as in
    ``e2c_z2.json``; E-infinity has no top degree, so n null needs d_max."""
    data = Path(__file__).parent / "data"
    assert main(["validate", str(data / "e2c_z2.json")]) == 0
    capsys.readouterr()
    einf = write_variant(tmp_path, "einf.json", coderivation=[], cooperad={
        "builder": "be", "r_max": 3, "n": None})
    assert main(["validate", einf]) == 1
    assert capsys.readouterr().err == (
        "error[instance-format]: cooperad has no 'd_max'\n")


def test_unknown_command_is_usage_error(inst_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--instance", inst_file])
    assert exc.value.code == 2
    capsys.readouterr()


def test_mc_enumerate_output(inst_file, capsys):
    assert main(["mc", "--instance", inst_file, "--enumerate"]) == 0
    assert capsys.readouterr().out.strip() == "{0, x}"
    assert main(["mc", "--instance", inst_file, "--element", "x"]) == 0
    out = capsys.readouterr().out
    assert "mc: true" in out and "residual: 0" in out


def test_twist_zero_equals_export(inst_file, tmp_path, capsys):
    out1 = str(tmp_path / "tw.json")
    out2 = str(tmp_path / "exp.json")
    assert main(["twist", "--instance", inst_file, "--element", "0",
                 "--output", out1]) == 0
    assert main(["export", "--instance", inst_file, "--output", out2]) == 0
    capsys.readouterr()
    with open(out1) as a, open(out2) as b:
        assert a.read() == b.read()
    # exported file is itself a valid instance
    assert main(["validate", out2]) == 0
    capsys.readouterr()


def test_export_is_deterministic(inst_file, capsys):
    assert main(["export", "--instance", inst_file]) == 0
    first = capsys.readouterr().out
    assert main(["export", "--instance", inst_file]) == 0
    assert capsys.readouterr().out == first


def test_horn_fill_and_reverify(inst_file, tmp_path, capsys):
    horn = tmp_path / "horn.json"
    horn.write_text(json.dumps({
        "format": "opmc-horn/1", "n": 1, "k": 0,
        "values": [{"class": [0], "value": [["x", "1"]]}],
    }))
    filled = str(tmp_path / "filled.json")
    assert main(["horn-fill", "--instance", inst_file,
                 "--horn", str(horn), "--output", filled]) == 0
    capsys.readouterr()
    assert main(["mc-simplicial", "--instance", inst_file,
                 "--verify-simplex", filled]) == 0
    assert "mc: true" in capsys.readouterr().out
    # drop one endpoint value: verification now fails with exit 1
    doc = json.loads(open(filled).read())
    doc["values"] = [row for row in doc["values"] if row["class"] != [1]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["mc-simplicial", "--instance", inst_file,
                 "--verify-simplex", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "mc: false" in out and "witness" in out


@pytest.mark.parametrize("args, doc", [
    (["horn-fill", "--horn"], {"format": "opmc-horn/1", "n": 1, "k": 0}),
    (["mc-simplicial", "--verify-simplex"], {"format": "opmc-simplex/1",
                                             "n": 1}),
], ids=["horn", "simplex"])
def test_value_row_without_class(inst_file, tmp_path, capsys, args, doc):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({**doc, "values": [{"value": [["x", "1"]]}]}))
    assert main([args[0], "--instance", inst_file, args[1], str(path)]) == 1
    assert "error[instance-format]" in capsys.readouterr().err


@pytest.mark.parametrize("args, doc", [
    (["horn-fill", "--horn"], {"format": "opmc-horn/1", "n": 1, "k": 0}),
    (["mc-simplicial", "--verify-simplex"], {"format": "opmc-simplex/1",
                                             "n": 1}),
], ids=["horn", "simplex"])
def test_duplicate_value_rows_are_refused(inst_file, tmp_path, capsys, args,
                                          doc):
    # a later row for the same class would otherwise replace the first:
    # here the zero row would turn the vertex value x into 0
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({**doc, "values": [
        {"class": [0], "value": [["x", "1"]]}, {"class": [0], "value": []}]}))
    assert main([args[0], "--instance", inst_file, args[1], str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[instance-format]: duplicate value row for class [0]\n")


@pytest.mark.parametrize("args", [
    ["validate"],
    ["horn-fill", "--instance", None, "--horn"],
    ["mc-simplicial", "--instance", None, "--verify-simplex"],
], ids=["instance", "horn", "simplex"])
def test_file_that_is_not_utf8_is_refused(inst_file, tmp_path, capsys, args):
    # a UTF-16 byte order mark: the file cannot be read as UTF-8 text
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = [inst_file if a is None else a for a in args] + [str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[instance-format]:") and "UTF-8" in err


def test_horn_past_the_cap_is_refused(inst_file, tmp_path, capsys):
    # 2^41 - 1 chain classes: refused before any class is listed
    horn = tmp_path / "horn.json"
    horn.write_text(json.dumps({"format": "opmc-horn/1", "n": 40, "k": 0,
                                "values": []}))
    assert main(["horn-fill", "--instance", inst_file,
                 "--horn", str(horn)]) == 1
    assert "error[resource-limit]" in capsys.readouterr().err


def test_horn_fill_blames_a_structure_that_does_not_square_to_zero(
        tmp_path, capsys):
    # e2_z.json over Z/3, where Q o Q is 4c = c at (3, '123', ('a', 'a',
    # 'a')): filling this horn meets a nonzero defect whose correction
    # vanishes, and the error names the structure, not an internal check
    doc = json.loads((Path(__file__).parent / "data" / "e2_z.json")
                     .read_text(encoding="utf-8"))
    doc["ring"] = {"kind": "integers-mod-m", "modulus": 3}
    inst = tmp_path / "e2_z3.json"
    inst.write_text(json.dumps(doc))
    horn = tmp_path / "horn.json"
    horn.write_text(json.dumps({"format": "opmc-horn/1", "n": 2, "k": 0,
                                "values": [
                                    {"class": [1], "value": [["z", "2"]]},
                                    {"class": [0, 1], "value": [["a", "1"]]},
                                ]}))
    assert main(["horn-fill", "--instance", str(inst),
                 "--horn", str(horn)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error[convention]: the convolution solution condition assumes a "
        "coderivation that squares to zero; Q o Q is nonzero on "
        "(3, '123', ('a', 'a', 'a'))")


def test_mc_simplicial_enumerate(inst_file, capsys):
    assert main(["mc-simplicial", "--instance", inst_file,
                 "--n", "1", "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert "solutions on the 1-simplex: 4" in out


def test_resource_cap_env(inst_file, capsys, monkeypatch):
    monkeypatch.setenv("OPMC_RESOURCE_CAP", "2")
    assert main(["mc-simplicial", "--instance", inst_file,
                 "--n", "2", "--enumerate"]) == 1
    assert "error[resource-limit]" in capsys.readouterr().err
    monkeypatch.setenv("OPMC_RESOURCE_CAP", "nope")
    assert main(["mc-simplicial", "--instance", inst_file,
                 "--n", "1", "--enumerate"]) == 1
    assert "error[instance-format]" in capsys.readouterr().err


def test_kan_check_deterministic(inst_file, capsys):
    args = ["kan-check", "--instance", inst_file,
            "--trials", "6", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "attempted=6 filled=6" in first
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_kan_check_refuses_trials_past_the_cap(inst_file, capsys, monkeypatch):
    # more trials than the cap are refused before any vertex is
    # enumerated or any horn filled
    def refuse(*args, **kwargs):
        raise AssertionError("kan-check started work past the cap")

    monkeypatch.setattr(MCProblem, "mc_simplices", refuse)
    monkeypatch.setattr(MCProblem, "horn_fill", refuse)
    monkeypatch.setenv("OPMC_RESOURCE_CAP", "5")
    assert main(["kan-check", "--instance", inst_file, "--trials", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error[resource-limit]: 6 trials exceed the cap 5")


def test_decompose_simplex_output(inst_file, capsys):
    assert main(["decompose-simplex", "--instance", inst_file,
                 "--n", "2", "--class", "0,1", "--arity", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "12 | 0 ; 0,1 -> 1",
        "12 | 0,1 ; 1 -> 1",
        "21 | 0,1 ; 0 -> 1",
        "21 | 1 ; 0,1 -> 1",
        "total: 4 terms",
    ]
    assert main(["decompose-simplex", "--instance", inst_file,
                 "--n", "1", "--class", "zero", "--arity", "2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("cls", ["0,7", "2,1", "1,1", "0,1,2,3"])
def test_decompose_simplex_refuses_non_classes(inst_file, capsys, cls):
    # a vertex outside 0..n, an unsorted class, a repeated vertex, too many
    assert main(["decompose-simplex", "--instance", inst_file,
                 "--n", "2", "--class", cls, "--arity", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[shape]" in captured.err


@pytest.mark.parametrize("arity, err", [
    ("4", "error[shape]: arity 4 exceeds the truncation 3\n"),
    ("-1", "error[shape]: arity -1 outside truncation (R_max=3)\n"),
    ("0", None),
])
def test_decompose_simplex_arity_range(capsys, arity, err):
    # arities outside 0..r_max are refused before any coproduct work;
    # arity 0 has no terms
    inst = str(Path(__file__).parent / "data" / "e2_z2.json")
    code = main(["decompose-simplex", "--instance", inst,
                 "--n", "2", "--class", "0,1", "--arity", arity])
    captured = capsys.readouterr()
    if err is None:
        assert code == 0
        assert captured.out == "total: 0 terms\n"
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err == err


@pytest.mark.parametrize("cls", ["0,1,2", "1,2,3"])
def test_decompose_simplex_term_cap(inst_file, capsys, monkeypatch, cls):
    # a 3-vertex class has 36 arity-3 terms; at cap 35 the top class of
    # that size and every other class of that size are refused alike
    args = ["decompose-simplex", "--instance", inst_file,
            "--n", "3", "--class", cls, "--arity", "3"]
    monkeypatch.setenv("OPMC_RESOURCE_CAP", "35")
    assert main(args) == 1
    assert "error[resource-limit]: decomposition exceeded the term cap 35" in (
        capsys.readouterr().err)
    monkeypatch.setenv("OPMC_RESOURCE_CAP", "36")
    assert main(args) == 0
    assert capsys.readouterr().out.endswith("total: 36 terms\n")


def test_build_cooperad_listing(inst_file, capsys):
    assert main(["build-cooperad", "--instance", inst_file]) == 0
    out = capsys.readouterr().out
    assert "arity 2: 2 classes" in out
    assert "arity 3: 6 classes" in out


def test_shipped_demo_instance(capsys):
    assert main(["validate", "demos/instances/ass_z2.json"]) == 0
    capsys.readouterr()
