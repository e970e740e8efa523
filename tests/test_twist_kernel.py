"""The twist path against its memo-free oracles, the lifetime of its
memos, and the twist laws as properties on random E2 instances.

``_shuffle_plain`` cuts its left factor once per 0/1 shape for all its
right factors, and ``twist``, ``coderivation_extend`` and ``MCProblem``
each evaluate Qt through one ``plain_evaluator``.  The oracles in
``dense_convolution`` do every cut and evaluation anew; results are
compared as item lists, so dict order counts too.
"""

import json
import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dense_convolution import dense_on_key, dense_shuffle_plain, dense_twist_components
from helpers import rand_scalar, random_coderivation
from opmc import instances, twisting
from opmc.builders import barratt_eccles, com_cochains
from opmc.cli import horn_from_doc
from opmc.cofree import Coderivation, coderivation_extend, cofree_build, square_check
from opmc.graded import BasisElement, GradedModule
from opmc.rings import ring_make

RINGS = {
    "Z": ring_make({"kind": "integers"}),
    "Z2": ring_make({"kind": "integers-mod-m", "modulus": 2}),
    "Z3": ring_make({"kind": "integers-mod-m", "modulus": 3}),
    "Q": ring_make({"kind": "rationals"}),
}
# every degree of -1..1 at weights 1..3, so that random coderivations
# have a few dozen components and odd degrees give the signs work
SPEC = (("x", 0, 1), ("a", 1, 1), ("y", -1, 2), ("z", 0, 2), ("b", 1, 2),
        ("w", -1, 3))
INSTANCES = ["E2-Z", "E2-Z2", "E2-Z3", "Q-com"]


@cache
def build(label):
    """(H, cf) of an E2 instance over Z, Z/2 or Z/3, or of com over Q."""
    kind, ring = label.split("-")
    if kind == "E2":
        R = RINGS[ring]
        C, H = barratt_eccles(R, 3, 2, n=2, validate=False)
    else:
        R = RINGS["Q"]
        C, H = com_cochains(R, 3, validate=False)
    V = GradedModule(R, [BasisElement(*row) for row in SPEC])
    return H, cofree_build(C, V, 3)


def items(el):
    return list(el.terms.items())


def plain_items(plain):
    return [(r, list(p.items())) for r, p in plain.items()]


def cases(label, seeds=(0, 1, 2)):
    """(Qt, v) per seed, curved and flat, v a random nonzero multiple of x."""
    _, cf = build(label)
    ring = cf.ring
    for seed in seeds:
        rng = random.Random(seed)
        for curved in (True, False):
            Qt = random_coderivation(cf, rng, curved=curved)
            v = cf.V.gen("x", rand_scalar(ring, rng) or ring.one)
            yield Qt, v


@pytest.mark.parametrize("label", INSTANCES)
def test_twist_components_match_oracle(label):
    H, cf = build(label)
    for Qt, v in cases(label):
        ev_plain = twisting._exp_plain(H, cf, v)
        want = dense_twist_components(H, Qt, ev_plain)
        got = twisting.twist(H, Qt, v, verify=False).comps
        assert [(k, items(c)) for k, c in got.items()] == \
            [(k, items(c)) for k, c in want.items()]


@pytest.mark.parametrize("label", INSTANCES)
def test_shuffle_kernel_matches_oracle(label):
    """One kernel call over many right factors gives each product the
    oracle gives alone; the key form is the collected kernel result."""
    H, cf = build(label)
    rng = random.Random(11)
    names = cf.module.names
    for _ in range(3):
        u = cf.module.gen(names[0], 1)  # the unit class: every arity meets
        for _ in range(4):
            u = u.add(cf.module.gen(rng.choice(names), rng.randint(1, 2)))
        xs = [cf.module.gen(rng.choice(names), 1).add(
            cf.module.gen(rng.choice(names), -1)) for _ in range(5)]
        up = cf.expand(u)
        got = twisting._shuffle_plain(H, cf, up, [cf.expand(x) for x in xs])
        want = [dense_shuffle_plain(H, cf, up, cf.expand(x)) for x in xs]
        assert [plain_items(p) for p in got] == [plain_items(p) for p in want]
        assert items(twisting.shuffle(H, cf, u, xs[0])) == items(cf.collect(want[0]))


@pytest.mark.parametrize("label", INSTANCES)
def test_on_key_matches_oracle(monkeypatch, label):
    """The image of every key, and the plain terms summed before the
    image is collected: a term past the weight bound would show there,
    though ``collect`` drops it from the image."""
    _, cf = build(label)
    summed = []

    def recording(terms):
        summed.append(type(cf).sum_by_arity(cf, terms))
        return summed[-1]

    for Qt, _ in cases(label):
        want = {key: dense_on_key(Qt, key) for key in cf.module.names}
        Q = coderivation_extend(Qt)
        with monkeypatch.context() as m:
            m.setattr(cf, "sum_by_arity", recording)
            for key in cf.module.names:
                got = Q.on_key(key)
                plain, image = want[key]
                assert plain_items(summed[-1]) == plain_items(plain), key
                assert items(got) == items(image), key


def _size(value, depth=3):
    """Elements held by a container, nested containers included."""
    if depth == 0 or not isinstance(value, (dict, list, tuple, set)):
        return 0
    inner = value.values() if isinstance(value, dict) else value
    return len(value) + sum(_size(v, depth - 1) for v in inner)


def _state(obj):
    return {name: (id(v), _size(v)) for name, v in vars(obj).items()}


def test_no_memo_outlives_its_call():
    """Every memo of the twist path belongs to one call or one operator:
    twist, square_check, mc_residual and a horn fill leave the
    coderivation, the cofree coalgebra, the Hopf structure and the
    cooperad as they found them."""
    demo = Path(__file__).parent.parent / "demos" / "instances"
    inst = instances.load_instance(str(demo / "ass_z2.json"))
    Qt, cf, H = inst.Qt, inst.cofree, inst.hopf
    objs = (Qt, cf, H, cf.cooperad)
    before = [_state(o) for o in objs]
    v = cf.V.gen("x")
    twisting.twist(H, Qt, v, verify=True)
    twisting.twist(H, Qt, v, verify=False)
    square_check(Qt)
    twisting.mc_residual(H, Qt, v)
    P = instances.make_problem(inst)
    doc = json.loads((demo / "horn_1_0.json").read_text(encoding="utf-8"))
    P.horn_fill(horn_from_doc(inst.V, doc))
    assert [_state(o) for o in objs] == before


@settings(derandomize=True, max_examples=12, deadline=None)
@given(ring_label=st.sampled_from(["Z", "Z2", "Z3"]),
       seed=st.integers(0, 10 ** 6), curved=st.booleans(),
       density=st.sampled_from([0.3, 0.6, 1.0]), top_only=st.booleans(),
       scalar=st.integers(-3, 3))
def test_twist_laws_on_random_e2(ring_label, seed, curved, density, top_only,
                                 scalar):
    """Twisting back by -v gives Qt again, and twisting keeps whether Q
    squares to zero (it conjugates Q by the shuffle action of exp(v)).
    With ``top_only`` every value is cut to its w term: w has the top
    weight and no component can read it, so Q squares to zero."""
    H, cf = build(f"E2-{ring_label}")
    Qt = random_coderivation(cf, random.Random(seed), curved=curved,
                             density=density)
    if top_only:
        Qt = Coderivation(cf, {k: cf.V.element({"w": c.terms["w"]})
                               for k, c in Qt.comps.items() if "w" in c.terms})
        assert square_check(Qt)[0]
    v = cf.V.gen("x", cf.ring.normalize(scalar))
    tw = twisting.twist(H, Qt, v, verify=False)
    back = twisting.twist(H, tw, v.scale(-1), verify=False)
    assert back.comps.keys() == Qt.comps.keys()
    assert all(back.comps[k].eq(c) for k, c in Qt.comps.items())
    assert square_check(tw)[0] == square_check(Qt)[0]
