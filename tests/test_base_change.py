"""Base change as an oracle: every structure map of the Barratt-Eccles
cochains has integer coefficients, so the build over Z, reduced mod m,
is the build over Z/m.  This sees the ring-specific paths (``normalize``
and the zero tests of each ring) that the same-ring oracles cannot."""

import pytest

from opmc.builders import barratt_eccles
from opmc.rings import ring_make

Z = ring_make({"kind": "integers"})

BUILDS = {
    # (r_max, d_max, n): the shipped E2, complete E2 and E3, which the
    # dense oracle cannot reach
    "e2": (3, 2, 2),
    "e2c": (3, None, 2),
    "e3": (3, None, 3),
}


def reduced(ring, rows):
    """{key: [(name, terms)]} with each coefficient normalised in ring and
    the terms and rows that become 0 dropped, in their order."""
    out = {}
    for key, table in rows.items():
        kept = []
        for name, terms in table.items():
            terms = [(ring.normalize(t[0]),) + tuple(t[1:]) for t in terms]
            terms = [t for t in terms if t[0]]
            if terms:
                kept.append((name, terms))
        out[key] = kept
    return out


def as_lists(rows):
    return {key: list(table.items()) for key, table in rows.items()}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_be_structure_commutes_with_reduction(build):
    r_max, d_max, n = BUILDS[build]
    C, H = barratt_eccles(Z, r_max, d_max, n=n, validate=False)
    for m in (2, 3):
        ring = ring_make({"kind": "integers-mod-m", "modulus": m})
        Cm, Hm = barratt_eccles(ring, r_max, d_max, n=n, validate=False)
        assert reduced(ring, C.cocomp) == as_lists(Cm.cocomp), m
        assert reduced(ring, H.products) == as_lists(Hm.products), m
        units = {r: [(nm, ring.normalize(c)) for nm, c in u.terms.items()
                     if ring.normalize(c)] for r, u in H.units.items()}
        assert units == {r: list(u.terms.items()) for r, u in Hm.units.items()}, m
