"""The closed-form and pruned builders against the dense reference loops.

Every table is compared as a list of (name, terms) items, so the names,
their order and the order of the terms within each list must agree.
"""

import resource
from functools import cache
from math import comb

import pytest

import dense_builders as dense
from opmc import operads
from opmc.builders import ass_cochains, barratt_eccles, be_simplices
from opmc.errors import ShapeError
from opmc.rings import ring_make

Z = ring_make({"kind": "integers"})
Z2 = ring_make({"kind": "integers-mod-m", "modulus": 2})

BE_BUILDS = {
    "e2-z2": (Z2, 3, 2, 2),
    # complete E2: the most restrictions that are 0
    "e2c-z2": (Z2, 3, 3, 2),
    # the e2-twist build, the one over Z with coefficients -1: the sign
    # of the shuffle shows at (2, (1, 2)), (2, (2, 1)) and the arity-0
    # shapes of arity 3
    "e2-z": (Z, 3, 2, 2),
    "einf-d1": (Z, 3, 1, None),
    "einf-r2": (Z, 2, 2, None),
}


def ordered(tables):
    return {key: list(table.items()) for key, table in tables.items()}


@cache
def dense_be_tables(build):
    ring, r_max, d_max, n = BE_BUILDS[build]
    return ordered(dense.dense_tables(
        dense.dense_be_chain_operad(ring, r_max, d_max, n)))


@pytest.mark.parametrize("build", sorted(BE_BUILDS))
def test_be_tables_and_cup_products_match_dense(build):
    ring, r_max, d_max, n = BE_BUILDS[build]
    C, H = barratt_eccles(ring, r_max, d_max, n=n, validate=False)
    assert ordered(C.cocomp) == dense_be_tables(build)
    assert ordered(H.products) == ordered(dense.dense_cup_products(C, d_max))


def test_a_dropped_restriction_changes_the_tables(monkeypatch):
    """The oracle comparison catches a restriction index that misses one
    entry.  123|213 restricts to the edge 12|21 when slot 3 takes the
    unit, so gamma(123|213; 1, 1, ()) is not 0; without that entry the
    tables differ at exactly the shapes of pattern (1, 1, 0), the ones
    that read it."""
    restrictions, dropped = operads._restrictions, []

    def spoiled(words_k, pattern, names):
        out = restrictions(words_k, pattern, names)
        if pattern == (True, True, False):
            dropped.extend(entry for entry in out if entry[0] == "123|213")
            out = [entry for entry in out if entry[0] != "123|213"]
        return out

    monkeypatch.setattr(operads, "_restrictions", spoiled)
    ring, r_max, d_max, n = BE_BUILDS["e2-z2"]
    C, _ = barratt_eccles(ring, r_max, d_max, n=n, validate=False)
    assert set(dropped) == {("123|213", "12|21")}
    tables, expect = ordered(C.cocomp), dense_be_tables("e2-z2")
    assert [key for key in tables if tables[key] != expect[key]] == [
        (3, (1, 1, 0)), (3, (1, 2, 0)), (3, (2, 1, 0))]


@pytest.mark.parametrize("ring, n", [(Z, 1), (Z2, 2)])
def test_omitted_d_max_is_the_top_degree(ring, n):
    C, H = barratt_eccles(ring, 3, n=n, validate=False)
    top_C, top_H = barratt_eccles(ring, 3, (n - 1) * comb(3, 2), n=n,
                                  validate=False)
    assert C.basis_names(3) == top_C.basis_names(3)
    assert ordered(C.cocomp) == ordered(top_C.cocomp)
    assert ordered(H.products) == ordered(top_H.products)


def test_einfty_needs_d_max():
    with pytest.raises(ShapeError, match="d_max"):
        barratt_eccles(Z, 3, n=None, validate=False)


def test_ass_tables_match_dense():
    C, _ = ass_cochains(Z, 4, validate=False)
    assert ordered(C.cocomp) == ordered(dense.dense_tables(dense.dense_ass_chain_operad(Z, 4)))


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("n", [None, 1, 2, 3])
def test_be_simplices_match_filtered_enumeration(r, n):
    # past the top dimension of E2 at arity 3; 3,750 tuples in dimension 4
    assert be_simplices(r, 4, n) == dense.dense_be_simplices(r, 4, n)


def dimension_counts(simplices):
    counts = {}
    for s in simplices:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    return counts


@pytest.fixture()
def address_space_cap():
    """Cap this process at 2 GiB of address space for one test: without
    its pruning, be_simplices(4, 8, 2) would list 24 * 23^8 tuples, and
    the process should stop with MemoryError instead of exhausting the
    machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 << 30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("r, n, top_count", [(3, 2, 12), (3, 3, 48), (4, 2, 384)])
def test_be_simplices_top_dimension(address_space_cap, r, n, top_count):
    # each step reverses at least one pair, and complexity n allows each
    # pair n - 1 reversals: the top dimension is (n - 1) * C(r, 2)
    top = (n - 1) * comb(r, 2)
    counts = dimension_counts(be_simplices(r, top + 2, n))
    assert max(counts) == top
    assert counts[top] == top_count


def test_be_simplices_e2_counts():
    assert dimension_counts(be_simplices(3, 5, 2)) == {0: 6, 1: 30, 2: 36, 3: 12}
