"""Seeded input generation shared by the workloads and by make_data.py.

Everything here draws from a ``random.Random`` handed in by the caller,
so one seed always gives the same inputs.  The program receives only
the generated objects.
"""

from fractions import Fraction

# e2-twist: Barratt-Eccles cochains at the E2 level of the complexity
# filtration, over Z, with cogenerators of weight 1 to 3.
E2_TWIST_BUILD = {"r_max": 3, "d_max": 2, "n": 2}
E2_TWIST_MODULE = (("x", 0, 1), ("y", -1, 2), ("w", -1, 3))
E2_TWIST_W_MAX = 4

# e2-horns: the checked-in instance over Z/2.  Cogenerators run from
# degree -1 up to the top horn dimension, so horn values can sit on
# every class of the 5-simplex.
E2_HORNS_MODULE = (
    ("y", -1, 2), ("w", -1, 3), ("x", 0, 1), ("z", 0, 2), ("a", 1, 1),
    ("b", 1, 2), ("c", 1, 3), ("p", 2, 2), ("r", 2, 3), ("q", 3, 3),
    ("s", 4, 3), ("t", 5, 3),
)
E2_HORNS_W_MAX = 3
E2_HORNS_DIMS = (1, 2, 3, 4, 5)
E2_HORN_FILES_PER_DIM = 4

# linf-cli: the classical curved L-infinity case, commutative cochains
# over Q with four cogenerators.
LINF_MODULE = (("x", 0, 1), ("z", 0, 2), ("y", -1, 2), ("w", -1, 3))
LINF_W_MAX = 4


def int_scalar(rng):
    """A nonzero integer of small size."""
    return rng.choice((-3, -2, -1, 1, 2, 3))


def rational_scalar(rng):
    """A nonzero rational of small height."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def random_components(cf, rng, scalar, arities, density):
    """Random corestriction data that is complete by construction.

    For every cofree basis key of an allowed arity, each cogenerator of
    the right degree (one below the key's) and of weight at least the
    key's weight enters with probability ``density``.  The arity-0 key
    carries the curvature.  Returns {key: {generator: scalar}}.
    """
    V = cf.V
    out = {}
    for key in cf.module.names:
        if key[0] not in arities:
            continue
        want_deg = cf.module.degree(key) - 1
        want_wt = cf.module.weight(key)
        terms = {}
        for vn in V.names:
            if V.degree(vn) != want_deg or V.weight(vn) < want_wt:
                continue
            if rng.random() < density:
                terms[vn] = scalar(rng)
        if terms:
            out[key] = terms
    return out
