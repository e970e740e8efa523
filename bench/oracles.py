"""Independent computations the workloads compare the program against.

Nothing here calls into opmc: each oracle works from plain data (dicts
of coefficients, vertex tuples, instance rows read from JSON) with its
own permutation and relabelling code.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial


def inverse_images(images):
    """Inverse of a permutation given as the tuple of its images (1-based)."""
    inv = [0] * len(images)
    for i, im in enumerate(images, start=1):
        inv[im - 1] = i
    return tuple(inv)


def permute_slots(images, items):
    """Place items[i] into slot images[i] (1-based)."""
    out = [None] * len(items)
    for i, x in enumerate(items):
        out[images[i] - 1] = x
    return tuple(out)


def e2_residual(component, curvature, v, weight, w_max, r_max):
    """The solution-condition residual of a twist, summed class by class.

    The Hopf unit of the permutation-tuple cochains in arity r is the sum
    of the r! degree-0 classes, one per permutation sigma, and the class
    of sigma is sigma applied to the identity.  By equivariance its
    pairing with the letters of v is the stored component at the identity
    on the letters moved back by sigma^-1; v has degree 0, so no Koszul
    signs arise.  ``component(key)`` returns {generator: coefficient}.
    Returns {generator: coefficient} with zeros dropped.
    """
    total = dict(curvature)
    for r in range(1, r_max + 1):
        ident = "".join(str(i) for i in range(1, r + 1))
        for sigma in permutations(range(1, r + 1)):
            back = inverse_images(sigma)
            for letters in product(sorted(v), repeat=r):
                if sum(weight[g] for g in letters) > w_max:
                    continue
                coeff = 1
                for g in letters:
                    coeff *= v[g]
                key = (r, ident, permute_slots(back, letters))
                for g, c in component(key).items():
                    total[g] = total.get(g, 0) + coeff * c
    return {g: c for g, c in total.items() if c != 0}


def instance_rows(doc):
    """{(arity, sorted inputs): {generator: Fraction}} from an instance document."""
    rows = {}
    for row in doc["coderivation"]:
        key = (row["arity"], tuple(sorted(row["inputs"])))
        rows[key] = {g: Fraction(c) for g, c in row["value"]}
    return rows


def linf_residual(doc, v):
    """Classical curved L-infinity residual sum_r (1/r!) l_r(v, ..., v).

    Rows of a ``com`` instance store, for sorted inputs t, the bracket
    l_r(x_t1, ..., x_tr) divided by r!; the brackets are symmetric on
    degree-0 inputs, so l_r of an ordered tuple is r! times the row of
    its sorted form.  ``v`` maps degree-0 generators to Fractions.
    """
    rows = instance_rows(doc)
    r_max = doc["cooperad"]["r_max"]
    total = dict(rows.get((0, ()), {}))
    for r in range(1, r_max + 1):
        for letters in product(sorted(v), repeat=r):
            row = rows.get((r, tuple(sorted(letters))))
            if row is None:
                continue
            coeff = Fraction(1)
            for g in letters:
                coeff *= v[g]
            for g, c in row.items():
                bracket = factorial(r) * c
                total[g] = total.get(g, 0) + coeff * bracket / factorial(r)
    return {g: c for g, c in total.items() if c != 0}


def curvature_row(doc):
    """{generator: Fraction} of the arity-0 row of an instance document."""
    for row in doc["coderivation"]:
        if row["arity"] == 0:
            return {g: Fraction(c) for g, c in row["value"]}
    return {}


def parse_printed_element(text):
    """Inverse of the CLI's element printing: 'a*x + y' -> {x: a, y: 1}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for part in text.split(" + "):
        coeff, star, name = part.rpartition("*")
        out[name] = out.get(name, 0) + (Fraction(coeff) if star else 1)
    return {name: c for name, c in out.items() if c != 0}


def face_values(values, n, i):
    """Values of the i-th face of a simplex, by relabelling its classes.

    ``values`` maps vertex tuples of the n-simplex to values; the face's
    class J is the class of the n-simplex on the vertices picked by J.
    """
    verts = [v for v in range(n + 1) if v != i]
    out = {}
    for J, val in values.items():
        if i in J:
            continue
        out[tuple(verts.index(v) for v in J)] = val
    return out


def degeneracy_values(values, n, j):
    """Values of the j-th degeneracy of a simplex on the (n+1)-simplex.

    The vertex map repeats vertex j; a class on which it is not
    injective is degenerate and carries no value.
    """
    collapse = [v if v <= j else v - 1 for v in range(n + 2)]
    out = {}
    for size in range(1, n + 3):
        for J in combinations(range(n + 2), size):
            image = tuple(collapse[v] for v in J)
            if len(set(image)) == len(image) and image in values:
                out[J] = values[image]
    return out
