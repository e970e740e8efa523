"""Permutations, symmetric group modules given by orbit representatives,
the norm map and normal forms for coinvariant classes.

A permutation sigma of 1..r is its tuple of images (sigma(1), ..,
sigma(r)); ``compose``, ``inverse`` and ``permute_slots`` act on those
tuples.

A free S_r-module is presented by a set of orbit representatives: the
basis is {sigma . rep} and the action permutes basis names (no signs on
the module factor; Koszul signs only enter through the tensor slots that
an action permutes alongside).  ``TrivialModule`` is the one non-free
module: rank one, trivial action, over a ring containing Q.

A module stores its action once, as the table ``actions`` of rows
{name: sigma . name} keyed by sigma; its constructor checks the
group law at every arity (``is_group_action``), and every layer reads it.
"""

from itertools import combinations_with_replacement
from itertools import permutations as _itperms
from itertools import product
from math import factorial

from .errors import FreenessError, RingRequirementError, ShapeError
from .graded import BasisElement, Element, GradedModule, koszul_sign_images

__all__ = ["OrbitModule", "TrivialModule", "adjacent_swaps", "all_permutations",
           "compose", "inverse", "is_group_action", "permute_slots"]


def all_permutations(r):
    """The permutations of 1..r, each as its tuple of images."""
    return list(_itperms(range(1, r + 1)))


def compose(s, t):
    """s after t: the images of t read through s."""
    return tuple(s[i - 1] for i in t)


def inverse(s):
    """The permutation that undoes s."""
    inv = [0] * len(s)
    for i, im in enumerate(s, start=1):
        inv[im - 1] = i
    return tuple(inv)


def permute_slots(s, items):
    """Place items[i] into slot s[i]; returns a tuple."""
    out = [None] * len(s)
    for x, im in zip(items, s):
        out[im - 1] = x
    return tuple(out)


def adjacent_swaps(r):
    """Images of the adjacent transpositions (i, i+1) of S_r, in order."""
    ident = tuple(range(1, r + 1))
    return [ident[:i] + (i + 2, i + 1) + ident[i + 2:] for i in range(r - 1)]


def is_group_action(r, actions):
    """Whether ``actions``, sigma -> {name: sigma . name} with
    every row on the names of the identity row, is an action of S_r: the
    identity fixes every name, and act[s t] = act[s] o act[t] for every s
    and every adjacent swap t.  The swaps generate S_r, so by induction
    on word length act[s u] = act[s] o act[u] for all s, u."""
    ident = tuple(range(1, r + 1))
    if any(x != n for n, x in actions[ident].items()):
        return False
    for i, t in enumerate(adjacent_swaps(r)):
        ft = actions[t].items()
        for s, fs in actions.items():
            fst = actions[s[:i] + (s[i + 1], s[i]) + s[i + 2:]]
            for n, x in ft:
                if fst[n] != fs.get(x):
                    return False
    return True


class OrbitModule:
    """Free S_r permutation module on named basis elements.

    ``actions`` maps sigma -> {name: sigma . name}: one row per
    sigma, keyed in the order of ``all_permutations``, each row in basis
    order.  The constructor is the one place that checks it: every sigma
    has a row, each row maps the basis into itself, the rows form a group
    action (``is_group_action``, the same check at every arity), each
    orbit representative is a basis name and the action is free, with
    every name in the orbit of one representative.
    """

    def __init__(self, ring, arity, basis, orbit_reps, actions):
        self.arity = arity
        self.module = GradedModule(ring, basis)
        self.orbit_reps = list(orbit_reps)
        known = self.module.basis
        self.actions = {}
        for sigma in all_permutations(arity):
            row = actions.get(sigma)
            if row is None:
                raise ShapeError(f"action table has no row for {sigma}")
            if row.keys() != known.keys() or not set(row.values()) <= known.keys():
                raise ShapeError(f"row {sigma} is no map of the basis to itself")
            self.actions[sigma] = {n: row[n] for n in known}
        if not is_group_action(arity, self.actions):
            raise ShapeError("action table is not a group action")
        for rep in self.orbit_reps:
            if rep not in known:
                raise ShapeError(f"orbit representative {rep!r} is not a basis name")
        self._index()

    def _index(self):
        """Locate every name as sigma . rep, refusing an action that is
        not free or whose representatives miss an orbit."""
        self._locate = {}
        self._normal = {}
        for rep in self.orbit_reps:
            for sigma, row in self.actions.items():
                name = row[rep]
                if name in self._locate:
                    raise FreenessError(
                        f"action is not free: {name!r} reached twice from orbit reps"
                    )
                self._locate[name] = (rep, sigma)
                self._normal[name] = (rep, inverse(sigma))
        if len(self._locate) != len(self.module.names):
            raise FreenessError("orbit representatives do not generate the basis")

    @property
    def ring(self):
        return self.module.ring

    def locate(self, name):
        """Return (rep, sigma) with name = sigma . rep."""
        return self._locate[name]

    def coinv_normalize(self, name, slots, slot_degrees):
        """Carry c to its orbit representative; returns (rep, slots', sign).

        The output is the canonical representative of the coinvariant
        class [c (x) slots]; independent of the input representative.
        """
        if len(slots) != self.arity:
            raise ShapeError("slot count does not match arity")
        rep, inv = self._normal[name]
        return rep, permute_slots(inv, slots), koszul_sign_images(inv, slot_degrees)

    # -- what the cofree coalgebra reads of a component -------------------

    def class_tuples(self, names, vdegree):
        """The v-tuples that key a class rep (x) vt: all of them."""
        return product(names, repeat=self.arity)

    def orbit_sum(self, rep, slots, vdegree):
        """Plain expansion of the class of rep (x) slots: the norm."""
        return norm_plain(self, {(rep, slots): self.ring.one}, vdegree)

    def collection_coefficient(self, name, slots, vdegree):
        """Coefficient of the class of name (x) slots in an orbit sum.

        By freeness the orbit sum of a key has exactly one term whose
        cooperad factor is a representative, with coefficient one; other
        terms are not read (None).
        """
        return self.ring.one if self._locate[name][0] == name else None

    def act_element(self, sigma, x):
        """Action on a plain Element of the underlying module."""
        row = self.actions[sigma]
        return Element(self.module, self.ring.collect(
            (row[n], c) for n, c in x.terms.items()))


class TrivialModule(OrbitModule):
    """Rank-one S_r-module with the trivial action, over a ring with Q.

    The action is not free, so a class c (x) v_1..v_r is keyed by its
    sorted v-tuple and expanded through the norm over r!.  The
    stabilizer of a sorted tuple permutes runs of equal names; its signed
    sum h is the product of m! over runs of m equal names, or 0 when an
    odd-degree name repeats (the class vanishes).
    """

    def __init__(self, ring, arity, name):
        if not ring.contains_rationals:
            raise RingRequirementError(
                "trivial symmetric group actions need the divided norm, "
                "which requires Q in the ring"
            )
        super().__init__(ring, arity, [BasisElement(name, 0)], [name], {
            sigma: {name: name} for sigma in all_permutations(arity)})

    def _index(self):
        """The one name is its own representative; the action is not free."""
        name = self.orbit_reps[0]
        self._locate = {name: (name, tuple(range(1, self.arity + 1)))}

    def coinv_normalize(self, name, slots, slot_degrees):
        """Sort the slots; the sign is the Koszul sign of the (stable) sort."""
        if len(slots) != self.arity:
            raise ShapeError("slot count does not match arity")
        sign = 1
        for j, dj in enumerate(slot_degrees):
            if dj % 2:
                for i in range(j):
                    if slot_degrees[i] % 2 and slots[i] > slots[j]:
                        sign = -sign
        return name, tuple(sorted(slots)), sign

    def class_tuples(self, names, vdegree):
        """Sorted v-tuples in which no odd-degree name repeats."""
        tuples = combinations_with_replacement(sorted(names), self.arity)
        return [vt for vt in tuples if _stabilizer_sum(vt, vdegree)]

    def orbit_sum(self, rep, slots, vdegree):
        """The norm over r!, in closed form.

        sigma carries the sorted slots to one of their distinct
        reorderings w, and the sigmas that reach the same w differ by the
        stabilizer; so w comes with coefficient eps(w) h / r!, eps(w) the
        Koszul sign of sorting w, and nothing survives when h = 0.
        """
        ring = self.ring
        _, srt, sign = self.coinv_normalize(rep, slots, [vdegree(v) for v in slots])
        h = _stabilizer_sum(srt, vdegree)
        if not h:
            return {}
        base = sign * h * ring.inv(factorial(self.arity))
        out = {}
        for w in sorted(set(_itperms(srt))):
            eps = self.coinv_normalize(rep, w, [vdegree(v) for v in w])[2]
            out[rep, w] = ring.normalize(base * eps)
        return out

    def collection_coefficient(self, name, slots, vdegree):
        """r!/h on a sorted tuple; None off sorted tuples and where h = 0."""
        if tuple(sorted(slots)) != slots:
            return None
        h = _stabilizer_sum(slots, vdegree)
        if not h:
            return None
        ring = self.ring
        return ring.normalize(factorial(self.arity) * ring.inv(h))


def _stabilizer_sum(slots, vdegree):
    """Signed size of the stabilizer of a sorted tuple (see TrivialModule)."""
    h = run = 1
    for prev, cur in zip(slots, slots[1:]):
        if cur != prev:
            run = 1
            continue
        if vdegree(cur) % 2:
            return 0
        run += 1
        h *= run
    return h


# -- the norm and its inverse, on plain term dicts ----------------------------
#
# A "plain tensor" is a dict (cname, vtuple) -> coeff, where vtuple is a
# tuple of V-basis names and vdegree gives their degrees.  ``norm_plain``
# is the norm map, one pass over the action table.  ``orbit_classes`` is
# the one inverse of a component's ``orbit_sum`` (the norm for a free
# action, the norm over r! for the trivial one): it reads an invariant
# tensor back as classes, and the cofree coalgebra reads every output
# back through it, ``decompose``'s blocks included.  Those outputs are
# invariant by construction, which orbit_classes assumes and does not
# check; the tests check the round trip.


def norm_plain(om, terms, vdegree):
    """Tr(x) = sum over sigma of sigma.x, sigma.(c (x) vt) = sigma.c (x)
    sigma.vt with the Koszul sign; keys come sigma by sigma, term by term."""
    plain = [(cname, vt, coeff, tuple(vdegree(v) for v in vt))
             for (cname, vt), coeff in terms.items()]
    return om.ring.collect(
        ((row[cname], permute_slots(sigma, vt)),
         coeff * koszul_sign_images(sigma, degs))
        for sigma, row in om.actions.items()
        for cname, vt, coeff, degs in plain)


def orbit_classes(om, terms, vdegree):
    """The classes whose orbit sums add up to the plain tensor ``terms``.

    Each term is read with ``om.collection_coefficient``, and terms it
    does not read are dropped; returns {(rep, vtuple): coeff}.  The
    classes expand back to ``terms`` exactly when ``terms`` is invariant.
    """
    out = []
    for (cname, vt), coeff in terms.items():
        lam = om.collection_coefficient(cname, vt, vdegree)
        if lam is not None:
            out.append(((cname, vt), coeff * lam))
    return om.ring.collect(out)
