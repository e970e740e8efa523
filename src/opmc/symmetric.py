"""Permutations, free symmetric group modules given by orbit representatives,
the norm map and normal forms for coinvariant classes.

A free S_r-module is presented by a set of orbit representatives: the
basis is {sigma . rep} and the action permutes basis names (no signs on
the module factor; Koszul signs only enter through the tensor slots that
an action permutes alongside).
"""

from itertools import permutations as _itperms

from .errors import FreenessError, InvarianceError, ShapeError
from .graded import BasisElement, Element, GradedModule, koszul_sign_images

__all__ = ["Permutation", "OrbitModule", "all_permutations"]


class Permutation:
    """Bijection of {1..r}, stored as the tuple of images."""

    __slots__ = ("r", "images")

    def __init__(self, images):
        images = tuple(images)
        r = len(images)
        if sorted(images) != list(range(1, r + 1)):
            raise ShapeError(f"not a permutation of 1..{r}: {images}")
        self.r = r
        self.images = images

    def __call__(self, i):
        return self.images[i - 1]

    def compose(self, other):
        """self after other."""
        if other.r != self.r:
            raise ShapeError("arity mismatch in composition")
        return Permutation(tuple(self(other(i)) for i in range(1, self.r + 1)))

    def inverse(self):
        inv = [0] * self.r
        for i, im in enumerate(self.images, start=1):
            inv[im - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self):
        return self.images == tuple(range(1, self.r + 1))

    def permute_slots(self, items):
        """Place items[i] into slot self(i+1); returns a tuple."""
        if len(items) != self.r:
            raise ShapeError("slot count does not match arity")
        out = [None] * self.r
        for i, x in enumerate(items, start=1):
            out[self(i) - 1] = x
        return tuple(out)

    def koszul_sign(self, degrees):
        return koszul_sign_images(self.images, degrees)

    def sign(self):
        return koszul_sign_images(self.images, (1,) * self.r)

    @classmethod
    def identity(cls, r):
        return cls(tuple(range(1, r + 1)))

    def oneline(self):
        return "".join(str(i) for i in self.images) if self.r < 10 else \
            "-".join(str(i) for i in self.images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.images})"


def all_permutations(r):
    return [Permutation(p) for p in _itperms(range(1, r + 1))]


class OrbitModule:
    """Free S_r permutation module on named basis elements.

    ``action`` maps (sigma.images, name) -> name.  Freeness (sigma.b = b
    only for sigma = id) is verified on construction.
    """

    def __init__(self, ring, arity, basis, orbit_reps, action):
        self.arity = arity
        self.module = GradedModule(ring, basis)
        self.orbit_reps = list(orbit_reps)
        self._action = dict(action)
        self._group = all_permutations(arity)
        self._locate = {}
        self._check_and_index()

    @classmethod
    def from_orbits(cls, ring, arity, rep_basis, act_name):
        """Build from representatives and a free action function on names."""
        group = all_permutations(arity)
        basis, action, seen = [], {}, set()
        for rep in rep_basis:
            for sigma in group:
                name = act_name(sigma, rep.name)
                if name not in seen:
                    seen.add(name)
                    basis.append(BasisElement(name, rep.degree, rep.weight))
        for b in basis:
            for sigma in group:
                action[(sigma.images, b.name)] = act_name(sigma, b.name)
        return cls(ring, arity, basis, [r.name for r in rep_basis], action)

    def _check_and_index(self):
        names = set(self.module.names)
        idp = Permutation.identity(self.arity)
        for (images, name), out in self._action.items():
            if out not in names:
                raise ShapeError(f"action leaves the basis: {name!r} -> {out!r}")
        for name in names:
            if self.act_name(idp, name) != name:
                raise ShapeError("action table does not fix the identity")
        # group action property on a generating set is implied by the full
        # table check below (we verify all pairs; arities are tiny).
        if self.arity <= 4:
            for s in self._group:
                for t in self._group:
                    st = s.compose(t)
                    for name in names:
                        if self.act_name(st, name) != self.act_name(s, self.act_name(t, name)):
                            raise ShapeError("action table is not a group action")
        covered = set()
        for rep in self.orbit_reps:
            for sigma in self._group:
                name = self.act_name(sigma, rep)
                if name in self._locate:
                    raise FreenessError(
                        f"action is not free: {name!r} reached twice from orbit reps"
                    )
                self._locate[name] = (rep, sigma)
                covered.add(name)
        if covered != names:
            raise FreenessError("orbit representatives do not generate the basis")

    @property
    def ring(self):
        return self.module.ring

    def group(self):
        return self._group

    def act_name(self, sigma, name):
        if sigma.r != self.arity:
            raise ShapeError(f"arity mismatch: {sigma.r} vs {self.arity}")
        return self._action[(sigma.images, name)]

    def locate(self, name):
        """Return (rep, sigma) with name = sigma . rep."""
        return self._locate[name]

    def is_rep(self, name):
        return self._locate[name][1].is_identity()

    def act_class(self, sigma, name, slots, slot_degrees):
        """Diagonal action on c (x) v_1...v_r: returns (name', slots', sign)."""
        if len(slots) != self.arity:
            raise ShapeError("slot count does not match arity")
        new_name = self.act_name(sigma, name)
        new_slots = sigma.permute_slots(slots)
        return new_name, new_slots, sigma.koszul_sign(slot_degrees)

    def coinv_normalize(self, name, slots, slot_degrees):
        """Carry c to its orbit representative; returns (rep, slots', sign).

        The output is the canonical representative of the coinvariant
        class [c (x) slots]; independent of the input representative.
        """
        rep, sigma = self.locate(name)
        inv = sigma.inverse()
        out_name, out_slots, sign = self.act_class(inv, name, slots, slot_degrees)
        assert out_name == rep
        return rep, out_slots, sign

    def act_element(self, sigma, x):
        """Action on a plain Element of the underlying module."""
        out = self.module.zero()
        acc = {}
        ring = self.ring
        for n, c in x.terms.items():
            m = self.act_name(sigma, n)
            acc[m] = ring.add(acc.get(m, ring.zero), c)
        out.terms = acc
        return out.prune()

    def norm_element(self, x):
        """Sum of sigma.x over the full group (module factor only)."""
        out = self.module.zero()
        for sigma in self._group:
            out = out.add(self.act_element(sigma, x))
        return out

    def is_invariant(self, x):
        return all(self.act_element(s, x).eq(x) for s in self._group)

    def rep_coefficients(self, x):
        """Coefficients of x on the orbit-representative basis names."""
        return {rep: x.coeff(rep) for rep in self.orbit_reps}

    def norm_inverse_element(self, y):
        """Inverse of the norm map on the module factor.

        y must be invariant; returns the Element supported on orbit reps
        whose norm is y, erroring if no such element exists.
        """
        if not self.is_invariant(y):
            raise InvarianceError("element is not invariant under the group action")
        x = self.module.zero()
        x.terms = {r: c for r, c in self.rep_coefficients(y).items()}
        x.prune()
        if not self.norm_element(x).eq(y):
            raise FreenessError("norm map is not surjective onto this element")
        return x


# -- diagonal action on C(r) (x) V^{(x)r}, on plain term dicts ---------------
#
# A "plain tensor" is a dict (cname, vtuple) -> coeff, where vtuple is a
# tuple of V-basis names and vdegree gives their degrees.  These functions
# realize the norm map Tr(x) = sum_sigma sigma.x and its inverse on the
# canonical orbit-representative normal form.


def _prune_plain(ring, terms):
    return {k: ring.normalize(c) for k, c in terms.items() if not ring.is_zero(ring.normalize(c))}


def act_plain(om, sigma, terms, vdegree):
    """Diagonal action of sigma on a plain tensor over OrbitModule om."""
    ring = om.ring
    out = {}
    for (cname, vtuple), coeff in terms.items():
        degs = tuple(vdegree(v) for v in vtuple)
        nname, nslots, sign = om.act_class(sigma, cname, vtuple, degs)
        key = (nname, nslots)
        out[key] = ring.add(out.get(key, ring.zero), ring.mul(coeff, sign))
    return _prune_plain(ring, out)


def norm_plain(om, terms, vdegree, rational_variant=False):
    """Tr(x) = sum over sigma of sigma.x (diagonal action with Koszul signs).

    With ``rational_variant`` (Q only) the alternate norm dividing by r!
    is used instead.
    """
    ring = om.ring
    out = {}
    for sigma in om.group():
        acted = act_plain(om, sigma, terms, vdegree)
        for k, c in acted.items():
            out[k] = ring.add(out.get(k, ring.zero), c)
    if rational_variant:
        if not ring.contains_rationals:
            raise InvarianceError("the r!-divided norm requires Q in the ring")
        from math import factorial

        inv = ring.inv(ring.normalize(factorial(om.arity)))
        out = {k: ring.mul(c, inv) for k, c in out.items()}
    return _prune_plain(ring, out)


def is_invariant_plain(om, terms, vdegree):
    ring = om.ring
    terms = _prune_plain(ring, terms)
    return all(act_plain(om, s, terms, vdegree) == terms for s in om.group())


def norm_inverse_plain(om, terms, vdegree):
    """Inverse of the norm on a free module: read off orbit-rep components.

    Raises InvarianceError if the input is not invariant and FreenessError
    if re-applying the norm does not reproduce it.
    """
    ring = om.ring
    if not is_invariant_plain(om, terms, vdegree):
        raise InvarianceError("element is not invariant under the diagonal action")
    reps = set(om.orbit_reps)
    out = {k: c for k, c in _prune_plain(ring, terms).items() if k[0] in reps}
    if norm_plain(om, out, vdegree) != _prune_plain(ring, terms):
        raise FreenessError("norm map does not reach this invariant element")
    return out


def coinv_normalize_plain(om, terms, vdegree):
    """Rewrite a plain tensor in orbit-representative normal form."""
    ring = om.ring
    out = {}
    for (cname, vtuple), coeff in terms.items():
        degs = tuple(vdegree(v) for v in vtuple)
        rep, slots, sign = om.coinv_normalize(cname, vtuple, degs)
        key = (rep, slots)
        out[key] = ring.add(out.get(key, ring.zero), ring.mul(coeff, sign))
    return _prune_plain(ring, out)
