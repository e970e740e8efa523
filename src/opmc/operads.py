"""The Barratt-Eccles cocomposition tables, read off each simplex.

Chains on the Barratt-Eccles operad compose by the Eilenberg-Zilber
shuffle map followed by vertex-wise block composition of permutations
(Berger-Fresse, "Combinatorial operad actions on cochains", 2004).  The
cochain cooperad transposes that composition: cochain basis names equal
chain basis names, the cochain degree is minus the chain degree, and the
group action table is shared (sigma . delta_x = delta_{sigma . x}).  The
operad carries no differential here, so the truncations are graded
objects without an internal differential.  The transpose has a closed
form, and no product is ever formed:

- A shape (k; r_1..r_k) without an arity-0 inner.  Block i holds the r_i
  values after r_1 + .. + r_{i-1}.  A permutation z is a block composite
  mu(tau_1..tau_k) exactly when every block is contiguous in z's word;
  mu is then the block quotient of z and tau_i the restriction of z to
  block i.  A term of gamma(b; c_1..c_k) walks a path through the
  product of the simplices, one factor moving at each step, and composes
  vertex by vertex.  So an output simplex w fixes the whole path: its
  factors are the quotients and restrictions of w's vertices, repeats
  collapsed, and its row has at most one term.  The term exists when
  every vertex keeps its blocks contiguous and each step moves exactly
  one factor.  Its factors are basis simplices of the truncation, since
  neither the quotient nor a restriction raises the dimension or the
  complexity.  Its sign is the sign of the shuffle: (-1) to the number
  of inversions in the sequence of moving factors.
- A shape with an arity-0 inner; the arity-0 part is the unit alone.
  The restriction of b along the 0/1 pattern p of the shape is
  gamma(b; p), the unit in each arity-0 slot and the identity in every
  other one.  By associativity gamma(b; c_1..c_k) = gamma(gamma(b; p); c')
  with c' the inners of positive arity.  The restriction is the
  vertex-wise restricted word of b, which keeps the dimension and cannot
  raise the complexity; so it is a basis simplex unless two neighbouring
  vertices are equal, and then it is 0 in normalised chains.  The row of
  w is therefore the row of w in the reduced shape (zeros dropped), each
  of its terms (b'; c') joined with every b that restricts to b', and
  the unit placed in the arity-0 slots.

Rows and terms come in the order in which the loop over every product,
outer then inners in basis order, would meet them, the terms of one
product in the order of the iterated shuffle map.
"""

from .cooperad import shapes

__all__ = ["be_cocomposition"]


def be_cocomposition(simplices):
    """The cocomposition tables {(k, shape): {name: [(coeff, outer,
    inners)]}} of the Barratt-Eccles cochains, for every shape of the
    truncation.  ``simplices[r]`` maps each basis name of arity r, in
    basis order, to its tuple of vertex permutations, for r = 0..r_max."""
    r_max = max(simplices)
    words = {r: {nm: tuple(p.images for p in s) for nm, s in named.items()}
             for r, named in simplices.items()}
    names = {r: {w: nm for nm, w in named.items()} for r, named in words.items()}
    unit = next(iter(words[0]))
    rows = {(): {unit: [(1, unit, ())]}}
    tables = {}
    for r in range(r_max + 1):
        for k, shape in shapes(r, r_max):
            reduced = tuple(x for x in shape if x)
            if reduced not in rows:
                rows[reduced] = _rows_by_outer(reduced, words, names)
            pattern = tuple(x > 0 for x in shape)
            joined = {}
            for low, terms in rows[reduced].items():
                joined[low] = [(c, w, _with_units(inners, pattern, unit))
                               for c, w, inners in terms]
            table = {}
            for b, low in _restrictions(words[k], pattern, names[len(reduced)]):
                for c, w, inners in joined.get(low, ()):
                    table.setdefault(w, []).append((c, b, inners))
            tables[(k, shape)] = table
    return tables


def _rows_by_outer(shape, words, names):
    """{b: [(sign, w, inners)]}: the one-term rows of a shape without
    arity-0 inners, grouped by outer, each group ordered by the basis
    positions of the inners and then by the order of the shuffle map."""
    k, r = len(shape), sum(shape)
    block, start = [], []
    for i, size in enumerate(shape):
        start.append(len(block))
        block.extend([i] * size)
    position = {a: {nm: j for j, nm in enumerate(words[a])} for a in set(shape)}
    split = {}

    def split_vertex(z):
        """(block quotient, restrictions to the blocks), or None when a
        block is not contiguous in z."""
        quotient, parts = [], [[] for _ in shape]
        for x in z:
            i = block[x - 1]
            if not quotient or quotient[-1] != i + 1:
                quotient.append(i + 1)
            parts[i].append(x - start[i])
        if len(quotient) != k:
            return None
        return (tuple(quotient),) + tuple(map(tuple, parts))

    found = []
    for w, vertices in words[r].items():
        path = []
        for z in vertices:
            if z not in split:
                split[z] = split_vertex(z)
            if split[z] is None:
                break
            path.append(split[z])
        else:
            moves = []
            for before, after in zip(path, path[1:]):
                moved = [i for i in range(k + 1) if before[i] != after[i]]
                if len(moved) != 1:
                    break
                moves.append(moved[0])
            else:
                b, *inners = [names[a][_collapse(f)]
                              for a, f in zip((k,) + shape, zip(*path))]
                inversions = sum(m > later for j, m in enumerate(moves)
                                 for later in moves[j + 1:])
                # the iterated shuffle merges factor t into the path of
                # factors 0..t-1, earlier merges varying slowest
                order = tuple(tuple(m == t for m in moves if m <= t)
                              for t in range(1, k + 1))
                inner_positions = tuple(position[a][c] for a, c in zip(shape, inners))
                found.append((inner_positions, order, -1 if inversions % 2 else 1,
                              w, b, tuple(inners)))
    found.sort(key=lambda entry: entry[:2])
    rows = {}
    for _, _, sign, w, b, inners in found:
        rows.setdefault(b, []).append((sign, w, inners))
    return rows


def _restrictions(words_k, pattern, names):
    """(b, restriction of b along pattern) for each basis simplex b of
    arity k whose restriction is not 0, in basis order."""
    kept = {v: j for j, v in enumerate(
        (v for v, keep in enumerate(pattern, 1) if keep), 1)}
    cut = {}
    out = []
    for b, vertices in words_k.items():
        low = []
        for z in vertices:
            if z not in cut:
                cut[z] = tuple(kept[x] for x in z if x in kept)
            low.append(cut[z])
        if all(x != y for x, y in zip(low, low[1:])):
            out.append((b, names[tuple(low)]))
    return out


def _with_units(inners, pattern, unit):
    """The inners of positive arity, with the unit in each arity-0 slot."""
    rest = iter(inners)
    return tuple(next(rest) if keep else unit for keep in pattern)


def _collapse(seq):
    """seq with each run of equal neighbours kept once."""
    return tuple(v for j, v in enumerate(seq) if j == 0 or seq[j - 1] != v)
