"""Shared deterministic builders and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: residue classes
are counted through a home-grown column Hermite form, small unimodular
matrices come from exhaustive sign-matrix enumeration, and representation
isomorphism is decided by enumerating raw generator-image tuples.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import combinations, product

from blockeq import (
    BlockShape,
    BlockedMatrix,
    IntMatrix,
    SL,
    InvariantProfile,
    Poset,
    cokernel,
    determinant,
    smith_normal_form,
)
from blockeq.poset_block import generator_moves, move_matrix


def count_calls(monkeypatch, fn, holder=None):
    """Route fn through a counter; returns the list each call appends its
    positional arguments to.  With a holder (a class, say) only the holder's
    attribute named like fn is patched, else every blockeq binding of fn.
    Raises LookupError when no binding holds fn, as after an earlier
    count_calls on it, whose list the calls would then fill instead."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    name = fn.__name__
    owners = [holder] if holder is not None else [
        module for key, module in list(sys.modules.items())
        if key.split(".")[0] == "blockeq"
    ]
    owners = [owner for owner in owners if getattr(owner, name, None) == fn]
    if not owners:
        raise LookupError(f"no binding of {name} holds the function to count")
    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return IntMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def rand_poset(rng, size):
    """Random normalized poset: pairs only point from lower to higher labels,
    so transitive closure never breaks antisymmetry or normalization."""
    pairs = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if rng.random() < 0.5:
                pairs.append((i, j))
    return Poset(size, pairs)


class BruteOrder:
    """The order generated by pairs on 1..size, with every query answered
    from its definition: no bitmasks and nothing shared with Poset."""

    def __init__(self, size, pairs):
        self.size = size
        self.elements = range(1, size + 1)
        leq = {(x, x) for x in self.elements} | set(pairs)
        while True:
            grown = leq | {(a, d) for (a, b) in leq for (c, d) in leq if b == c}
            if grown == leq:
                break
            leq = grown
        self.pairs = leq

    def leq(self, i, j):
        return (i, j) in self.pairs

    def is_convex(self, subset):
        """No j outside the subset has i <= j <= k for some i, k in it."""
        s = set(subset)
        return not any(self.leq(i, j) and self.leq(j, k)
                       for i in s for k in s for j in self.elements if j not in s)

    def convex_subsets(self):
        return [c for k in range(1, self.size + 1)
                for c in combinations(self.elements, k) if self.is_convex(c)]

    def downsets_within(self, subset):
        """Nonempty proper subsets of subset holding every y of subset below
        one of their members."""
        subset = tuple(subset)
        return [c for k in range(1, len(subset)) for c in combinations(subset, k)
                if all(y in c for x in c for y in subset if self.leq(y, x))]

    def up(self, i):
        return sum(1 << j for j in self.elements if self.leq(i, j))

    def down(self, j):
        return sum(1 << i for i in self.elements if self.leq(i, j))


def brute_profile(a, group):
    """The invariant profile from its definition: one cokernel(a.restrict(s))
    per convex subset, listed by BruteOrder, and the whole-matrix and
    diagonal-block classes read from that list."""
    poset = a.shape.poset
    convex = [(s, cokernel(a.restrict(s)))
              for s in BruteOrder(poset.size, poset.pairs).convex_subsets()]
    classes = dict(convex)
    blocks = [(i, a.diagonal_block(i)) for i in poset.elements()]
    blocks = [(i, blk) for i, blk in blocks if blk.rows or blk.cols]
    signs = []
    for i, blk in blocks:
        if group == SL and blk.rows == blk.cols:
            d = determinant(blk)
            signs.append((i, (d > 0) - (d < 0)))
    return InvariantProfile(
        classes[tuple(poset.elements())],
        tuple((i, (blk.rows, blk.cols), classes[(i,)]) for i, blk in blocks),
        tuple(signs),
        tuple(convex),
    )


def rand_square_shape(rng, max_poset=3, max_block=2):
    size = rng.randint(1, max_poset)
    poset = rand_poset(rng, size)
    sizes = tuple(rng.randint(1, max_block) for _ in range(size))
    return BlockShape.square(poset, sizes)


def rand_blocked(rng, shape, lo=-3, hi=3):
    """Random matrix satisfying the blocked pattern."""
    rows = shape.total_rows
    cols = shape.total_cols
    ent = [[0] * cols for _ in range(rows)]
    poset = shape.poset
    for i in poset.elements():
        for j in poset.elements():
            if poset.leq(i, j):
                for r in shape.row_range(i):
                    for c in shape.col_range(j):
                        ent[r][c] = rng.randint(lo, hi)
    return BlockedMatrix(shape, IntMatrix.from_rows(ent) if rows else IntMatrix(0, cols, ()))


def rand_unit_biased_blocked(rng):
    """A blocked matrix on a random poset of 1-5 elements, with square or
    rectangular block sizes 0-2 (zero-size blocks included) and each entry
    on a diagonal block's diagonal set to +-1 half of the time."""
    size = rng.randint(1, 5)
    poset = rand_poset(rng, size)
    while True:
        rows = tuple(rng.randint(0, 2) for _ in range(size))
        cols = rows if rng.random() < 0.5 else tuple(rng.randint(0, 2) for _ in range(size))
        if any(rows) and any(cols):
            break
    shape = BlockShape(poset, rows, cols)
    ent = rand_blocked(rng, shape).matrix.to_rows()
    for i in poset.elements():
        for r, c in zip(shape.row_range(i), shape.col_range(i)):
            if rng.random() < 0.5:
                ent[r][c] = rng.choice((1, -1))
    return BlockedMatrix(shape, IntMatrix.from_rows(ent))


def scramble(rng, blocked, group, max_moves=6):
    """Apply up to max_moves random elementary moves on either side.

    Returns (U, V, scrambled) with scrambled = U * blocked * V; U comes from
    the row-side square group, V from the column side.
    """
    shape = blocked.shape
    rows = shape.total_rows
    cols = shape.total_cols
    left = generator_moves(shape.row_square(), group)
    right = generator_moves(shape.col_square(), group)
    u = IntMatrix.identity(rows)
    v = IntMatrix.identity(cols)
    if left or right:
        k = rng.randint(1, max_moves)
        for _ in range(k):
            if left and (not right or rng.random() < 0.5):
                u = move_matrix(left[rng.randrange(len(left))], rows) * u
            else:
                v = v * move_matrix(right[rng.randrange(len(right))], cols)
    return u, v, BlockedMatrix(shape, u * blocked.matrix * v)


@lru_cache(maxsize=None)
def sign_unimodulars(n):
    """All n x n matrices with entries in {-1, 0, 1} and determinant +-1."""
    from blockeq import determinant

    out = []
    for flat in product((-1, 0, 1), repeat=n * n):
        m = IntMatrix(n, n, flat)
        if determinant(m) in (1, -1):
            out.append(m)
    return tuple(out)


def make_solver(a: IntMatrix):
    """Precomputed integer solver for a fixed coefficient matrix."""
    dec = smith_normal_form(a)
    diag = dec.diagonal()

    def solve(b: IntMatrix):
        c = dec.U * b
        w = [0] * a.cols
        for i in range(a.rows):
            ci = c[i, 0]
            if i < len(diag) and diag[i] != 0:
                if ci % diag[i]:
                    return None
                w[i] = ci // diag[i]
            elif ci != 0:
                return None
        return dec.V * IntMatrix.column(w)

    return solve


# ---------------------------------------------------------------------------
# Residue-class counting oracle (column Hermite form, separate code path)


def _column_hermite(a: IntMatrix):
    """Lower-triangular column form by gcd column operations; needs a square
    nonsingular input.  Returns column vectors."""
    n = a.rows
    cols = [list(a.column_values(j)) for j in range(a.cols)]
    for r in range(n):
        idx = r
        while True:
            nz = [j for j in range(idx, len(cols)) if cols[j][r] != 0]
            if not nz:
                raise ValueError("singular input")
            jmin = min(nz, key=lambda j: abs(cols[j][r]))
            cols[idx], cols[jmin] = cols[jmin], cols[idx]
            done = True
            for j in range(idx + 1, len(cols)):
                if cols[j][r]:
                    q = cols[j][r] // cols[idx][r]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[idx])]
                    if cols[j][r]:
                        done = False
            if done:
                break
        if cols[idx][r] < 0:
            cols[idx] = [-x for x in cols[idx]]
    return cols[:n]


def residue_class_count(a: IntMatrix, limit=10_000):
    """Count residue classes of Z^n modulo the column lattice of a square
    nonsingular a, by closing {0} under unit-vector steps with canonical
    reduction against the Hermite columns."""
    n = a.rows
    hcols = _column_hermite(a)

    def reduce(vec):
        vec = list(vec)
        for r in range(n):
            q = vec[r] // hcols[r][r]
            if q:
                for i in range(n):
                    vec[i] -= q * hcols[r][i]
        return tuple(vec)

    seen = {reduce([0] * n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                for step in (1, -1):
                    w = list(v)
                    w[i] += step
                    w = reduce(w)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
        if len(seen) > limit:
            raise AssertionError("residue enumeration exploded")
    return len(seen)


# ---------------------------------------------------------------------------
# Representation isomorphism oracle (raw tuple enumeration)


def _tuple_add(x, y, orders):
    return tuple((a + b) % d if d else a + b for a, b, d in zip(x, y, orders))


def _tuple_scale(c, x, orders):
    return tuple((c * a) % d if d else c * a for a, d in zip(x, orders))


def _all_elements(orders):
    if any(d == 0 for d in orders):
        raise ValueError("oracle needs finite groups")
    return list(product(*(range(d) for d in orders)))


def _apply(matrix, x, orders_dst):
    out = []
    for i in range(matrix.rows):
        acc = 0
        for j in range(matrix.cols):
            acc += matrix[i, j] * x[j]
        d = orders_dst[i]
        out.append(acc % d if d else acc)
    return tuple(out)


def rep_iso_oracle(rep1, rep2, quiver):
    """Brute-force isomorphism decision: enumerate every tuple of generator
    images directly and test homomorphism, bijectivity, and all edge squares."""
    nv = quiver.vertices
    orders1 = [rep1.groups[v].orders for v in range(nv)]
    orders2 = [rep2.groups[v].orders for v in range(nv)]
    maps1 = rep1.normal_edge_maps
    maps2 = rep2.normal_edge_maps

    per_vertex = []
    for v in range(nv):
        o1, o2 = orders1[v], orders2[v]
        elements = _all_elements(o2)
        candidates = []
        for images in product(elements, repeat=len(o1)):
            # homomorphism: d_j * images[j] = 0
            if any(
                any((dj * e) % di for e, di in zip(img, o2))
                for dj, img in zip(o1, images)
            ):
                continue
            # bijectivity via image size
            span = {tuple([0] * len(o2))}
            frontier = list(span)
            while frontier:
                nxt = []
                for el in frontier:
                    for img in images:
                        s = _tuple_add(el, img, o2)
                        if s not in span:
                            span.add(s)
                            nxt.append(s)
                frontier = nxt
            full = 1
            for d in o2:
                full *= d
            if len(span) != full:
                continue
            cols = [list(img) for img in images]
            candidates.append(
                IntMatrix(
                    len(o2),
                    len(o1),
                    [cols[j][i] for i in range(len(o2)) for j in range(len(o1))],
                )
            )
        if not candidates:
            return False
        per_vertex.append(candidates)

    for family in product(*per_vertex):
        ok = True
        for idx, e in enumerate(quiver.edges):
            lhs = family[e.dst] * maps1[idx]
            rhs = maps2[idx] * family[e.src]
            for i, d in enumerate(orders2[e.dst]):
                for j in range(lhs.cols):
                    diff = lhs[i, j] - rhs[i, j]
                    if (diff % d) if d else diff:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False
