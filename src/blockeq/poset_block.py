"""Posets, block shapes, and poset-blocked integer matrices.

A blocked matrix over a finite poset P with row sizes m and column sizes n has
block (i, j) possibly nonzero only when i <= j in P.  This module provides the
membership and unit-group tests, exact blocked arithmetic, the elementary
generator alphabet used by the search engine, and the corner embedding that
stabilizes a blocked matrix into larger block sizes.

Poset elements are the integers 1..N, normalized so that i <= j in the order
implies i <= j as integers.

Poset and block geometry each have one source here.  A Poset's up and down
bitmask tables, built once at construction, answer every order query; and
BlockShape.rows_of / cols_of, with BlockedMatrix.restrict, are the one map
from a sequence of poset elements to matrix rows, columns and submatrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations, compress, count

from .intmat import DimensionError, IntMatrix, _check_ints, determinant

GL = "gl"
SL = "sl"
# GL with every 1x1 diagonal block pinned to 1 (the unit condition).
UNIT_RESTRICTED = "unit"

GROUPS = (GL, SL, UNIT_RESTRICTED)


class ShapeError(ValueError):
    """Blocked shapes do not match or are malformed."""


class BlockStructureError(ValueError):
    """A matrix violates the poset block-triangularity pattern."""


@dataclass(frozen=True, slots=True)
class Poset:
    """Finite poset on {1..size} given by its (reflexively and transitively
    closed) order relation, normalized so i <= j in P implies i <= j in Z.
    Any generating pairs may be given; `pairs` holds their closure.  Every
    order query reads the same closure as two bitmask tables, which take no
    part in equality: bit j of up[i] and bit i of down[j] are set when i <= j
    (entry 0 is empty)."""

    size: int
    pairs: frozenset = ()
    up: tuple = field(init=False, compare=False)
    down: tuple = field(init=False, compare=False)

    def __post_init__(self):
        _check_ints((self.size,), "poset size")
        if self.size < 0:
            raise ValueError("negative poset size")
        up, down = _order_closure(self.size, tuple(self.pairs))
        for i in self.elements():
            if up[i] & ((1 << i) - 1):
                j = (up[i] & -up[i]).bit_length() - 1
                raise ValueError(
                    f"normalization violated: {i} precedes {j} but {i} > {j}; "
                    "relabel with Poset.normalized"
                )
        pairs = frozenset((i, j) for i in self.elements()
                          for j in range(i, self.size + 1) if up[i] >> j & 1)
        for name, value in (("pairs", pairs), ("up", up), ("down", down)):
            object.__setattr__(self, name, value)

    @classmethod
    def normalized(cls, size, pairs):
        """Build a poset from an arbitrary relation, relabelling by a stable
        topological sort when the numeric normalization is violated.

        Returns (poset, relabel) where relabel[old - 1] = new label.
        """
        _check_ints((size,), "poset size")
        pairs = tuple(pairs)
        _check_pairs(size, pairs)
        # Stable topological order: repeatedly place the least label whose
        # direct predecessors are all placed.  The placed set stays closed
        # downward, so its strict predecessors are placed too, and the one
        # closure is the relabelled poset's own.
        preds = [0] * (size + 1)
        for i, j in pairs:
            if i != j:
                preds[j] |= 1 << i
        placed = 0
        relabel = [0] * size
        for new in range(1, size + 1):
            x = next((x for x in range(1, size + 1)
                      if not (placed >> x & 1 or preds[x] & ~placed)), None)
            if x is None:  # the unplaced elements hold a cycle
                _order_closure(size, pairs)  # raises the antisymmetry error
            placed |= 1 << x
            relabel[x - 1] = new
        new_pairs = [(relabel[i - 1], relabel[j - 1]) for (i, j) in pairs]
        return cls(size, new_pairs), tuple(relabel)

    def leq(self, i, j):
        """Whether i <= j, for elements i and j."""
        return bool(self.up[i] >> j & 1)

    def elements(self):
        return range(1, self.size + 1)

    def strict_pairs(self):
        return [(i, j) for i in self.elements()
                for j in range(i + 1, self.size + 1) if self.up[i] >> j & 1]

    def is_convex(self, subset):
        """No element outside the subset lies between two inside it."""
        s, above, below = self._spans(subset)
        return above & below == s

    def convex_subsets(self):
        """All nonempty convex subsets, by size and then lexicographically.

        Grown from singletons: removing a maximal element keeps a convex set
        convex, so each one of size k + 1 is some convex C of size k plus an
        x.  Sets are bitmasks, bit x for element x.  A set g is convex
        exactly when the elements above some member and below some member
        are g itself, (| up) & (| down) == g, and both unions grow with g.
        """
        up, down = self.up, self.down
        elems = self.elements()
        out = []
        level = {1 << x: (up[x], down[x]) for x in elems}
        while level:
            out.extend(sorted(tuple(x for x in elems if c >> x & 1) for c in level))
            grown = {}
            for c, (cu, cd) in level.items():
                for x in elems:
                    g = c | 1 << x
                    if g != c and g not in grown:
                        gu, gd = cu | up[x], cd | down[x]
                        if gu & gd == g:
                            grown[g] = (gu, gd)
            level = grown
        return out

    def downsets_within(self, subset):
        """Nonempty proper subsets of `subset` closed downward within it, in
        `combinations` order."""
        subset = tuple(subset)
        within = self._spans(subset)[0]
        out = []
        for size in range(1, len(subset)):
            for comb in combinations(subset, size):
                s, _, below = self._spans(comb)
                if below & within == s:
                    out.append(comb)
        return out

    def _spans(self, elements):
        """Bitmasks of the elements and of all elements above and below them."""
        s = above = below = 0
        for x in elements:
            s |= 1 << x
            above |= self.up[x]
            below |= self.down[x]
        return s, above, below

    def order_isomorphisms(self, other):
        """All bijections {1..n} -> {1..n} preserving order both ways, in
        lexicographic order.  Elements are placed in increasing order, so all
        of down[x] but x is placed before x, and a candidate c fits exactly
        when the elements below c are the images of those below x.  Matching
        counts above prune only maps that cannot be completed."""
        if self.size != other.size:
            return []
        out = []
        image = [0] * (self.size + 1)  # image[x] for each placed x

        def extend(x, used):
            if x > self.size:
                out.append(tuple(image[1:]))
                return
            below, rest = 0, self.down[x] & ~(1 << x)
            while rest:
                low = rest & -rest
                below |= 1 << image[low.bit_length() - 1]
                rest ^= low
            above = self.up[x].bit_count()
            for c in other.elements():
                bit = 1 << c
                if (not used & bit and other.down[c] == below | bit
                        and other.up[c].bit_count() == above):
                    image[x] = c
                    extend(x + 1, used | bit)

        extend(1, 0)
        return out

    def __repr__(self):
        return f"Poset({self.size}, {self.strict_pairs()})"


def reachability(size, edges):
    """One bitmask per vertex 0..size-1: bit v of entry u is set when a path
    of one or more edges leads from u to v (Warshall on bitmasks)."""
    reach = [0] * size
    for u, v in edges:
        reach[u] |= 1 << v
    for k in range(size):
        bit, via = 1 << k, reach[k]
        for u in range(size):
            if reach[u] & bit:
                reach[u] |= via
    return reach


def _check_pairs(size, pairs):
    for i, j in pairs:
        if not (1 <= i <= size and 1 <= j <= size):
            raise ValueError(f"pair ({i},{j}) out of range 1..{size}")


def _order_closure(size, pairs):
    """The tables (up, down) of Poset for the reflexive and transitive
    closure of pairs on 1..size, rejecting pairs out of range and cycles."""
    _check_pairs(size, pairs)
    # Vertex 0 has no edges, so entry x of each table is element x.
    loops = [(x, x) for x in range(1, size + 1)]
    up = reachability(size + 1, [*pairs, *loops])
    down = reachability(size + 1, [(j, i) for i, j in pairs] + loops)
    for i in range(1, size + 1):
        if both := up[i] & down[i] & ~(1 << i):
            j = (both & -both).bit_length() - 1
            raise ValueError(f"antisymmetry violated at ({i},{j})")
    return tuple(up), tuple(down)


def chain_poset(n):
    return Poset(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def antichain_poset(n):
    return Poset(n)


@dataclass(frozen=True, slots=True)
class BlockShape:
    """A poset together with block row sizes m and block column sizes n.

    Sizes may be zero (empty block rows/columns); the index sets
    I = {i : m_i > 0} and J = {j : n_j > 0} must be nonempty.  The offsets
    and index sets are derived from the sizes and take no part in equality.
    """

    poset: Poset
    row_sizes: tuple
    col_sizes: tuple
    row_offsets: tuple = field(init=False, compare=False)
    col_offsets: tuple = field(init=False, compare=False)
    I: tuple = field(init=False, compare=False)
    J: tuple = field(init=False, compare=False)

    def __post_init__(self):
        poset = self.poset
        row_sizes = tuple(self.row_sizes)
        col_sizes = tuple(self.col_sizes)
        if len(row_sizes) != poset.size or len(col_sizes) != poset.size:
            raise ShapeError("size vectors must have one entry per poset element")
        _check_ints(row_sizes + col_sizes, "block size")
        if any(s < 0 for s in row_sizes + col_sizes):
            raise ShapeError("negative block size")
        bi = tuple(i for i in poset.elements() if row_sizes[i - 1] > 0)
        bj = tuple(j for j in poset.elements() if col_sizes[j - 1] > 0)
        if not bi or not bj:
            raise ShapeError("index sets I and J must be nonempty")
        for name, value in (
            ("row_sizes", row_sizes),
            ("col_sizes", col_sizes),
            ("row_offsets", tuple(accumulate(row_sizes, initial=0))),
            ("col_offsets", tuple(accumulate(col_sizes, initial=0))),
            ("I", bi),
            ("J", bj),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def square(cls, poset, sizes):
        sizes = tuple(sizes)
        return cls(poset, sizes, sizes)

    @property
    def total_rows(self):
        return self.row_offsets[-1]

    @property
    def total_cols(self):
        return self.col_offsets[-1]

    @property
    def is_square(self):
        return self.row_sizes == self.col_sizes

    def row_range(self, i):
        return range(self.row_offsets[i - 1], self.row_offsets[i])

    def col_range(self, j):
        return range(self.col_offsets[j - 1], self.col_offsets[j])

    def rows_of(self, elements):
        """Matrix rows of the blocks of a sequence of elements, in order."""
        return [r for i in elements for r in self.row_range(i)]

    def cols_of(self, elements):
        """Matrix columns of the blocks of a sequence of elements, in order."""
        return [c for j in elements for c in self.col_range(j)]

    def row_square(self):
        """The square shape carrying left (row-side) transformations."""
        if self.is_square:
            return self
        return BlockShape(self.poset, self.row_sizes, self.row_sizes)

    def col_square(self):
        """The square shape carrying right (column-side) transformations."""
        if self.is_square:
            return self
        return BlockShape(self.poset, self.col_sizes, self.col_sizes)

    def __repr__(self):
        return f"BlockShape({self.poset!r}, m={self.row_sizes}, n={self.col_sizes})"


def validate_membership(matrix: IntMatrix, shape: BlockShape) -> bool:
    """Whether every block with i not-below j is identically zero: each
    nonzero entry's row block must lie below its column block."""
    if matrix.rows != shape.total_rows or matrix.cols != shape.total_cols:
        raise DimensionError(
            f"matrix is {matrix.rows}x{matrix.cols}, shape wants "
            f"{shape.total_rows}x{shape.total_cols}"
        )
    row_block = [i for i, k in enumerate(shape.row_sizes, start=1) for _ in range(k)]
    col_block = [j for j, k in enumerate(shape.col_sizes, start=1) for _ in range(k)]
    up = shape.poset.up
    cols = matrix.cols
    for k in compress(count(), matrix.entries):
        r, c = divmod(k, cols)
        if not up[row_block[r]] >> col_block[c] & 1:
            return False
    return True


@dataclass(frozen=True, slots=True)
class BlockedMatrix:
    """An IntMatrix constrained to a BlockShape's triangularity pattern."""

    shape: BlockShape
    matrix: IntMatrix

    def __post_init__(self):
        if not validate_membership(self.matrix, self.shape):
            raise BlockStructureError("nonzero entry in a forbidden block")

    @classmethod
    def from_blocks(cls, shape, blocks):
        """Assemble from a {(i, j): IntMatrix} mapping with 1-based poset
        indices; missing blocks are 0.  A leading empty block row and column
        let IntMatrix.from_blocks take the keys as they are."""
        return cls(shape, IntMatrix.from_blocks(
            (0, *shape.row_sizes), (0, *shape.col_sizes), blocks
        ))

    def block(self, i, j):
        """Block (i, j) as a (possibly empty) IntMatrix."""
        return self.matrix.submatrix(self.shape.row_range(i), self.shape.col_range(j))

    def diagonal_block(self, i):
        return self.block(i, i)

    def restrict(self, elements):
        """The submatrix on the block rows and columns of a sequence of poset
        elements, in the order given."""
        return self.matrix.submatrix(
            self.shape.rows_of(elements), self.shape.cols_of(elements)
        )

    def __repr__(self):
        return f"BlockedMatrix({self.shape!r}, {self.matrix.to_rows()})"


def group_membership(matrix: IntMatrix, shape: BlockShape, group: str) -> bool:
    """Unit test for the blocked algebra: GL needs every diagonal block
    determinant +-1, SL needs determinant exactly 1, and UNIT_RESTRICTED is
    GL with every 1x1 diagonal block equal to 1."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if not shape.is_square:
        raise ShapeError("group membership needs a square shape")
    if matrix.rows != shape.total_rows or matrix.cols != shape.total_cols:
        raise DimensionError("matrix does not fit the shape")
    if not validate_membership(matrix, shape):
        return False
    for i in shape.poset.elements():
        rows = list(shape.row_range(i))
        if not rows:
            continue
        d = determinant(matrix.submatrix(rows, rows))
        if group == SL or (group == UNIT_RESTRICTED and len(rows) == 1):
            if d != 1:
                return False
        elif d not in (1, -1):
            return False
    return True


def multiply_blocked(m1: BlockedMatrix, m2: BlockedMatrix) -> BlockedMatrix:
    """Exact product; the blocked pattern is closed under composition."""
    if m1.shape.poset != m2.shape.poset:
        raise ShapeError("different posets")
    if m1.shape.col_sizes != m2.shape.row_sizes:
        raise ShapeError("inner block sizes do not compose")
    out_shape = BlockShape(m1.shape.poset, m1.shape.row_sizes, m2.shape.col_sizes)
    return BlockedMatrix(out_shape, m1.matrix * m2.matrix)


def blocked_identity(shape: BlockShape) -> BlockedMatrix:
    if not shape.is_square:
        raise ShapeError("identity needs a square shape")
    return BlockedMatrix(shape, IntMatrix.identity(shape.total_rows))


# ---------------------------------------------------------------------------
# Elementary generators

# A move is ("t", dst, src, sign) for the transvection I + sign*E[dst,src]
# applied by index pair, or ("f", k, k, -1) for the sign flip at coordinate k.
# Orderings below are the deterministic tie-break the search engine relies on:
# transvections by (block row, block col, local row, local col, +1 before -1),
# then sign flips by coordinate.


def generator_moves(shape: BlockShape, group: str):
    """Move descriptors for the elementary generators of the blocked group:
    the transvections, then for GL every sign flip and for UNIT_RESTRICTED
    the sign flips outside the 1x1 blocks."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if not shape.is_square:
        raise ShapeError("generators need a square shape")
    moves = []
    poset = shape.poset
    for i in poset.elements():
        for j in poset.elements():
            if not poset.leq(i, j):
                continue
            for s in shape.row_range(i):
                for t in shape.col_range(j):
                    if s == t:
                        continue
                    moves.append(("t", s, t, 1))
                    moves.append(("t", s, t, -1))
    if group != SL:
        for i in poset.elements():
            if group == UNIT_RESTRICTED and shape.row_sizes[i - 1] == 1:
                continue
            for k in shape.row_range(i):
                moves.append(("f", k, k, -1))
    return moves


def move_matrix(move, n) -> IntMatrix:
    kind, a, b, sign = move
    ent = IntMatrix.identity(n).to_rows()
    if kind == "t":
        ent[a][b] = sign
    else:
        ent[a][a] = -1
    return IntMatrix.from_rows(ent)


def inverse_move(move):
    kind, a, b, sign = move
    if kind == "t":
        return (kind, a, b, -sign)
    return move


def elementary_generators(shape: BlockShape, group: str):
    """All transvections I +- E[s,t] with (s, t) inside an allowed block, plus
    the group's single-coordinate sign flips, as BlockedMatrix values."""
    out = []
    n = shape.total_rows
    for move in generator_moves(shape, group):
        mat = move_matrix(move, n)
        blocked = BlockedMatrix(shape, mat)
        if not group_membership(mat, shape, group):  # pragma: no cover - theory
            raise AssertionError("generator left the group")
        out.append(blocked)
    return out


def iota_embed(m: BlockedMatrix, target_sizes) -> BlockedMatrix:
    """Corner embedding into larger block sizes.

    Each block lands in the upper-left corner of the target block; outside
    the corner, off-diagonal blocks are zero and diagonal blocks agree with
    the identity.
    """
    shape = m.shape
    if not shape.is_square:
        raise ShapeError("corner embedding is defined for square shapes")
    target_sizes = tuple(target_sizes)
    if len(target_sizes) != shape.poset.size:
        raise ShapeError("target size vector has wrong length")
    for r, s in zip(target_sizes, shape.row_sizes):
        if r < s:
            raise ShapeError("target sizes must dominate the source sizes")
    # Target block i splits into the corner (block 2i - 2 of the finer sizes)
    # and the identity remainder (block 2i - 1).
    sizes = []
    blocks = {}
    for i, (s, t) in enumerate(zip(shape.row_sizes, target_sizes), start=1):
        sizes += [s, t - s]
        blocks[2 * i - 1, 2 * i - 1] = IntMatrix.identity(t - s)
    for i, j in shape.poset.pairs:
        blocks[2 * i - 2, 2 * j - 2] = m.block(i, j)
    return BlockedMatrix(
        BlockShape.square(shape.poset, target_sizes),
        IntMatrix.from_blocks(sizes, sizes, blocks),
    )
