"""Three-valued decision engine for blocked matrix equivalence.

The classical decision procedure for these questions runs through extremely
general arithmetic-group machinery with no practical bound, so this engine
replaces it with a sound semi-decision: verified witness (yes), certified
invariant difference (no), or a budget report (unknown).

Search strategy: bidirectional breadth-first expansion over products of the
elementary blocked generators applied on the left and right, meeting in the
middle on exact matrix states.  Exact arithmetic makes state hashing reliable;
determinism is guaranteed by fixed generator order and the
lexicographically-least-witness tie-break at the minimal joining depth.

A state is one int: entry k is stored as e + 2^(w-1) in bits [w*k, w*k + w).
A move is linear in the entries, so it is four operations on that int: mask
out the source row or column, shift it onto the destination, add or
subtract it, and subtract a constant that removes the moved fields' offsets.
The child is exactly the encoding of the entry-tuple child while every
entry fits its field.  Entries at most double per level, so the width starts
at bits(max |entry| of a, b) + min(max_depth, 16) + 2, and a level whose
doubled bound would not fit first measures its frontier's real maximum and,
if that does not fit either, re-encodes every state at a wider field.  A
search node is one entry in each of three int lists (state, move, parent);
words (U, W, U^-1, W^-1) stay entry tuples and are rebuilt on demand.

Expansion never rebuilds a child it can already place: for X = m1(P),
m1^-1(X) is P, and m2(X) = m1(m2(P)) for every m2 commuting with m1.  Such a
child is an already-visited state, so records, budget counts, joins and
witnesses are exactly those of the plain expansion.  The stabilizer sweep
walks the orbit of b by the same rule, and it skips the harvest of a placed
child when that harvest is the identity: the edge back to P, and the edge
X --m2--> Y for commuting m2 when P --m2--> m2(P) --m1--> Y are tree edges.

Budgets: a search charges its own nodes, two roots first, and never more
than max_nodes.  The sweep is a generator bounded by max_depth alone that
yields once per node; decide_with_unit charges those nodes, its sign pairs
and the finite enumeration in one loop after the search's.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice

from . import _kernels
from .intmat import (
    DimensionError,
    FgAbelianGroup,
    IntMatrix,
    _check_ints,
    cokernel,
    determinant,
    smith_normal_form,
    solve_matrix,
)
from .poset_block import (
    GL,
    GROUPS,
    SL,
    UNIT_RESTRICTED,
    BlockedMatrix,
    BlockShape,
    ShapeError,
    generator_moves,
    group_membership,
    inverse_move,
)

SIDE_UAV = "uav"
SIDE_UAV_INV = "uav-inv"

_SIDES = (SIDE_UAV, SIDE_UAV_INV)


@dataclass(frozen=True)
class SearchBudget:
    """Resource bounds for one semi-decision.  Identical budgets and inputs
    always produce identical verdicts, witnesses included."""

    max_depth: int = 8
    max_nodes: int = 1_000_000

    def __post_init__(self):
        _check_ints((self.max_depth, self.max_nodes), "budget bound")
        if self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("budget bounds must be positive")


@dataclass(frozen=True)
class BudgetReport:
    nodes_expanded: int
    depth_reached: int


@dataclass(frozen=True)
class Certificate:
    """A named obstruction with the differing values on both sides."""

    name: str
    left: str
    right: str


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "unknown"
    witness: tuple[IntMatrix, IntMatrix] | None = None
    certificate: Certificate | None = None
    report: BudgetReport | None = None

    @classmethod
    def yes(cls, u, v, report=None):
        return cls("yes", witness=(u, v), report=report)

    @classmethod
    def no(cls, certificate, report=None):
        return cls("no", certificate=certificate, report=report)

    @classmethod
    def unknown(cls, report):
        return cls("unknown", report=report)

    @property
    def is_yes(self):
        return self.status == "yes"

    @property
    def is_no(self):
        return self.status == "no"

    @property
    def is_unknown(self):
        return self.status == "unknown"


# ---------------------------------------------------------------------------
# Invariant profiles


@dataclass(frozen=True)
class InvariantProfile:
    """Everything cheap that is constant on a blocked equivalence class:
    the whole-matrix cokernel, each diagonal block's cokernel class (and, for
    SL on square shapes, its determinant sign), and the cokernel class of
    every convex-subset submatrix."""

    cokernel: FgAbelianGroup
    diagonal_blocks: tuple = ()
    det_signs: tuple = ()
    convex_cokernels: tuple = ()

    def differences(self, other):
        """A certificate for each invariant that differs from other's, in
        certificate order.  Profiles of different shapes or groups list
        different invariants and raise ValueError."""
        return list(_differences(
            _certificate_order(self.cokernel, self.diagonal_blocks,
                               self.det_signs, self.convex_cokernels),
            _certificate_order(other.cokernel, other.diagonal_blocks,
                               other.det_signs, other.convex_cokernels),
        ))


def _certificate_order(cokernel, diagonal_blocks, det_signs, convex_cokernels):
    """(certificate name, value) of every invariant of a profile, in the one
    order a refutation reports them: the whole cokernel, the diagonal-block
    classes, the determinant signs, the convex cokernels.  The arguments are
    a profile's fields, or iterables that compute their entries on demand
    (_profile_fields)."""
    yield "cokernel", cokernel
    for i, _, cls in diagonal_blocks:
        yield f"diagonal-block-cokernel[{i}]", cls
    for i, sign in det_signs:
        yield f"diagonal-det-sign[{i}]", sign
    for s, cls in convex_cokernels:
        yield f"convex-cokernel{list(s)}", cls


def _differences(items_a, items_b):
    """Certificates for the pairs of invariants that differ, lazily.
    Profiles of different shapes or groups list different invariants and
    raise ValueError when the lists part."""
    for (name, va), (name_b, vb) in zip(items_a, items_b, strict=True):
        if name != name_b:
            raise ValueError(f"profiles list {name} against {name_b}")
        if va != vb:
            yield Certificate(name, str(va), str(vb))


def _first_difference(items_a, items_b):
    """The no verdict certified by the first pair of (certificate name,
    value) items that differ, or None.  Items are read only up to that
    pair, so invariants computed on demand stop there; blocked refutation,
    rep-iso and irreducible flow-eq all refute through this."""
    first = next(_differences(items_a, items_b), None)
    return None if first is None else Verdict.no(first, BudgetReport(0, 0))


def _unit_pivot_cokernels(a: BlockedMatrix):
    """The function s -> cokernel(a.restrict(s)) on convex subsets s, after
    eliminating every 1x1 diagonal block equal to +-1 once (see
    invariant_profile); each distinct s minus those elements costs one
    cokernel call, and the memo lives as long as the function."""
    shape, m = a.shape, a.matrix
    units = [
        k for k in shape.poset.elements()
        if shape.row_sizes[k - 1] == shape.col_sizes[k - 1] == 1
        and m.entries[shape.row_offsets[k - 1] * m.cols + shape.col_offsets[k - 1]]
        in (1, -1)
    ]
    reduced = m
    if units:
        rows = m.to_rows()
        for k in units:
            r, c = shape.row_offsets[k - 1], shape.col_offsets[k - 1]
            # B[x, y] -= B[x, c] * p * B[r, y], as 1/p = p; row r and column
            # c are never read again, so they are cleared instead.
            p = rows[r][c]
            pivot = [(j, p * v) for j, v in enumerate(rows[r]) if v and j != c]
            rows[r] = [0] * m.cols
            for row in rows:
                f = row[c]
                if f:
                    for j, v in pivot:
                        row[j] -= f * v
                    row[c] = 0
        reduced = IntMatrix._trusted(
            m.rows, m.cols, tuple([e for row in rows for e in row])
        )
    memo = {}

    def cok(s):
        kept = tuple([x for x in s if x not in units]) if units else s
        cls = memo.get(kept)
        if cls is None:
            cls = memo[kept] = cokernel(
                reduced.submatrix(shape.rows_of(kept), shape.cols_of(kept))
            )
        return cls

    return cok


def _profile_fields(a: BlockedMatrix, group: str):
    """The whole cokernel of a's profile and three generators of the
    entries of its other fields, which compute each entry when asked."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    shape = a.shape
    poset = shape.poset
    cok = _unit_pivot_cokernels(a)
    # Element i's diagonal block is sizes[i - 1]; each generator reads the
    # sizes itself, so the fields can be consumed in any order.
    sizes = tuple(zip(shape.row_sizes, shape.col_sizes))

    def diagonal_blocks():
        for i, size in enumerate(sizes, start=1):
            if any(size):
                yield i, size, cok((i,))

    def det_signs():
        for i, (rows, cols) in enumerate(sizes, start=1):
            if group == SL and rows == cols > 0:
                d = determinant(a.diagonal_block(i))
                yield i, 0 if d == 0 else (1 if d > 0 else -1)

    def convex_cokernels():
        for s in poset.convex_subsets():
            yield s, cok(s)

    whole = cok(tuple(poset.elements()))
    return whole, diagonal_blocks(), det_signs(), convex_cokernels()


def invariant_profile(a: BlockedMatrix, group: str) -> InvariantProfile:
    """Profile of a blocked matrix under the requested group action.

    Accepts rectangular shapes as well; determinant signs are recorded only
    for SL with square diagonal blocks, where they are genuinely invariant.

    Every class is cokernel(a.restrict(s)) for a convex subset s (the whole
    poset and each singleton are convex), read through one elimination.
    Let block k be 1x1 and equal to p = +-1, at row r and column c.  Its
    rank-one Schur update B' = B - B[:, c] * p * B[r, :] changes entry (x, y)
    only when block(x) <= k <= block(y), since B[x, c] = 0 unless block(x)
    <= k and B[r, y] = 0 unless k <= block(y).  For convex S without k, no
    such x and y lie in the blocks of S, so B'[S] = B[S].  For convex S with
    k, B' restricted to S minus k is B[S]'s own Schur complement at the
    unit pivot, which has the same cokernel.  No diagonal block other than
    k changes (that needs j <= k <= j), so B' is blocked over the same
    poset with the same +-1 blocks, and the pivots can be eliminated one
    after another: with U the eliminated elements, cok B[S] = cok B'[S - U]
    for every convex S.  Distinct S with one S - U share one Smith
    diagonal; larger unimodular blocks are left to it.
    """
    whole, *fields = _profile_fields(a, group)
    return InvariantProfile(whole, *map(tuple, fields))


# ---------------------------------------------------------------------------
# Bidirectional generator-word search

_LEFT = 0
_RIGHT = 1

# Doubling levels the field width has room for from the start; a deeper
# search widens when its entries need it.
_HEADROOM_LEVELS = 16


class _Side:
    """One frontier of the bidirectional search.

    Record i is states[i], the packed int of its entries (see _Packing),
    reached from record parents[i] by move index moves[i]; the root is record
    0, with move and parent -1.  visited maps each state to its record, which
    is injective at a fixed width.  Levels are contiguous: starts[d] is the
    first record at depth d, and the frontier is the last level begun.
    depth counts the completed levels, and every entry of a frontier state
    has |e| < 2^bits.

    kids[i] maps each move index to the record holding that child of the
    expanded record i.  Levels are expanded in order, so kids is indexed
    like the records and every record below the one being expanded has
    complete kids: expanding X = m1(P) reads m1^-1(X) = P and m2(X) =
    kids[kids[P][m2]][m1], for m2 commuting with m1, off them
    (_Engine._known_children).  The search and the stabilizer sweep both
    fill kids this way.
    """

    __slots__ = ("states", "moves", "parents", "starts", "visited", "depth", "kids", "bits")

    def __init__(self, root_state, bits):
        self.states = [root_state]
        self.moves = [-1]
        self.parents = [-1]
        self.starts = [0]
        self.visited = {root_state: 0}
        self.kids = []
        self.depth = 0
        self.bits = bits

    @property
    def frontier(self):
        return range(self.starts[-1], len(self.states))

    def begin_level(self):
        """Start the next level after the frontier; returns the frontier."""
        frontier = self.frontier
        self.starts.append(len(self.states))
        return frontier

    def depth_of(self, idx):
        return bisect_right(self.starts, idx) - 1


def _entry_bits(entries):
    """The least b with |e| < 2^b for every entry."""
    return max(map(abs, entries), default=0).bit_length()


class _Packing:
    """The field width w of one search's states and its compiled moves.

    Entry k of a row-major state is stored as e + 2^(w-1) in bits
    [w*k, w*k + w), which holds exactly the e with -2^(w-1) <= e < 2^(w-1).
    A move adds factor f times the source row or column to the destination:
    f = s for a transvection I + s*E[a,b], and f = -2 for a flip, whose
    source is its destination.  It compiles to (mask, shift, left, add,
    offset): `mask` selects the source fields where they sit, at bit src;
    shifting them `shift` bits (left or right) puts them at bit dst; they
    are added for f = 1, and subtracted for f = -1 or, shifted one bit
    further left, for f = -2; and offset = f * (the fields' offsets shifted to
    dst) takes the offsets back out.  The masked bits all sit at or above
    bit src, so a right shift by src - dst is exact.  The map is linear in
    the entries, so the child is the encoding of the entry-tuple child
    whenever every child entry fits.
    """

    __slots__ = ("width", "size", "moves", "inverse_moves")

    def __init__(self, engine, width):
        rows, cols = engine.rows, engine.cols
        self.width = width
        self.size = rows * cols
        field, half = (1 << width) - 1, 1 << (width - 1)
        # Row r is the cols fields from bit width*cols*r, width apart; column
        # c is the rows fields from bit width*c, width*cols apart.
        row = sum(1 << (width * j) for j in range(cols))
        col = sum(1 << (width * cols * i) for i in range(rows))
        axes = {_LEFT: (width * cols, field * row, half * row),
                _RIGHT: (width, field * col, half * col)}

        def compile(axis, move):
            stride, mask, base = axes[axis]
            kind, a, b, sign = move
            if kind != "t":  # a flip, with a == b: -2x is -(x << 1)
                src = stride * a
                return (mask << src, 1, True, False, -2 * (base << src))
            # I + s*E[a,b] adds s times row b to row a, or column a to column b.
            src, dst = (b, a) if axis == _LEFT else (a, b)
            src, dst = stride * src, stride * dst
            return (mask << src, abs(dst - src), dst > src, sign > 0, sign * (base << dst))

        self.moves = [compile(*am) for am in engine.moves]
        self.inverse_moves = [self.moves[j] for j in engine.inverse_index]

    def pack(self, entries):
        w = self.width
        half = 1 << (w - 1)
        state = 0
        for e in reversed(entries):
            state = (state << w) | (e + half)
        return state

    def unpack(self, state):
        w = self.width
        half, field = 1 << (w - 1), (1 << w) - 1
        return tuple(((state >> (w * k)) & field) - half for k in range(self.size))


def _apply_move(state, move):
    """The child of a packed state under a move compiled by _Packing."""
    mask, shift, left, add, offset = move
    moved = (state & mask) << shift if left else (state & mask) >> shift
    return (state + moved if add else state - moved) - offset


def _chain_moves(side, idx):
    """Moves applied from the root to record idx, in application order."""
    chain = []
    moves, parents = side.moves, side.parents
    while idx > 0:
        chain.append(moves[idx])
        idx = parents[idx]
    chain.reverse()
    return chain


class _Engine:
    """Search for (U, W) products of elementary generators with U*A*W = B.

    Records hold states and move indices only.  A word (U, W, U^-1, W^-1)
    is rebuilt on demand by replaying a chain of move indices through
    _step, the one routine that extends a word; _apply_move is the one
    routine that applies a move to a state.  A witness therefore carries
    its inverse, and no unimodular matrix is inverted by a Smith form.
    """

    def __init__(self, shape: BlockShape, group: str, budget: SearchBudget):
        self.shape = shape
        self.rows = shape.total_rows
        self.cols = shape.total_cols
        self.budget = budget
        # The groups of U and of W: the unit condition constrains W only.
        self.groups = (GL if group == UNIT_RESTRICTED else group, group)
        lefts = generator_moves(shape.row_square(), self.groups[0])
        rights = generator_moves(shape.col_square(), group)
        self.moves = [(_LEFT, mv) for mv in lefts] + [(_RIGHT, mv) for mv in rights]
        self.inverse_moves = [(ax, inverse_move(mv)) for ax, mv in self.moves]
        index = {am: i for i, am in enumerate(self.moves)}
        self.inverse_index = [index[am] for am in self.inverse_moves]
        # I+sE[a,b] and I+tE[c,d] on one side commute unless b == c or a == d
        # (a flip has a == b); moves on opposite sides always commute.  The
        # inverse alphabet keeps every (a, b), so one table serves both.  The
        # move (b, a) is listed twice for (a, b), which does no harm.
        starts, ends = defaultdict(list), defaultdict(list)
        for i, (ax, (_, a, b, _)) in enumerate(self.moves):
            starts[ax, a].append(i)
            ends[ax, b].append(i)
        self.noncommuting = [
            list(filter(i.__ne__, starts[ax, b] + ends[ax, a]))
            for i, (ax, (_, a, b, _)) in enumerate(self.moves)
        ]
        u = IntMatrix.identity(self.rows).entries
        w = IntMatrix.identity(self.cols).entries
        self.identity_word = (u, w, u, w)
        self._packings = {}

    # -- words -------------------------------------------------------------

    def _step(self, word, move_idx):
        """Extend a word (U, W, U^-1, W^-1) by one move: a left move G gives
        (G*U, W, U^-1*G^-1, W^-1), a right move H gives (U, W*H, U^-1, H^-1*W^-1)."""
        u, w, u_inv, w_inv = word
        axis, (kind, a, b, sign) = self.moves[move_idx]
        # G = I + s*E[a,b] has G^-1 = I - s*E[a,b]; a flip (a == b) is its
        # own inverse.
        if axis == _LEFT:
            n = self.rows
            if kind == "t":
                return (_kernels.row_add(u, n, n, a, b, sign), w,
                        _kernels.col_add(u_inv, n, n, a, b, -sign), w_inv)
            return (_kernels.row_negate(u, n, n, a), w,
                    _kernels.col_negate(u_inv, n, n, a), w_inv)
        n = self.cols
        if kind == "t":
            return (u, _kernels.col_add(w, n, n, a, b, sign), u_inv,
                    _kernels.row_add(w_inv, n, n, a, b, -sign))
        return (u, _kernels.col_negate(w, n, n, a), u_inv,
                _kernels.row_negate(w_inv, n, n, a))

    def _replay(self, chain):
        """The word of a chain of move indices, from the identity word."""
        word = self.identity_word
        for move_idx in chain:
            word = self._step(word, move_idx)
        return word

    def _witness(self, fwd, bwd, f_idx, b_idx):
        """The word (U, W, U^-1, W^-1) with U*a*W = b for a join, as entry
        tuples.  The forward chain m1..mj reaches X = G(mj)..G(m1) a
        H(m1)..H(mj); the backward chain n1..nk applies the inverse alphabet
        to b, so b = G(n1)..G(nk) X H(nk)..H(n1).  Replaying m1..mj, nk..n1
        from the identity word builds U, W and both inverses."""
        return self._replay(_chain_moves(fwd, f_idx) + _chain_moves(bwd, b_idx)[::-1])

    # -- packed states ---------------------------------------------------------

    def _packing(self, width):
        """The engine's moves compiled at one width, once per engine."""
        packing = self._packings.get(width)
        if packing is None:
            packing = self._packings[width] = _Packing(self, width)
        return packing

    def _start(self, *roots):
        """The packing and one side per root entry tuple, at the starting
        width: room for min(max_depth, _HEADROOM_LEVELS) doubling levels."""
        bits = [_entry_bits(r) for r in roots]
        levels = min(self.budget.max_depth, _HEADROOM_LEVELS)
        packing = self._packing(max(bits) + levels + 2)
        return packing, [_Side(packing.pack(r), b) for r, b in zip(roots, bits)]

    def _fit(self, packing, side, sides):
        """The packing under which one more level of `side` is exact.  A
        level at most doubles an entry, so it fits while side.bits + 2 <=
        width.  When that bound does not fit, the frontier's real maximum is
        measured; when that does not fit either, every state of `sides` is
        re-encoded, in place, at a doubled width."""
        if side.bits + 2 <= packing.width:
            return packing
        side.bits = max(
            (_entry_bits(packing.unpack(side.states[idx])) for idx in side.frontier),
            default=0,
        )
        if side.bits + 2 <= packing.width:
            return packing
        wider = self._packing(max(2 * packing.width, side.bits + 2))
        for s in sides:
            s.states[:] = [wider.pack(packing.unpack(state)) for state in s.states]
            s.visited.clear()
            s.visited.update(zip(s.states, range(len(s.states))))
        return wider

    # -- search drivers ------------------------------------------------------

    def _known_children(self, side, idx):
        """The kids row of record idx as far as earlier expansions place it:
        for X = m1(P), m1^-1(X) is P and m2(X) = kids[kids[P][m2]][m1] for
        every m2 commuting with m1 whose child of P is already expanded.  The
        other entries are None and must be built."""
        parent = side.parents[idx]
        if parent < 0:
            return [None] * len(self.moves)
        m1 = side.moves[idx]
        kids = side.kids
        known = [kids[r][m1] if r < idx else None for r in kids[parent]]
        for m2 in self.noncommuting[m1]:
            known[m2] = None
        known[self.inverse_index[m1]] = parent
        return known

    def _expand(self, side, other, moves, nodes_used):
        """Expand one full level of `side` by the compiled `moves`; returns
        (joins, nodes, truncated)."""
        joins = []
        count = nodes_used
        max_nodes = self.budget.max_nodes
        states, visited, kids = side.states, side.visited, side.kids
        add_state, add_move = states.append, side.moves.append
        add_parent, place = side.parents.append, visited.setdefault
        other_get = other.visited.get
        apply_move = _apply_move
        frontier = side.begin_level()
        new = len(states)
        for idx in frontier:
            state = states[idx]
            known = self._known_children(side, idx)
            for move_idx, rec in enumerate(known):
                if rec is not None:
                    continue
                child = apply_move(state, moves[move_idx])
                rec = place(child, new)
                if rec == new:
                    if count >= max_nodes:
                        del visited[child]
                        return joins, count, True
                    add_state(child)
                    add_move(move_idx)
                    add_parent(idx)
                    new += 1
                    count += 1
                    hit = other_get(child)
                    if hit is not None:
                        joins.append((rec, hit))
                known[move_idx] = rec
            kids.append(known)
        side.depth += 1
        side.bits += 1
        return joins, count, False

    def search(self, a: IntMatrix, b: IntMatrix):
        """Find (U, W) with U*a*W = b; returns (witnesses, report).

        witnesses is the (possibly empty) list of the words (U, W, U^-1, W^-1)
        of minimal-depth joins, as entry tuples, ordered by (U, W).  The two
        roots cost a node each, so a budget without room for both gives no
        witness and reports only the nodes it has.
        """
        nodes = 2
        if self.budget.max_nodes < nodes:
            return [], BudgetReport(self.budget.max_nodes, 0)
        packing, (fwd, bwd) = self._start(a.entries, b.entries)
        truncated = False
        joins = []
        if b.entries == a.entries:
            joins = [(0, 0)]
        while not joins and not truncated:
            if fwd.depth + bwd.depth >= self.budget.max_depth:
                break
            if not fwd.frontier and not bwd.frontier:
                break
            if fwd.frontier and (
                not bwd.frontier or len(fwd.frontier) <= len(bwd.frontier)
            ):
                side, other, is_fwd = fwd, bwd, True
            else:
                side, other, is_fwd = bwd, fwd, False
            packing = self._fit(packing, side, (fwd, bwd))
            moves = packing.moves if is_fwd else packing.inverse_moves
            level_joins, nodes, truncated = self._expand(side, other, moves, nodes)
            if is_fwd:
                joins = list(level_joins)
            else:
                joins = [(o, s) for s, o in level_joins]
        report = BudgetReport(nodes, fwd.depth + bwd.depth)
        if not joins:
            return [], report
        depth_of = lambda pair: fwd.depth_of(pair[0]) + bwd.depth_of(pair[1])
        best = min(depth_of(p) for p in joins)
        out = [self._witness(fwd, bwd, f, b_) for f, b_ in joins if depth_of((f, b_)) == best]
        out.sort(key=lambda word: word[:2])
        return out, report

    def stabilizer_sweep(self, b: IntMatrix):
        """Walk the stabilizer of b, yielding (level, element) once for every
        node the walk spends: the root, each new orbit state and each
        non-tree edge.  element is a stabilizer pair (U, W) with U*b*W = b,
        as (U, W, W^-1), the first time the pair is harvested, and None
        otherwise; level is the number of breadth-first levels begun.  Only
        max_depth bounds the walk: the caller meters its nodes and stops it.

        Schreier-style: breadth-first search of the orbit of b keeps a tree
        word for each state, and every non-tree edge X --g--> Y harvests
        the stabilizer element word(Y)^-1 * g * word(X).  A second pass tests
        pairwise products of the harvested elements, one node each.  Tree
        words carry their inverses, (U, W, U^-1, W^-1), built move by move
        with the inverse alphabet, so W^-1 comes from matrix products alone
        and no Smith normal form is computed.  Only the words of records that
        take part in a harvest are kept.

        Children are placed by the known-children rule of the search, without
        a move or a lookup.  For X = m1(P), two kinds of non-tree edge give
        the identity, which is seen from the start, and are not multiplied
        out: X --m1^-1--> P, and X --m2--> Y for m2 commuting with m1 when
        P --m2--> Q and Q --m1--> Y are tree edges, as then word(Y) =
        m1*m2*word(P).  Each such edge is still a node.
        """
        rows, cols = self.rows, self.cols
        mat_mul = _kernels.mat_mul
        packing, (side,) = self._start(b.entries)
        root = self._replay(())
        seen = {root[:2]}
        sigmas = []
        level = 0
        words = {0: root}

        def word(idx):
            if idx not in words:
                words[idx] = self._replay(_chain_moves(side, idx))
            return words[idx]

        def element(u2, w2, w2_inv):
            return (IntMatrix._trusted(rows, rows, u2),
                    IntMatrix._trusted(cols, cols, w2),
                    IntMatrix._trusted(cols, cols, w2_inv))

        yield level, None
        states, via, parents = side.states, side.moves, side.parents
        visited, kids = side.visited, side.kids
        inverse_index = self.inverse_index
        apply_move = _apply_move
        while side.frontier and level < self.budget.max_depth:
            packing = self._fit(packing, side, (side,))
            moves = packing.moves
            level += 1
            for idx in side.begin_level():
                state, m1, parent = states[idx], via[idx], parents[idx]
                known = self._known_children(side, idx)
                for move_idx, hit in enumerate(known):
                    if hit is None:
                        child = apply_move(state, moves[move_idx])
                        hit = visited.get(child)
                        if hit is None:
                            hit = visited[child] = len(states)
                            states.append(child)
                            via.append(move_idx)
                            parents.append(idx)
                            known[move_idx] = hit
                            yield level, None
                            continue
                        known[move_idx] = hit
                        identity = False
                    else:
                        # X --m2--> Y with X = m1(P), Y known: the harvest is
                        # the identity when Y is P by m1^-1, or when m2
                        # commutes with m1 and Y is reached by the tree edges
                        # P --m2--> Q --m1--> Y.
                        q = kids[parent][move_idx]
                        identity = move_idx == inverse_index[m1] or (
                            via[hit] == m1 and parents[hit] == q
                            and via[q] == move_idx and parents[q] == parent
                        )
                    # Non-tree edge: harvest word(Y)^-1 * g * word(X), which
                    # seen already holds when it is the identity.
                    if identity:
                        yield level, None
                        continue
                    gu, gw, _, gw_inv = self._step(word(idx), move_idx)
                    _, wy, uy_inv, wy_inv = word(hit)
                    sig = (mat_mul(rows, rows, uy_inv, rows, gu),
                           mat_mul(cols, cols, gw, cols, wy_inv))
                    if sig in seen:
                        yield level, None
                        continue
                    seen.add(sig)
                    sigmas.append((*sig, mat_mul(cols, cols, wy, cols, gw_inv)))
                    yield level, element(*sigmas[-1])
                kids.append(known)
            side.bits += 1

        # Products of harvested stabilizer elements; (w2*w1)^-1 = w1^-1 * w2^-1.
        for u1, w1, w1_inv in sigmas:
            for u2, w2, w2_inv in sigmas:
                sig = (mat_mul(rows, rows, u1, rows, u2),
                       mat_mul(cols, cols, w2, cols, w1))
                if sig in seen:
                    yield level, None
                    continue
                seen.add(sig)
                yield level, element(*sig, mat_mul(cols, cols, w1_inv, cols, w2_inv))


def _require_same_shape(a: BlockedMatrix, b: BlockedMatrix):
    if a.shape != b.shape:
        raise ShapeError("operands live in different blocked shapes")


def decide_blocked_equivalence(
    a: BlockedMatrix,
    b: BlockedMatrix,
    group: str = SL,
    side: str = SIDE_UAV,
    budget: SearchBudget = SearchBudget(),
) -> Verdict:
    """Is there (U, V) in the blocked group with U*a*V = b (side "uav") or
    U*a*V^-1 = b (side "uav-inv")?

    Yes comes with an exactly re-verified witness; No with an invariant
    certificate; Unknown with the budget report.
    """
    if side not in _SIDES:
        raise ValueError(f"unknown side {side!r}")
    _require_same_shape(a, b)
    refuted = _refute(a, b, group)
    if refuted is not None:
        return refuted
    return _search(_Engine(a.shape, group, budget), a, b, side)[0]


def _refute(a, b, group):
    """A no verdict certified by the first invariant difference, or None.
    The two sides' invariants are computed in certificate order and only up
    to that difference: it is differences()[0] of the two full profiles."""
    return _first_difference(_certificate_order(*_profile_fields(a, group)),
                             _certificate_order(*_profile_fields(b, group)))


def _search(engine, a, b, side):
    """The engine's verdict on U*a*V = b (side "uav") or U*a*V^-1 = b, and
    the verified W with U*a*W = b of a yes (else None)."""
    witnesses, report = engine.search(a.matrix, b.matrix)
    if not witnesses:
        return Verdict.unknown(report), None
    rows, cols = engine.rows, engine.cols
    u_ent, w_ent, _, w_inv_ent = witnesses[0]
    u, w = IntMatrix._trusted(rows, rows, u_ent), IntMatrix._trusted(cols, cols, w_ent)
    # For "uav-inv", V = W^-1 comes from the word.
    v = w if side == SIDE_UAV else IntMatrix._trusted(cols, cols, w_inv_ent)
    return _verified_yes(engine, a, b, u, v, w, report), w


def _verified_yes(engine, a, b, u, v, v_inv, report):
    """Verdict.yes(u, v, report), the one way a blocked yes is built, once
    U*a*V^-1 = b, V*V^-1 = I and the membership of U and V in the engine's
    two groups are re-checked.  A caller whose V is its own V^-1 passes it
    as both, and V*V^-1 = I is not checked: on side "uav", where the
    equation is U*a*V = b, and for the +-1 diagonal V of a finite group."""
    if (
        u * a.matrix * v_inv != b.matrix
        or (v_inv is not v and v * v_inv != IntMatrix.identity(engine.cols))
        or not group_membership(u, engine.shape.row_square(), engine.groups[0])
        or not group_membership(v, engine.shape.col_square(), engine.groups[1])
    ):  # pragma: no cover - soundness guard
        raise AssertionError("witness failed re-verification")
    return Verdict.yes(u, v, report)


# ---------------------------------------------------------------------------
# Unit-vector condition (the two-equation decision)


def _sign_pairs(engine, a: IntMatrix, b: IntMatrix):
    """Every pair (D_U, D_V) of +-1 diagonal matrices in the engine's two
    groups with D_U*a*D_V = b, one pair per distinct D_V, in closed form.

    Bit i of a GF(2) vector stands for -1 at row i of D_U, and bit rows + j
    for -1 at column j of D_V.  A pair exists only when |a_ij| = |b_ij|
    everywhere, and then each nonzero entry is one equation, d_i + e_j =
    [a_ij != b_ij].  A block whose determinant must be +1 (every block under
    SL, a 1x1 block of V under UNIT_RESTRICTED) adds the equation that its
    bits sum to 0.  The reduced echelon form, pivots at the lowest bit,
    gives one particular solution (free bits 0) and one null-space vector
    per free bit.  A row with a column pivot holds column bits only, so the
    vectors of free row bits leave D_V alone, and the k vectors of free
    column bits change it independently: their 2^k sums give the 2^k
    distinct D_V.  The first pair is the particular solution, (I, I) when
    a = b.
    """
    rows, cols, shape = engine.rows, engine.cols, engine.shape
    equations = []
    for k, (p, q) in enumerate(zip(a.entries, b.entries)):
        if p != q and p != -q:
            return
        if p:
            i, j = divmod(k, cols)
            equations.append((1 << i | 1 << (rows + j), p != q))
    for base, offsets, sizes, group in (
        (0, shape.row_offsets, shape.row_sizes, engine.groups[0]),
        (rows, shape.col_offsets, shape.col_sizes, engine.groups[1]),
    ):
        for offset, size in zip(offsets, sizes):
            if size and (group == SL or (group == UNIT_RESTRICTED and size == 1)):
                equations.append((((1 << size) - 1) << (base + offset), False))
    pivots = {}  # pivot bit -> (mask, rhs), fully reduced against each other
    for mask, rhs in equations:
        for bit, (m, r) in pivots.items():
            if mask & bit:
                mask, rhs = mask ^ m, rhs ^ r
        if not mask:
            if rhs:
                return
            continue
        bit = mask & -mask
        for other, (m, r) in pivots.items():
            if m & bit:
                pivots[other] = (m ^ mask, r ^ rhs)
        pivots[bit] = (mask, rhs)
    particular = sum(bit for bit, (_, rhs) in pivots.items() if rhs)
    v_basis = []
    for j in range(rows, rows + cols):
        free = 1 << j
        if free not in pivots:
            v_basis.append(free | sum(bit for bit, (m, _) in pivots.items() if m & free))
    for chosen in range(1 << len(v_basis)):
        s = particular
        for k, vec in enumerate(v_basis):
            if chosen >> k & 1:
                s ^= vec
        yield (IntMatrix.diagonal([-1 if s >> i & 1 else 1 for i in range(rows)]),
               IntMatrix.diagonal([-1 if s >> j & 1 else 1 for j in range(rows, rows + cols)]))


def decide_with_unit(
    a: BlockedMatrix,
    b: BlockedMatrix,
    x: IntMatrix,
    y: IntMatrix,
    group: str = GL,
    budget: SearchBudget = SearchBudget(),
) -> Verdict:
    """Decide the two-condition problem: (U, V) in the group with

        (1)  U*a*V^-1 = b, and
        (2)  (V^-1)^T x - y  in  im_Z(b^T).

    Complete (yes/no) when the generators hold no transvection: the pair
    group is then its +-1 diagonal pairs, and _sign_pairs(a, b) lists every
    V that meets (1).  Otherwise the engine searches a (1)-witness (U1, V1),
    and every other one is (U2*U1, V2*V1) for a stabilizer pair (U2, V2) of
    b: the candidates are the sign pairs of b's stabilizer, _sign_pairs(b,
    b), then the nodes of the stabilizer sweep, each composed with (U1,
    V1).  One loop charges a node per candidate, after the search's nodes,
    and stops at max_nodes; it solves (2) once per distinct V^-1.  Every
    yes is re-verified by _verified_yes.
    """
    _require_same_shape(a, b)
    n = a.shape.total_cols
    if x.cols != 1 or y.cols != 1 or x.rows != n or y.rows != n:
        raise DimensionError("x and y must be columns of the total column count")
    engine = _Engine(a.shape, group, budget)

    bt = b.matrix.transpose()

    @cache
    def bt_snf():
        return smith_normal_form(bt)

    def condition2(v_inv: IntMatrix):
        return solve_matrix(bt, v_inv.transpose() * x - y, bt_snf()) is not None

    finite = all(kind == "f" for _, (kind, _, _, _) in engine.moves)
    if finite:
        # A transvection has infinite order; without one the group is
        # exactly its +-1 diagonal pairs.  Each V is its own inverse.
        spent = depth = 0
        refuted = set()
        candidates = ((0, (u, v, v)) for u, v in _sign_pairs(engine, a.matrix, b.matrix))
    else:
        certified = _refute(a, b, group)
        if certified is not None:
            return certified
        base, v1_inv = _search(engine, a, b, SIDE_UAV_INV)
        if not base.is_yes or condition2(v1_inv):
            return base
        u1, v1 = base.witness
        spent, depth = base.report.nodes_expanded, base.report.depth_reached
        refuted = {v1_inv}
        # The sign pairs of b come first: (-I, -I) is a word of 2n flips,
        # deeper than the sweep reaches, and D_V is its own inverse.  With
        # U2*b*W2 = b, the pair (U2*U1, W2^-1*V1) meets (1) and has V^-1 =
        # V1^-1*W2.
        signs = ((0, (d_u, d_v, d_v))
                 for d_u, d_v in islice(_sign_pairs(engine, b.matrix, b.matrix), 1, None))
        candidates = (
            (level, e and (e[0] * u1, e[2] * v1, v1_inv * e[1]))
            for level, e in chain(signs, engine.stabilizer_sweep(b.matrix))
        )

    # One node per candidate; condition (2) reads only V^-1, so each
    # distinct V^-1 is solved once.
    for level, candidate in candidates:
        depth = max(depth, level)
        if spent >= budget.max_nodes:
            return Verdict.unknown(BudgetReport(spent, depth))
        spent += 1
        if candidate is None or candidate[2] in refuted:
            continue
        if condition2(candidate[2]):
            return _verified_yes(engine, a, b, *candidate, BudgetReport(spent, depth))
        refuted.add(candidate[2])
    report = BudgetReport(spent, depth)
    if finite:
        return Verdict.no(
            Certificate(
                "finite-enumeration",
                f"all {spent} V with U*a*V = b enumerated",
                "none satisfies conditions (1) and (2)",
            ),
            report,
        )
    return Verdict.unknown(report)
