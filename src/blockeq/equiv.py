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

Expansion never rebuilds a child it can already place: for X = m1(P),
m1^-1(X) is P, and m2(X) = m1(m2(P)) for every m2 commuting with m1.  Such a
child is an already-visited state, so records, budget counts, joins and
witnesses are exactly those of the plain expansion.  The stabilizer sweep
walks the orbit of b by the same rule, and it skips the harvest of a placed
child when that harvest is the identity: the edge back to P, and the edge
X --m2--> Y for commuting m2 when P --m2--> m2(P) --m1--> Y are tree edges.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache

from . import _kernels
from .intmat import (
    DimensionError,
    FgAbelianGroup,
    IntMatrix,
    cokernel,
    determinant,
    image_annihilator,
    invert_unimodular,
    smith_normal_form,
    solve_matrix,
)
from .poset_block import (
    GL,
    SL,
    BlockedMatrix,
    BlockShape,
    ShapeError,
    generator_moves,
    group_membership,
    inverse_move,
)

UNIT_RESTRICTED = "unit"

SIDE_UAV = "uav"
SIDE_UAV_INV = "uav-inv"

_SIDES = (SIDE_UAV, SIDE_UAV_INV)
_ENGINE_GROUPS = (GL, SL, UNIT_RESTRICTED)


@dataclass(frozen=True)
class SearchBudget:
    """Resource bounds for one semi-decision.  Identical budgets and inputs
    always produce identical verdicts, witnesses included."""

    max_depth: int = 8
    max_nodes: int = 1_000_000

    def __post_init__(self):
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
        certs = []
        if self.cokernel != other.cokernel:
            certs.append(
                Certificate("cokernel", str(self.cokernel), str(other.cokernel))
            )
        for (i, dims, cls_a), (_, _, cls_b) in zip(
            self.diagonal_blocks, other.diagonal_blocks
        ):
            if cls_a != cls_b:
                certs.append(
                    Certificate(f"diagonal-block-cokernel[{i}]", str(cls_a), str(cls_b))
                )
        for (i, sa), (_, sb) in zip(self.det_signs, other.det_signs):
            if sa != sb:
                certs.append(Certificate(f"diagonal-det-sign[{i}]", str(sa), str(sb)))
        for (s, cls_a), (_, cls_b) in zip(
            self.convex_cokernels, other.convex_cokernels
        ):
            if cls_a != cls_b:
                certs.append(
                    Certificate(
                        f"convex-cokernel{list(s)}", str(cls_a), str(cls_b)
                    )
                )
        return certs


def _group_class(m: IntMatrix) -> FgAbelianGroup:
    g = cokernel(m)
    return FgAbelianGroup(g.free_rank, g.torsion)


def invariant_profile(a: BlockedMatrix, group: str) -> InvariantProfile:
    """Profile of a blocked matrix under the requested group action.

    Accepts rectangular shapes as well; determinant signs are recorded only
    for SL with square diagonal blocks, where they are genuinely invariant.
    """
    if group not in _ENGINE_GROUPS:
        raise ValueError(f"unknown group {group!r}")
    shape = a.shape
    convex = []
    for s in shape.poset.convex_subsets():
        rows = [r for i in s for r in shape.row_range(i)]
        cols = [c for j in s for c in shape.col_range(j)]
        convex.append((s, _group_class(a.matrix.submatrix(rows, cols))))
    # The whole poset and every singleton are convex, so the whole matrix
    # and each diagonal block already have their class in the list.
    classes = dict(convex)
    diag = []
    signs = []
    for i in shape.poset.elements():
        blk = a.diagonal_block(i)
        if blk.rows == 0 and blk.cols == 0:
            continue
        diag.append((i, (blk.rows, blk.cols), classes[(i,)]))
        if group == SL and blk.rows == blk.cols:
            d = determinant(blk)
            signs.append((i, 0 if d == 0 else (1 if d > 0 else -1)))
    whole = classes[tuple(shape.poset.elements())]
    return InvariantProfile(whole, tuple(diag), tuple(signs), tuple(convex))


# ---------------------------------------------------------------------------
# Bidirectional generator-word search

_LEFT = 0
_RIGHT = 1


class _Side:
    """One frontier of the bidirectional search.

    records[i] = (entries, move_index, parent_record, depth); the visited set
    is keyed by the entry tuples themselves (exact arithmetic makes state
    hashing reliable).  The root is record 0 with no move.

    kids[i] maps each move index to the record holding that child of the
    expanded record i.  Levels are contiguous in records and expanded in
    order, so kids is indexed like records and every record below the one
    being expanded has complete kids: expanding X = m1(P) reads m1^-1(X) = P
    and m2(X) = kids[kids[P][m2]][m1], for m2 commuting with m1, off them
    (_Engine._known_children).  The search and the stabilizer sweep both
    fill kids this way.
    """

    __slots__ = ("records", "visited", "depth", "frontier", "kids")

    def __init__(self, root_entries):
        self.records = [(root_entries, -1, -1, 0)]
        self.visited = {root_entries: 0}
        self.kids = []
        self.depth = 0
        self.frontier = [0]


def _unit_blocks(square_shape, unit_indices):
    """Indices of the diagonal blocks pinned to 1 in the unit-restricted
    group: the blocks of size 1, unless unit_indices is given."""
    if unit_indices is not None:
        return tuple(unit_indices)
    return tuple(
        i for i in square_shape.poset.elements() if square_shape.row_sizes[i - 1] == 1
    )


def _apply_move(axis, move, entries, rows, cols):
    kind, a, b, sign = move
    if axis == _LEFT:
        if kind == "t":
            return _kernels.row_add(entries, rows, cols, a, b, sign)
        return _kernels.row_negate(entries, rows, cols, a)
    if kind == "t":
        return _kernels.col_add(entries, rows, cols, a, b, sign)
    return _kernels.col_negate(entries, rows, cols, b)


def _chain_moves(side, idx):
    """Moves applied from the root to records[idx], in application order."""
    chain = []
    while idx > 0:
        _, move_idx, parent, _ = side.records[idx]
        chain.append(move_idx)
        idx = parent
    chain.reverse()
    return chain


class _Engine:
    """Search for (U, W) products of elementary generators with U*A*W = B.

    Records hold states and move indices only.  A word (U, W, U^-1, W^-1)
    is rebuilt on demand by replaying a chain of move indices through
    _step, the one routine that extends a word; _apply_move is the one
    routine that applies a move to entries.  A witness therefore carries
    its inverse, and no unimodular matrix is inverted by a Smith form.
    """

    def __init__(self, shape: BlockShape, group: str, budget: SearchBudget,
                 unit_indices=None):
        self.shape = shape
        self.rows = shape.total_rows
        self.cols = shape.total_cols
        self.budget = budget
        move_group = GL if group == UNIT_RESTRICTED else group
        right_unit = None
        if group == UNIT_RESTRICTED:
            right_unit = _unit_blocks(shape.col_square(), unit_indices)
        lefts = generator_moves(shape.row_square(), move_group)
        rights = generator_moves(shape.col_square(), move_group, right_unit)
        self.moves = [(_LEFT, mv) for mv in lefts] + [(_RIGHT, mv) for mv in rights]
        self.inverse_moves = [(ax, inverse_move(mv)) for ax, mv in self.moves]
        index = {am: i for i, am in enumerate(self.moves)}
        self.inverse_index = [index[am] for am in self.inverse_moves]
        # I+sE[a,b] and I+tE[c,d] on one side commute unless b == c or a == d
        # (a flip has a == b); moves on opposite sides always commute.  The
        # inverse alphabet keeps every (a, b), so one table serves both.
        starts, ends = defaultdict(list), defaultdict(list)
        for i, (ax, (_, a, b, _)) in enumerate(self.moves):
            starts[ax, a].append(i)
            ends[ax, b].append(i)
        self.noncommuting = [
            frozenset(starts[ax, b] + ends[ax, a]) - {i}
            for i, (ax, (_, a, b, _)) in enumerate(self.moves)
        ]
        u = IntMatrix.identity(self.rows).entries
        w = IntMatrix.identity(self.cols).entries
        self.identity_word = (u, w, u, w)

    # -- words -------------------------------------------------------------

    def _step(self, word, move_idx):
        """Extend a word (U, W, U^-1, W^-1) by one move: a left move G gives
        (G*U, W, U^-1*G^-1, W^-1), a right move H gives (U, W*H, U^-1, H^-1*W^-1)."""
        u, w, u_inv, w_inv = word
        axis, move = self.moves[move_idx]
        inverse = self.inverse_moves[move_idx][1]
        if axis == _LEFT:
            return (_apply_move(_LEFT, move, u, self.rows, self.rows), w,
                    _apply_move(_RIGHT, inverse, u_inv, self.rows, self.rows), w_inv)
        return (u, _apply_move(_RIGHT, move, w, self.cols, self.cols), u_inv,
                _apply_move(_LEFT, inverse, w_inv, self.cols, self.cols))

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

    # -- search drivers ------------------------------------------------------

    def _known_children(self, side, idx):
        """The kids row of records[idx] as far as earlier expansions place it:
        for X = m1(P), m1^-1(X) is P and m2(X) = kids[kids[P][m2]][m1] for
        every m2 commuting with m1 whose child of P is already expanded.  The
        other entries are None and must be built."""
        _, m1, parent, _ = side.records[idx]
        if parent < 0:
            return [None] * len(self.moves)
        kids = side.kids
        known = [kids[r][m1] if r < idx else None for r in kids[parent]]
        for m2 in self.noncommuting[m1]:
            known[m2] = None
        known[self.inverse_index[m1]] = parent
        return known

    def _expand(self, side, other, is_forward, nodes_used):
        """Expand one full level of `side`; returns (joins, nodes, truncated)."""
        joins = []
        new_frontier = []
        count = nodes_used
        moves = self.moves if is_forward else self.inverse_moves
        rows, cols, max_nodes = self.rows, self.cols, self.budget.max_nodes
        records, visited, kids = side.records, side.visited, side.kids
        other_get = other.visited.get
        apply_move = _apply_move
        for idx in side.frontier:
            entries, _, _, depth = records[idx]
            known = self._known_children(side, idx)
            for move_idx, rec in enumerate(known):
                if rec is not None:
                    continue
                axis, move = moves[move_idx]
                child = apply_move(axis, move, entries, rows, cols)
                new = len(records)
                rec = visited.setdefault(child, new)
                if rec == new:
                    if count + 1 > max_nodes:
                        del visited[child]
                        return joins, count, True
                    records.append((child, move_idx, idx, depth + 1))
                    new_frontier.append(rec)
                    count += 1
                    hit = other_get(child)
                    if hit is not None:
                        joins.append((rec, hit))
                known[move_idx] = rec
            kids.append(known)
        side.frontier = new_frontier
        side.depth += 1
        return joins, count, False

    def search(self, a: IntMatrix, b: IntMatrix):
        """Find (U, W) with U*a*W = b; returns (witnesses, report, truncated).

        witnesses is the (possibly empty) list of the words (U, W, U^-1, W^-1)
        of minimal-depth joins, as entry tuples, ordered by (U, W).
        """
        fwd = _Side(a.entries)
        bwd = _Side(b.entries)
        nodes = 2
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
            level_joins, nodes, truncated = self._expand(side, other, is_fwd, nodes)
            if is_fwd:
                joins = list(level_joins)
            else:
                joins = [(o, s) for s, o in level_joins]
        report = BudgetReport(nodes, fwd.depth + bwd.depth)
        if not joins:
            return [], report, truncated
        depth_of = lambda pair: (
            fwd.records[pair[0]][3] + bwd.records[pair[1]][3]
        )
        best = min(depth_of(p) for p in joins)
        out = [self._witness(fwd, bwd, f, b_) for f, b_ in joins if depth_of((f, b_)) == best]
        out.sort(key=lambda word: word[:2])
        return out, report, truncated

    def stabilizer_sweep(self, b: IntMatrix, check):
        """Enumerate stabilizer pairs (U, W) with U*b*W = b other than the
        identity, calling check(U, W, W^-1) on each until it returns a result
        or the budget runs out.

        Schreier-style: breadth-first search of the orbit of b keeps a tree
        word for each state, and every non-tree edge X --g--> Y contributes
        the stabilizer element word(Y)^-1 * g * word(X).  A second pass tests
        pairwise products of the harvested elements within the budget.  Tree
        words carry their inverses, (U, W, U^-1, W^-1), built move by move
        with the inverse alphabet, so W^-1 comes from matrix products alone
        and no Smith normal form is computed.  Only the words of records that
        take part in a harvest are kept.

        Children are placed by the known-children rule of the search, without
        a move or a lookup.  For X = m1(P), two kinds of non-tree edge give
        the identity, which seen holds from the start, and are not
        harvested: X --m1^-1--> P, and X --m2--> Y for m2 commuting with m1
        when P --m2--> Q and Q --m1--> Y are tree edges, as then word(Y) =
        m1*m2*word(P).  Each such edge still costs one unit of budget.

        Returns (result, report, truncated) where result is check's first
        non-None value.
        """
        rows, cols = self.rows, self.cols
        mat_mul = _kernels.mat_mul
        side = _Side(b.entries)
        root = self._replay(())
        seen = {root[:2]}
        sigmas = []
        work = 1
        truncated = False
        depth = 0
        words = {0: root}

        def word(idx):
            if idx not in words:
                words[idx] = self._replay(_chain_moves(side, idx))
            return words[idx]

        def offer(u2, w2, w2_inv):
            return check(IntMatrix(rows, rows, u2), IntMatrix(cols, cols, w2),
                         IntMatrix(cols, cols, w2_inv))

        records, visited, kids = side.records, side.visited, side.kids
        moves, inverse_index = self.moves, self.inverse_index
        max_nodes = self.budget.max_nodes
        apply_move = _apply_move
        while side.frontier and depth < self.budget.max_depth and not truncated:
            new_frontier = []
            for idx in side.frontier:
                entries, m1, parent, _ = records[idx]
                known = self._known_children(side, idx)
                for move_idx, hit in enumerate(known):
                    if hit is None:
                        axis, move = moves[move_idx]
                        child = apply_move(axis, move, entries, rows, cols)
                        hit = visited.get(child)
                        if hit is None:
                            if work + 1 > max_nodes:
                                truncated = True
                                break
                            hit = len(records)
                            records.append((child, move_idx, idx, depth + 1))
                            visited[child] = hit
                            new_frontier.append(hit)
                            work += 1
                            known[move_idx] = hit
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
                            records[hit][1] == m1 and records[hit][2] == q
                            and records[q][1] == move_idx and records[q][2] == parent
                        )
                    # Non-tree edge: harvest word(Y)^-1 * g * word(X), which
                    # seen already holds when it is the identity.
                    if work + 1 > max_nodes:
                        truncated = True
                        break
                    work += 1
                    if identity:
                        continue
                    gu, gw, _, gw_inv = self._step(word(idx), move_idx)
                    _, wy, uy_inv, wy_inv = word(hit)
                    sig = (mat_mul(rows, rows, uy_inv, rows, gu),
                           mat_mul(cols, cols, gw, cols, wy_inv))
                    if sig in seen:
                        continue
                    seen.add(sig)
                    sigmas.append((*sig, mat_mul(cols, cols, wy, cols, gw_inv)))
                    res = offer(*sigmas[-1])
                    if res is not None:
                        return res, BudgetReport(work, depth + 1), truncated
                if truncated:
                    break
                kids.append(known)
            side.frontier = new_frontier
            depth += 1

        # Products of harvested stabilizer elements, budget permitting;
        # (w2*w1)^-1 = w1^-1 * w2^-1.
        for u1, w1, w1_inv in sigmas:
            for u2, w2, w2_inv in sigmas:
                if work + 1 > self.budget.max_nodes:
                    truncated = True
                    break
                work += 1
                sig = (mat_mul(rows, rows, u1, rows, u2),
                       mat_mul(cols, cols, w2, cols, w1))
                if sig in seen:
                    continue
                seen.add(sig)
                res = offer(*sig, mat_mul(cols, cols, w1_inv, cols, w2_inv))
                if res is not None:
                    return res, BudgetReport(work, depth), truncated
            if truncated:
                break
        return None, BudgetReport(work, depth), truncated


def _require_same_shape(a: BlockedMatrix, b: BlockedMatrix):
    if a.shape != b.shape:
        raise ShapeError("operands live in different blocked shapes")


def _witness_groups_ok(shape, group, u, v, unit_indices):
    if group == UNIT_RESTRICTED:
        if not group_membership(u, shape.row_square(), GL):
            return False
        if not group_membership(v, shape.col_square(), GL):
            return False
        col_square = shape.col_square()
        for i in _unit_blocks(col_square, unit_indices):
            blk = v.submatrix(col_square.row_range(i), col_square.col_range(i))
            if blk.entries != (1,):
                return False
        return True
    return group_membership(u, shape.row_square(), group) and group_membership(
        v, shape.col_square(), group
    )


def decide_blocked_equivalence(
    a: BlockedMatrix,
    b: BlockedMatrix,
    group: str = SL,
    side: str = SIDE_UAV,
    budget: SearchBudget = SearchBudget(),
    unit_indices=None,
) -> Verdict:
    """Is there (U, V) in the blocked group with U*a*V = b (side "uav") or
    U*a*V^-1 = b (side "uav-inv")?

    Yes comes with an exactly re-verified witness; No with an invariant
    certificate; Unknown with the budget report.
    """
    if group not in _ENGINE_GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if side not in _SIDES:
        raise ValueError(f"unknown side {side!r}")
    _require_same_shape(a, b)
    return _decide_blocked(a, b, group, side, budget, unit_indices)[0]


def _decide_blocked(a, b, group, side, budget, unit_indices):
    """decide_blocked_equivalence, also returning its engine (None if
    refuted) and the verified W with U*a*W = b of a yes (else None)."""
    profile_group = GL if group == UNIT_RESTRICTED else group
    pa = invariant_profile(a, profile_group)
    pb = invariant_profile(b, profile_group)
    diffs = pa.differences(pb)
    if diffs:
        return Verdict.no(diffs[0], BudgetReport(0, 0)), None, None

    engine = _Engine(a.shape, group, budget, unit_indices)
    witnesses, report, truncated = engine.search(a.matrix, b.matrix)
    if not witnesses:
        return Verdict.unknown(report), engine, None
    rows, cols = engine.rows, engine.cols
    u_ent, w_ent, _, w_inv_ent = witnesses[0]
    u, w = IntMatrix._trusted(rows, rows, u_ent), IntMatrix._trusted(cols, cols, w_ent)
    # For "uav-inv", V = W^-1 comes from the word; V*W = I is re-checked, so
    # U*a*W = b is the defining equation on both sides.
    v = w if side == SIDE_UAV else IntMatrix._trusted(cols, cols, w_inv_ent)
    if (
        u * a.matrix * w != b.matrix
        or (side == SIDE_UAV_INV and v * w != IntMatrix.identity(cols))
        or not _witness_groups_ok(a.shape, group, u, v, unit_indices)
    ):  # pragma: no cover - soundness guard
        raise AssertionError("witness failed re-verification")
    return Verdict.yes(u, v, report), engine, w


# ---------------------------------------------------------------------------
# Unit-vector condition (the two-equation decision)


def _pair_group_finite(shape: BlockShape) -> bool:
    """True when the full (U, V) group is provably finite: every diagonal
    block is at most 1x1 and no off-diagonal block is ever nonzero."""
    for sizes in (shape.row_sizes, shape.col_sizes):
        for i in shape.poset.elements():
            if sizes[i - 1] > 1:
                return False
    for i in shape.poset.elements():
        for j in shape.poset.elements():
            if i != j and shape.poset.leq(i, j):
                if shape.row_sizes[i - 1] and shape.row_sizes[j - 1]:
                    return False
                if shape.col_sizes[i - 1] and shape.col_sizes[j - 1]:
                    return False
    return True


def _finite_group_elements(square_shape: BlockShape, group: str, unit_indices=None):
    """All elements of a provably finite blocked group, lexicographic order."""
    n = square_shape.total_rows
    positions = []
    for i in square_shape.poset.elements():
        for k in square_shape.row_range(i):
            positions.append((i, k))
    if group == SL:
        return [IntMatrix.identity(n)]
    blocked = ()
    if group == UNIT_RESTRICTED:
        blocked = _unit_blocks(square_shape, unit_indices)
    free_positions = [k for (i, k) in positions if i not in blocked]
    out = []
    for mask in range(1 << len(free_positions)):
        diag = [1] * n
        for bit, k in enumerate(free_positions):
            if mask >> bit & 1:
                diag[k] = -1
        out.append(IntMatrix.diagonal(diag))
    out.sort(key=lambda m: m.entries)
    return out


def decide_with_unit(
    a: BlockedMatrix,
    b: BlockedMatrix,
    x: IntMatrix,
    y: IntMatrix,
    group: str = GL,
    budget: SearchBudget = SearchBudget(),
    unit_indices=None,
) -> Verdict:
    """Decide the two-condition problem: (U, V) in the group with

        (1)  U*a*V^-1 = b, and
        (2)  (V^-1)^T x - y  in  im_Z(b^T).

    Complete (yes/no) when the pair group is provably finite; otherwise the
    engine searches (1)-witnesses and sweeps the stabilizer coset for (2).
    """
    if group not in _ENGINE_GROUPS:
        raise ValueError(f"unknown group {group!r}")
    _require_same_shape(a, b)
    n = a.shape.total_cols
    if x.cols != 1 or y.cols != 1 or x.rows != n or y.rows != n:
        raise DimensionError("x and y must be columns of the total column count")

    bt = b.matrix.transpose()

    @cache
    def bt_snf():
        return smith_normal_form(bt)

    def condition2(v_inv: IntMatrix):
        return solve_matrix(bt, v_inv.transpose() * x - y, bt_snf()) is not None

    if _pair_group_finite(a.shape):
        left_group = GL if group == UNIT_RESTRICTED else group
        us = _finite_group_elements(a.shape.row_square(), left_group)
        # Each V is a +-1 diagonal matrix, hence its own inverse.
        vs = _finite_group_elements(a.shape.col_square(), group, unit_indices)
        checked = 0
        for u in us:
            for v in vs:
                checked += 1
                if u * a.matrix * v == b.matrix and condition2(v):
                    return Verdict.yes(u, v, BudgetReport(checked, 0))
        return Verdict.no(
            Certificate(
                "finite-enumeration",
                f"all {checked} group pairs enumerated",
                "none satisfies conditions (1) and (2)",
            ),
            BudgetReport(checked, 0),
        )

    base, engine, v1_inv = _decide_blocked(
        a, b, group, SIDE_UAV_INV, budget, unit_indices
    )
    if not base.is_yes:
        return base
    u1, v1 = base.witness
    if condition2(v1_inv):
        return Verdict.yes(u1, v1, base.report)

    # Stabilizer coset sweep: every (1)-witness is (U2*U1, V2*V1) for a
    # stabilizer pair (U2, V2) of b, so test condition (2) along the coset;
    # the identity pair gives V1 itself, refuted just above.
    def check(u2: IntMatrix, w2: IntMatrix, w2_inv: IntMatrix):
        # u2 * b * w2 = b, so (u2, v2) with v2 = w2^-1 stabilizes b, and the
        # composite V = v2 * v1 has V^-1 = v1^-1 * w2.
        v_inv = v1_inv * w2
        if condition2(v_inv):
            u, v = u2 * u1, w2_inv * v1
            if v * v_inv != IntMatrix.identity(n) or (
                u * a.matrix * v_inv != b.matrix
            ):  # pragma: no cover - soundness guard
                raise AssertionError("stabilizer composition failed")
            return (u, v)
        return None

    found, report, _ = engine.stabilizer_sweep(b.matrix, check)
    total = BudgetReport(
        (base.report.nodes_expanded if base.report else 0) + report.nodes_expanded,
        max(base.report.depth_reached if base.report else 0, report.depth_reached),
    )
    if found is not None:
        return Verdict.yes(found[0], found[1], total)
    return Verdict.unknown(total)


# ---------------------------------------------------------------------------
# The stabilizer gadget


@dataclass(frozen=True)
class Gadget:
    """The block matrix K of size n(m+1) with K00 in the upper-left n x n
    corner, K0j = -r_j * I along the top row of blocks, identity diagonal
    blocks elsewhere, and zeros everywhere else."""

    matrix: IntMatrix
    n: int
    m: int

    def block(self, i, j):
        n = self.n
        return self.matrix.submatrix(
            range(i * n, (i + 1) * n), range(j * n, (j + 1) * n)
        )

    @property
    def k00(self):
        return self.block(0, 0)

    def k0(self, j):
        if not 1 <= j <= self.m:
            raise IndexError(j)
        return self.block(0, j)

    def unpack(self):
        """Recover (V, r) with K00 = (V^-1)^T and K0j = -r_j * I."""
        v = invert_unimodular(self.k00).transpose()
        rs = []
        for j in range(1, self.m + 1):
            blk = self.k0(j)
            r = -blk[0, 0] if self.n else 0
            if blk != IntMatrix.diagonal([-r] * self.n):
                raise ValueError(f"block (0,{j}) is not a scalar multiple of I")
            rs.append(r)
        return v, tuple(rs)


def gadget_pack(v: IntMatrix, r) -> Gadget:
    """Build the gadget for a unimodular V and integer vector r."""
    if v.rows != v.cols:
        raise DimensionError("V must be square")
    r = tuple(r)
    n = v.rows
    m = len(r)
    blocks = {(0, 0): invert_unimodular(v).transpose()}
    for j in range(1, m + 1):
        blocks[0, j] = IntMatrix.diagonal([-r[j - 1]] * n)
        blocks[j, j] = IntMatrix.identity(n)
    sizes = [n] * (m + 1)
    return Gadget(IntMatrix.from_blocks(sizes, sizes, blocks), n, m)


def gadget_action(g: Gadget, vectors):
    """The action on (m+1)-tuples of columns: the 0th component becomes
    sum_j K0j * w_j, the others are fixed."""
    vectors = list(vectors)
    if len(vectors) != g.m + 1:
        raise DimensionError(f"expected {g.m + 1} columns")
    for w in vectors:
        if w.rows != g.n or w.cols != 1:
            raise DimensionError("component of wrong size")
    head = IntMatrix.zero(g.n, 1)
    for j, w in enumerate(vectors):
        head = head + g.block(0, j) * w
    return (head, *vectors[1:])


def is_image_endomorphism(d: IntMatrix, c: IntMatrix) -> bool:
    """Whether d maps the rational column span of c into itself
    (equivalently M*d*c = 0 for the image annihilator M of c)."""
    if d.rows != d.cols:
        raise DimensionError("endomorphism candidate must be square")
    if d.cols != c.rows:
        raise DimensionError("dimension mismatch")
    ann = image_annihilator(c)
    return (ann.matrix * (d * c)).is_zero()


class StabilizerError(ValueError):
    """The supplied (U, V) does not stabilize A."""


def stabilizer_transport_check(a: IntMatrix, u: IntMatrix, v: IntMatrix) -> bool:
    """For a stabilizer pair (U*A*V^-1 = A), transport says V^T preserves the
    rational column span of A^T; exposed as a checkable property."""
    try:
        vinv = invert_unimodular(v)
    except ValueError as exc:
        raise StabilizerError("V is not unimodular") from exc
    if u * a * vinv != a:
        raise StabilizerError("(U, V) does not stabilize A")
    return is_image_endomorphism(v.transpose(), a.transpose())
