"""The three-valued engine: profiles, searches, unit conditions."""

import random
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import lcm

import pytest

from blockeq import (
    GL,
    SL,
    SIDE_UAV,
    SIDE_UAV_INV,
    UNIT_RESTRICTED,
    BlockShape,
    BlockedMatrix,
    BudgetReport,
    IntMatrix,
    Poset,
    SearchBudget,
    SftMatrix,
    blocked_identity,
    cokernel,
    decide_blocked_equivalence,
    decide_flow_equivalence,
    decide_with_unit,
    invariant_profile,
    smith_normal_form,
)
from blockeq.equiv import _Engine, _profile_fields, _refute, _sign_pairs
from blockeq.intmat import DimensionError, invert_unimodular, solve_matrix
from blockeq.poset_block import ShapeError, antichain_poset, chain_poset, group_membership

from helpers import (
    brute_profile,
    count_calls,
    make_solver,
    rand_blocked,
    rand_poset,
    rand_square_shape,
    rand_unit_biased_blocked,
    scramble,
    sign_unimodulars,
)


def without_sign_stage(monkeypatch):
    """Leave decide_with_unit's sign stage only the identity pair, which it
    skips, so that the stabilizer sweep answers as it did before the stage
    ran and the sweep's own outputs stay pinned."""
    import blockeq.equiv as equiv

    real = equiv._sign_pairs
    monkeypatch.setattr(equiv, "_sign_pairs",
                        lambda engine, a, b: islice(real(engine, a, b), 1))


def single_block(value):
    shape = BlockShape.square(Poset(1), (1,))
    return BlockedMatrix(shape, IntMatrix.from_rows([[value]]))


@pytest.mark.parametrize("depth, nodes", [(2.5, 100), (True, 5), (8, 10.0), (8, False)])
def test_budget_bounds_must_be_ints(depth, nodes):
    # A float bound would otherwise reach the search's bit packing and fail
    # there in a shift.
    with pytest.raises(TypeError, match="non-integer budget bound"):
        SearchBudget(depth, nodes)


class TestInvariantProfile:
    def test_identity_trivial(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        p = invariant_profile(blocked_identity(shape), SL)
        assert p.cokernel.is_trivial
        assert all(sign == 1 for _, sign in p.det_signs)
        assert all(cls.is_trivial for _, cls in p.convex_cokernels)

    def test_single_blocks_differ(self):
        p2 = invariant_profile(single_block(2), SL)
        p3 = invariant_profile(single_block(3), SL)
        assert p2 != p3
        diffs = p2.differences(p3)
        assert diffs and diffs[0].name == "cokernel"

    def test_invariance_under_action(self):
        rng = random.Random(21)
        for _ in range(15):
            shape = rand_square_shape(rng)
            a = rand_blocked(rng, shape)
            for group in (SL, GL):
                _, _, b = scramble(rng, a, group, 5)
                assert invariant_profile(a, group) == invariant_profile(b, group)

    def test_whole_and_block_classes_read_from_convex_list(self, monkeypatch):
        # Blocks 1 and 3 of this 5-chain are [[1]] and [[-1]] and are
        # eliminated once, so each of the 15 intervals reads the class of
        # its other elements: one cokernel per distinct remainder, the 6
        # intervals of {2, 4, 5} and the empty one.  The whole set and each
        # singleton are intervals, so there is no separate whole-matrix or
        # per-block pass (which made 21 calls; one per interval made 15).
        shape = BlockShape.square(chain_poset(5), (1, 2, 1, 2, 1))
        a = rand_blocked(random.Random(5), shape)
        assert [a.diagonal_block(i).entries for i in (1, 3)] == [(1,), (-1,)]
        calls = count_calls(monkeypatch, cokernel)
        p = invariant_profile(a, SL)
        assert len(calls) == 7
        assert p.cokernel == cokernel(a.matrix)
        assert [cls for _, _, cls in p.diagonal_blocks] == [
            cokernel(a.diagonal_block(i)) for i in range(1, 6)
        ]

    def test_profiles_of_different_groups_do_not_compare(self):
        # An SL profile lists determinant signs where a GL profile of the
        # same matrix lists its first convex cokernel.
        a = BlockedMatrix(BlockShape.square(chain_poset(2), (1, 1)),
                          IntMatrix.from_rows([[2, 1], [0, 3]]))
        with pytest.raises(ValueError, match="diagonal-det-sign"):
            invariant_profile(a, SL).differences(invariant_profile(a, GL))
        assert invariant_profile(a, GL).differences(invariant_profile(a, UNIT_RESTRICTED)) == []

    def test_det_signs_read_first(self):
        # Each field generator stands alone: det_signs once read a list that
        # diagonal_blocks filled as it ran, and read first it yielded ().
        shape = BlockShape.square(chain_poset(3), (1, 2, 1))
        a = BlockedMatrix(shape, IntMatrix.from_rows(
            [[-3, 1, 0, 2], [0, 2, 1, 1], [0, 1, 3, 0], [0, 0, 0, -5]]))
        _, _, det_signs, _ = _profile_fields(a, SL)
        assert tuple(det_signs) == invariant_profile(a, SL).det_signs == (
            (1, -1), (2, 1), (3, -1))

    def test_rectangular_accepted(self):
        shape = BlockShape(chain_poset(2), (1, 2), (2, 1))
        m = rand_blocked(random.Random(3), shape)
        p = invariant_profile(m, SL)
        assert p.det_signs == ()

    def test_matches_brute_force_profile(self):
        # Profiles eliminate each +-1 diagonal block once for every convex
        # subset; the definition restricts and eliminates per subset.  The
        # whole cokernel, the diagonal classes, the signs and the convex list
        # must agree, in order, on square and rectangular shapes with
        # zero-size blocks.
        rng = random.Random(2026)
        with_unit_pivot = 0
        for _ in range(1000):
            a = rand_unit_biased_blocked(rng)
            with_unit_pivot += any(
                a.diagonal_block(i).entries in ((1,), (-1,))
                for i in a.shape.poset.elements()
            )
            for group in (GL, SL, UNIT_RESTRICTED):
                assert invariant_profile(a, group) == brute_profile(a, group)
        assert with_unit_pivot >= 300


def _one_entry_changed(rng, a):
    """a with one entry of an allowed block redrawn, or None when the
    pattern allows no entry."""
    shape = a.shape
    order = shape.poset
    allowed = [(r, c) for i in order.elements() for j in order.elements()
               if order.leq(i, j) for r in shape.row_range(i) for c in shape.col_range(j)]
    if not allowed:
        return None
    rows = a.matrix.to_rows()
    r, c = rng.choice(allowed)
    rows[r][c] = rng.randint(-3, 3)
    return BlockedMatrix(shape, IntMatrix.from_rows(rows))


class TestRefute:
    def test_certificate_is_the_first_profile_difference(self, monkeypatch):
        # Refutation compares the two sides' invariants in certificate order
        # and stops at the first difference, which must be the first of the
        # full profiles' differences; a pair whose whole cokernels differ
        # then costs one cokernel per side.
        calls = count_calls(monkeypatch, cokernel)
        rng = random.Random(7)
        kinds = Counter()
        for k in range(2000):
            a = rand_unit_biased_blocked(rng)
            b = _one_entry_changed(rng, a)
            if b is None:
                continue
            group = (GL, SL, UNIT_RESTRICTED)[k % 3]
            diffs = invariant_profile(a, group).differences(invariant_profile(b, group))
            calls.clear()
            refuted = _refute(a, b, group)
            if not diffs:
                assert refuted is None
                continue
            assert refuted.is_no and refuted.certificate == diffs[0]
            kind = diffs[0].name.split("[")[0]
            kinds[kind] += 1
            if kind == "cokernel":
                assert len(calls) == 2
        assert kinds["cokernel"] >= 500
        for kind in ("diagonal-block-cokernel", "diagonal-det-sign", "convex-cokernel"):
            assert kinds[kind] >= 10, kinds

    def test_whole_cokernel_difference_costs_two_cokernels(self, monkeypatch):
        # The 5-chain of the call-count test above against a copy whose last
        # block is doubled: the whole cokernels differ, so the verdict needs
        # neither side's profile.
        shape = BlockShape.square(chain_poset(5), (1, 2, 1, 2, 1))
        a = rand_blocked(random.Random(5), shape)
        rows = a.matrix.to_rows()
        rows[-1][-1] *= 2
        b = BlockedMatrix(shape, IntMatrix.from_rows(rows))
        calls = count_calls(monkeypatch, cokernel)
        v = decide_blocked_equivalence(a, b, group=SL)
        assert v.is_no and v.certificate.name == "cokernel"
        assert len(calls) == 2


class TestDecideBlockedEquivalence:
    def test_reflexive(self):
        rng = random.Random(22)
        a = rand_blocked(rng, rand_square_shape(rng))
        v = decide_blocked_equivalence(a, a, group=SL)
        assert v.is_yes
        u, w = v.witness
        assert u * a.matrix * w == a.matrix

    def test_trivial_sl_group_refutes(self):
        v = decide_blocked_equivalence(single_block(2), single_block(3), group=SL)
        assert v.is_no
        assert v.certificate is not None

    def test_gl_sign_flip(self):
        v = decide_blocked_equivalence(
            single_block(1), single_block(-1), group=GL, side=SIDE_UAV
        )
        assert v.is_yes
        u, w = v.witness
        assert u * IntMatrix.from_rows([[1]]) * w == IntMatrix.from_rows([[-1]])

    def test_shape_mismatch(self):
        a = single_block(1)
        other = BlockedMatrix(
            BlockShape.square(chain_poset(2), (1, 1)), IntMatrix.identity(2)
        )
        with pytest.raises(ShapeError):
            decide_blocked_equivalence(a, other)

    def test_side_conventions(self):
        rng = random.Random(23)
        shape = BlockShape.square(chain_poset(2), (1, 1))
        a = rand_blocked(rng, shape)
        u, v, b = scramble(rng, a, SL, 4)
        for side in (SIDE_UAV, SIDE_UAV_INV):
            verdict = decide_blocked_equivalence(a, b, group=SL, side=side)
            assert verdict.is_yes
            wu, wv = verdict.witness
            if side == SIDE_UAV:
                assert wu * a.matrix * wv == b.matrix
            else:
                assert wu * a.matrix * invert_unimodular(wv) == b.matrix

    def test_determinism(self):
        rng = random.Random(24)
        shape = rand_square_shape(rng)
        a = rand_blocked(rng, shape)
        _, _, b = scramble(rng, a, SL, 5)
        v1 = decide_blocked_equivalence(a, b, group=SL)
        v2 = decide_blocked_equivalence(a, b, group=SL)
        assert v1 == v2

    def test_unknown_on_tiny_budget(self):
        shape = BlockShape.square(Poset(1), (2,))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 1], [1, 1]]))
        b = BlockedMatrix(shape, IntMatrix.from_rows([[1, 1], [1, 2]]))
        v = decide_blocked_equivalence(
            a, b, group=SL, budget=SearchBudget(max_depth=1, max_nodes=5)
        )
        assert v.is_unknown
        assert v.report.nodes_expanded <= 5

    def test_no_certificate_is_invariant(self):
        # Sample group elements and confirm the profile the certificate came
        # from never moves.
        rng = random.Random(25)
        a = single_block(2)
        b = single_block(3)
        v = decide_blocked_equivalence(a, b, group=SL)
        assert v.is_no
        for _ in range(50):
            _, _, moved = scramble(rng, a, SL, 4)
            assert invariant_profile(moved, SL) == invariant_profile(a, SL)

    def test_det_sign_certificate(self):
        # Equal cokernels and block classes, opposite determinant signs: SL
        # refutes through the sign invariant.
        v = decide_blocked_equivalence(single_block(2), single_block(-2), group=SL)
        assert v.is_no
        assert v.certificate.name == "diagonal-det-sign[1]"
        # Under GL the sign is not an invariant and the pair is equivalent.
        v = decide_blocked_equivalence(single_block(2), single_block(-2), group=GL)
        assert v.is_yes

    def test_diagonal_block_certificate(self):
        shape = BlockShape.square(antichain_poset(2), (1, 1))
        a = BlockedMatrix(shape, IntMatrix.diagonal([2, 3]))
        b = BlockedMatrix(shape, IntMatrix.diagonal([6, 1]))
        v = decide_blocked_equivalence(a, b, group=GL)
        assert v.is_no
        assert v.certificate.name.startswith("diagonal-block-cokernel")

    def test_convex_subset_certificate(self):
        # Whole cokernels (Z/2 + Z/4), diagonal blocks, and det signs all
        # agree; only a proper convex pair distinguishes the two.
        shape = BlockShape.square(chain_poset(3), (1, 1, 1))
        a = BlockedMatrix(
            shape, IntMatrix.from_rows([[2, 0, 0], [0, 2, 1], [0, 0, 2]])
        )
        b = BlockedMatrix(
            shape, IntMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
        )
        pa = invariant_profile(a, SL)
        pb = invariant_profile(b, SL)
        assert pa.cokernel == pb.cokernel
        assert pa.diagonal_blocks == pb.diagonal_blocks
        assert pa.det_signs == pb.det_signs
        v = decide_blocked_equivalence(a, b, group=SL)
        assert v.is_no
        assert v.certificate.name.startswith("convex-cokernel")

    def test_stabilizer_sweep_truncates_cleanly(self):
        shape = BlockShape.square(Poset(1), (2,))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 0], [0, 0]]))
        x = IntMatrix.column([1, 1])
        y = IntMatrix.column([1, 0])
        v = decide_with_unit(a, a, x, y, group=SL, budget=SearchBudget(2, 30))
        assert v.status in ("yes", "unknown")

    def test_witness_is_lex_least_at_min_depth(self):
        # [1] vs [-1] under GL has exactly two depth-2 witnesses; the engine
        # must pick the lexicographically least (U, V) pair.
        v = decide_blocked_equivalence(
            single_block(1), single_block(-1), group=GL, side=SIDE_UAV
        )
        u, w = v.witness
        assert (u.entries, w.entries) == ((-1,), (1,))

    # Seeded scrambles whose verdict, witness entries and budget report were
    # recorded before the search learned to skip children it can place from
    # earlier expansions; the skip must not change any of them.
    @pytest.mark.parametrize(
        "seed, group, side, rectangular, max_nodes, status, witness, report",
        [
            (16, SL, SIDE_UAV, False, 20_000, "yes",
             ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
              (1, 2, -1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)), (366, 3)),
            (26, SL, SIDE_UAV_INV, False, 20_000, "yes",
             ((1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1),
              (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, -1, 1)), (114, 3)),
            (20, SL, SIDE_UAV_INV, False, 20_000, "yes",
             ((2, -1, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, -1,
               0, 0, 0, 0, 1),
              (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 1, 1)), (310, 4)),
            (24, GL, SIDE_UAV, False, 20_000, "yes",
             ((1, -1, 0, 0, 1, 0, 0, 0, 1), (1, -1, -2, 0, 1, 1, 0, 0, 1)),
             (324, 4)),
            (26, GL, SIDE_UAV, False, 20_000, "yes",
             ((1, 0, 0, 0, 0, -1, -1, 0, 0, 0, 1, 0, 0, 0, 0, -1),
              (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1)), (415, 4)),
            (16, GL, SIDE_UAV_INV, False, 20_000, "yes",
             ((1, -1, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
              (-1, -1, -1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1)), (6687, 5)),
            (9, GL, SIDE_UAV_INV, True, 20_000, "yes",
             ((-1, 0, 0, 0, 1, 0, 0, 0, -1),
              (1, 0, 0, 0, 0, 1, 0, -1, 0, 0, 1, 0, 0, 0, 0, 1)), (106, 3)),
            (27, SL, SIDE_UAV, False, 300, "unknown", None, (300, 3)),
        ],
    )
    def test_search_pinned_outputs(
        self, seed, group, side, rectangular, max_nodes, status, witness, report
    ):
        rng = random.Random(seed)
        if rectangular:
            poset = Poset(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)])
            shape = BlockShape(poset, (1, 0, 1, 0, 1), (1, 1, 0, 1, 1))
        else:
            shape = rand_square_shape(rng, max_poset=3, max_block=2)
        a = rand_blocked(rng, shape, -2, 2)
        _, _, b = scramble(rng, a, group, 6)
        verdict = decide_blocked_equivalence(
            a, b, group=group, side=side, budget=SearchBudget(6, max_nodes)
        )
        assert verdict.status == status
        got = verdict.witness and tuple(m.entries for m in verdict.witness)
        assert got == witness
        rep = verdict.report
        assert (rep.nodes_expanded, rep.depth_reached) == report


class TestSearchExpansion:
    @pytest.mark.parametrize(
        "shape, group",
        [
            (BlockShape.square(chain_poset(3), (2, 1, 2)), SL),
            (BlockShape.square(Poset(3, [(1, 3)]), (2, 2, 1)), GL),
            (BlockShape(Poset(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)]),
                        (1, 0, 1, 0, 1), (1, 1, 0, 1, 1)), GL),
            (BlockShape.square(chain_poset(3), (1, 2, 1)), UNIT_RESTRICTED),
        ],
    )
    def test_commutation_sets_match_matrix_products(self, shape, group):
        from blockeq.equiv import _LEFT, _Engine, _Packing, _apply_move, _entry_bits
        from blockeq.poset_block import move_matrix

        engine = _Engine(shape, group, SearchBudget())
        mats = [
            (ax, move_matrix(mv, shape.total_rows if ax == _LEFT else shape.total_cols))
            for ax, mv in engine.moves
        ]
        assert len(engine.noncommuting) == len(mats)
        # _apply_move is left multiplication by a left move's matrix and
        # right multiplication by a right move's, at any integer size, on a
        # packing wide enough for two levels; the inverse alphabet undoes it.
        rows, cols = shape.total_rows, shape.total_cols
        rng = random.Random(len(mats))
        e = IntMatrix(rows, cols, [rng.randint(-10**12, 10**12) for _ in range(rows * cols)])
        packing = _Packing(engine, _entry_bits(e.entries) + 3)
        state = packing.pack(e.entries)
        assert packing.unpack(state) == e.entries
        for (ax, _), (_, m), compiled, inverse in zip(
            engine.moves, mats, packing.moves, packing.inverse_moves
        ):
            product = m * e if ax == _LEFT else e * m
            child = _apply_move(state, compiled)
            assert packing.unpack(child) == product.entries
            assert _apply_move(child, inverse) == state
        for i, (ax_i, m_i) in enumerate(mats):
            ax_inv, m_inv = mats[engine.inverse_index[i]]
            assert ax_inv == ax_i and m_i * m_inv == IntMatrix.identity(m_i.rows)
            for j, (ax_j, m_j) in enumerate(mats):
                commute = ax_i != ax_j or m_i * m_j == m_j * m_i
                assert (j not in engine.noncommuting[i]) == commute, (i, j)

    def test_expansion_skips_known_children(self, monkeypatch):
        # Six SL generators scramble the 3-chain with 2x2 blocks.  Building
        # every child takes 10,512 moves; children known from commuting pairs
        # of moves and from each record's parent are not built again, and the
        # verdict, witness and report stay exactly as they were.  Replaying
        # the witness words applies no state move: 5,888 are counted.
        import blockeq.equiv as equiv
        from blockeq.poset_block import generator_moves, move_matrix

        built = []
        apply_move = equiv._apply_move

        def counted(*args):
            built.append(args[0])
            return apply_move(*args)

        monkeypatch.setattr(equiv, "_apply_move", counted)
        shape = BlockShape.square(chain_poset(3), (2, 2, 2))
        moves = generator_moves(shape, SL)
        rng = random.Random(3)
        a = IntMatrix.from_rows(
            [[rng.randint(-2, 2) if c // 2 >= r // 2 else 0 for c in range(6)]
             for r in range(6)]
        )
        u = v = IntMatrix.identity(6)
        for _ in range(6):
            m = move_matrix(moves[rng.randrange(len(moves))], 6)
            if rng.random() < 0.5:
                u = m * u
            else:
                v = v * m
        verdict = decide_blocked_equivalence(
            BlockedMatrix(shape, a), BlockedMatrix(shape, u * a * v),
            group=SL, budget=SearchBudget(6, 20_000),
        )
        assert verdict.status == "yes"
        assert tuple(m.entries for m in verdict.witness) == (
            (1, 0, 1, 0, 0, 0, 1, 1, 1, 0, -1, 1, 0, 0, 1, 0, 0, 0,
             0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 1),
            IntMatrix.identity(6).entries,
        )
        assert (verdict.report.nodes_expanded, verdict.report.depth_reached) == (5852, 4)
        assert len(built) <= 0.65 * 10_512

    def test_truncated_level_leaves_every_visit_recorded(self):
        # The child that overruns the budget is not recorded, so it must not
        # stay visited either.
        import blockeq.equiv as equiv

        shape = BlockShape.square(chain_poset(2), (2, 1))
        engine = equiv._Engine(shape, SL, SearchBudget(4, 3))
        a = IntMatrix.from_rows([[2, 1, 0], [0, 3, 1], [0, 0, 5]])
        packing, (side, other) = engine._start(a.entries, a.entries)
        _, count, truncated = engine._expand(side, other, packing.moves, 1)
        assert truncated and count == 3
        assert len(side.states) == len(side.moves) == len(side.parents) == 3
        assert sorted(side.visited.values()) == [0, 1, 2]


def packing_widths(monkeypatch, headroom):
    """Set the starting headroom and record the width of every packing the
    engine makes."""
    import blockeq.equiv as equiv

    widths = []

    class RecordedPacking(equiv._Packing):
        __slots__ = ()

        def __init__(self, engine, width):
            widths.append(width)
            super().__init__(engine, width)

    monkeypatch.setattr(equiv, "_Packing", RecordedPacking)
    if headroom is not None:
        monkeypatch.setattr(equiv, "_HEADROOM_LEVELS", headroom)
    return widths


def packed_and_tuple_verdicts(monkeypatch, a, b, group, side, budget):
    """decide_blocked_equivalence by the packed search and by tuple_search."""
    import blockeq.equiv as equiv

    packed = decide_blocked_equivalence(a, b, group=group, side=side, budget=budget)
    with monkeypatch.context() as m:
        m.setattr(equiv._Engine, "search", tuple_search)
        reference = decide_blocked_equivalence(a, b, group=group, side=side, budget=budget)
    return packed, reference


def assert_same_verdict(packed, reference):
    assert packed.status == reference.status
    assert packed.report == reference.report
    assert (packed.witness and [m.entries for m in packed.witness]) == (
        reference.witness and [m.entries for m in reference.witness]
    )


class TestPackedStates:
    """Packed-int states give exactly the verdicts, witnesses and reports of
    entry-tuple states.  Headroom 0 starts every search at the narrowest
    width, so its entries force re-encodes at wider fields."""

    @pytest.mark.parametrize("headroom", [None, 0])
    @pytest.mark.parametrize("group", [GL, SL])
    def test_huge_entry_scrambles(self, monkeypatch, group, headroom):
        widths = packing_widths(monkeypatch, headroom)
        rng = random.Random(40 + len(group))
        statuses = set()
        for i in range(12):
            shape = rand_square_shape(rng, max_poset=3, max_block=2)
            a = rand_blocked(rng, shape, -10**40, 10**40)
            _, _, b = scramble(rng, a, group, 5)
            side = (SIDE_UAV, SIDE_UAV_INV)[i % 2]
            budget = SearchBudget(6, (300, 5_000)[i % 2])
            packed, reference = packed_and_tuple_verdicts(monkeypatch, a, b, group, side,
                                                          budget)
            assert_same_verdict(packed, reference)
            statuses.add(packed.status)
        assert "yes" in statuses
        assert max(widths) > 130
        if headroom == 0:
            # Some search outgrew its starting width and was re-encoded.
            assert len(widths) > 12

    @pytest.mark.parametrize("headroom", [None, 0])
    @pytest.mark.parametrize("shape", [
        BlockShape(Poset(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)]),
                   (1, 0, 1, 0, 1), (1, 1, 0, 1, 1)),
        BlockShape.square(chain_poset(3), (2, 0, 1)),
        BlockShape(chain_poset(2), (0, 2), (1, 1)),
        BlockShape(chain_poset(2), (2, 1), (0, 1)),
    ])
    def test_rectangular_and_zero_size_blocks(self, monkeypatch, shape, headroom):
        packing_widths(monkeypatch, headroom)
        rng = random.Random(shape.total_rows * 7 + shape.total_cols)
        for i in range(6):
            group = (GL, SL)[i % 2]
            a = rand_blocked(rng, shape, -3, 3)
            _, _, b = scramble(rng, a, group, 6)
            # A budget of one node has no room for the two roots.
            for budget in (SearchBudget(8, 2_000), SearchBudget(3, 40), SearchBudget(4, 1)):
                packed, reference = packed_and_tuple_verdicts(monkeypatch, a, b, group,
                                                              SIDE_UAV, budget)
                assert_same_verdict(packed, reference)

    @pytest.mark.parametrize("headroom", [None, 0])
    def test_every_compiled_move_variant(self, monkeypatch, headroom):
        # A compiled move shifts its source fields left or right onto the
        # destination, adds or subtracts them, and a flip doubles by a
        # one-bit shift.  Every such variant, on both axes, under GL, SL and
        # the unit-restricted group, on square, rectangular and zero-size
        # blocks, gives the entry-tuple search's verdicts, witnesses and
        # reports.
        import blockeq.equiv as equiv

        def variant(axis, move):
            kind, a, b, sign = move
            src, dst = (b, a) if axis == equiv._LEFT else (a, b)
            return axis, kind, sign, src > dst

        widths = packing_widths(monkeypatch, headroom)
        shapes = [
            BlockShape.square(chain_poset(2), (2, 2)),
            BlockShape.square(Poset(3, [(1, 3)]), (2, 1, 2)),
            BlockShape(chain_poset(3), (2, 0, 1), (1, 2, 2)),
            BlockShape(Poset(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)]),
                       (1, 0, 1, 0, 1), (1, 1, 0, 1, 1)),
        ]
        rng = random.Random(61)
        covered, groups_seen, statuses = set(), set(), set()
        searches = 0
        for shape in shapes:
            for group in (GL, SL, UNIT_RESTRICTED):
                moves = equiv._Engine(shape, group, SearchBudget()).moves
                a = rand_blocked(rng, shape, -10**6, 10**6)
                _, _, b = scramble(rng, a, group, 5)
                for side, budget in ((SIDE_UAV, SearchBudget(5, 3_000)),
                                     (SIDE_UAV_INV, SearchBudget(5, 300))):
                    packed, reference = packed_and_tuple_verdicts(monkeypatch, a, b, group,
                                                                  side, budget)
                    assert_same_verdict(packed, reference)
                    statuses.add(packed.status)
                    searches += 1
                    # A search past its roots builds every child of a root.
                    if packed.report.nodes_expanded > 2:
                        covered |= {variant(*am) for am in moves}
                        groups_seen.add(group)
        assert covered == {
            (axis, kind, sign, after)
            for axis in (equiv._LEFT, equiv._RIGHT)
            for kind, sign, after in (("t", 1, True), ("t", 1, False), ("t", -1, True),
                                      ("t", -1, False), ("f", -1, False))
        }
        assert groups_seen == {GL, SL, UNIT_RESTRICTED}
        assert statuses == {"yes", "unknown"}
        if headroom == 0:
            # Some search outgrew its starting width and was re-encoded.
            assert len(widths) > searches

    @pytest.mark.parametrize("headroom", [None, 0])
    def test_sl_line_orbit_stays_narrow(self, monkeypatch, headroom):
        # On the 2-chain with 1x1 blocks, SL moves only add +-5 to the
        # corner, so entries grow linearly over 3,000 levels and the width
        # stays far below that depth.
        widths = packing_widths(monkeypatch, headroom)
        shape = BlockShape.square(chain_poset(2), (1, 1))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[5, 1], [0, 5]]))
        b = BlockedMatrix(shape, IntMatrix.from_rows([[5, 4], [0, 5]]))
        packed, reference = packed_and_tuple_verdicts(monkeypatch, a, b, SL, SIDE_UAV,
                                                      SearchBudget(3000, 6000))
        assert_same_verdict(packed, reference)
        assert packed.is_unknown and packed.report.nodes_expanded == 6000
        assert max(widths) < 64

    @pytest.mark.parametrize("headroom", [None, 0])
    def test_sweep_of_huge_entries(self, monkeypatch, headroom):
        # The stabilizer of c*b is that of b, so the sweep offers the same
        # elements for b scaled by 10^40, and so does the tuple reference.
        import blockeq.equiv as equiv

        widths = packing_widths(monkeypatch, headroom)
        for seed, group in ((16, GL), (20, SL)):
            _, b, _, _ = sweep_instance(seed, group)
            big = IntMatrix(b.matrix.rows, b.matrix.cols, [10**40 * e for e in b.matrix.entries])
            engine = equiv._Engine(b.shape, group, SearchBudget(4, 3_000))
            fast = recorded_sweep(equiv._Engine.stabilizer_sweep, engine, big)
            assert fast[0]
            assert fast == recorded_sweep(reference_sweep, engine, big)
            assert fast == recorded_sweep(equiv._Engine.stabilizer_sweep, engine, b.matrix)
        if headroom == 0:
            assert len(widths) > 4

    @pytest.mark.parametrize("seed, group", [(19, GL), (24, SL)])
    def test_search_and_sweep_compile_each_width_once(self, monkeypatch, seed, group):
        # decide_with_unit's search and stabilizer sweep share one engine,
        # which compiles the moves of each width once.  No sign pair of B
        # settles these two instances, so the sweep runs.
        import blockeq.equiv as equiv

        widths = packing_widths(monkeypatch, None)
        sweeps = count_calls(monkeypatch, equiv._Engine.stabilizer_sweep, equiv._Engine)
        a, b, x, y = sweep_instance(seed, group)
        decide_with_unit(a, b, x, y, group=group, budget=SearchBudget(4, 3_000))
        assert len(sweeps) == 1
        assert len(widths) == len(set(widths)) == 1

    def test_replay_applies_no_state_move(self, monkeypatch):
        import blockeq.equiv as equiv

        shape = BlockShape.square(chain_poset(3), (2, 1, 2))
        engine = equiv._Engine(shape, GL, SearchBudget())
        calls = count_calls(monkeypatch, equiv._apply_move)
        word = engine._replay(list(range(len(engine.moves))) * 2)
        assert calls == []
        u, w, u_inv, w_inv = (IntMatrix(5, 5, e) for e in word)
        assert u * u_inv == IntMatrix.identity(5) and w * w_inv == IntMatrix.identity(5)

    def test_sweep_builds_no_validated_matrix(self, monkeypatch):
        import blockeq.equiv as equiv

        _, b, _, _ = sweep_instance(16, GL)
        engine = equiv._Engine(b.shape, GL, SearchBudget(4, 3_000))
        calls = count_calls(monkeypatch, IntMatrix.__init__, IntMatrix)
        offered, _, _ = recorded_sweep(equiv._Engine.stabilizer_sweep, engine, b.matrix)
        assert offered and calls == []


class TestRecoveryAcrossGroups:
    def test_rectangular_scramble_recover(self):
        # The five-element rectangular shape: rows blocked by m, columns by
        # n, transformations from the two different square groups.
        poset = Poset(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)])
        shape = BlockShape(poset, (1, 0, 1, 0, 1), (1, 1, 0, 1, 1))
        rng = random.Random(263)
        for _ in range(10):
            a = rand_blocked(rng, shape, -2, 2)
            u, v, b = scramble(rng, a, SL, 5)
            verdict = decide_blocked_equivalence(a, b, group=SL)
            assert verdict.is_yes
            wu, wv = verdict.witness
            assert wu.rows == 3 and wv.rows == 4
            assert wu * a.matrix * wv == b.matrix

    def test_gl_scramble_recover(self):
        rng = random.Random(260)
        for _ in range(10):
            shape = rand_square_shape(rng, max_poset=2, max_block=2)
            a = rand_blocked(rng, shape, -2, 2)
            _, _, b = scramble(rng, a, GL, 5)
            verdict = decide_blocked_equivalence(a, b, group=GL)
            assert verdict.is_yes
            u, w = verdict.witness
            assert u * a.matrix * w == b.matrix

    def test_unit_scramble_recover(self):
        from blockeq.poset_block import generator_moves, move_matrix, GL as _GL

        rng = random.Random(261)
        for _ in range(10):
            shape = rand_square_shape(rng, max_poset=2, max_block=2)
            restricted = tuple(
                i for i in shape.poset.elements() if shape.col_sizes[i - 1] == 1
            )
            a = rand_blocked(rng, shape, -2, 2)
            left = generator_moves(shape.row_square(), _GL)
            right = generator_moves(shape.col_square(), UNIT_RESTRICTED)
            n = shape.total_rows
            u = IntMatrix.identity(n)
            w = IntMatrix.identity(n)
            for _ in range(rng.randint(1, 5)):
                if left and (not right or rng.random() < 0.5):
                    u = move_matrix(left[rng.randrange(len(left))], n) * u
                elif right:
                    w = w * move_matrix(right[rng.randrange(len(right))], n)
            b = BlockedMatrix(shape, u * a.matrix * w)
            verdict = decide_blocked_equivalence(a, b, group=UNIT_RESTRICTED)
            assert verdict.is_yes
            wu, wv = verdict.witness
            assert wu * a.matrix * wv == b.matrix
            for i in restricted:
                sq = shape.col_square()
                blk = wv.submatrix(sq.row_range(i), sq.col_range(i))
                assert blk.entries == (1,)


class TestDecideWithUnitOracle:
    def test_finite_shapes_match_exhaustive_oracle(self):
        # Without a transvection the pair group is finite and the engine is
        # complete; compare with direct enumeration of every {-1, 0, 1}
        # matrix that group_membership admits.  In the second shape element 2
        # has no coordinates, so the relation 1 <= 2 adds no transvection.
        rng = random.Random(262)
        shapes = [
            BlockShape.square(antichain_poset(2), (1, 1)),
            BlockShape.square(Poset(3, [(1, 2)]), (1, 0, 1)),
        ]
        for shape, group in [(sh, g) for sh in shapes for g in (GL, SL, UNIT_RESTRICTED)]:
            sq = shape.row_square()
            members = {
                g: [m for m in sign_unimodulars(2) if group_membership(m, sq, g)]
                for g in (GL, group)
            }
            us = members[GL if group == UNIT_RESTRICTED else group]
            vs = members[group]
            for trial in range(40):
                d = [rng.randint(-2, 2), rng.randint(-2, 2)]
                a = BlockedMatrix(shape, IntMatrix.diagonal(d))
                b = BlockedMatrix(
                    shape, IntMatrix.diagonal([e * rng.choice((1, -1)) for e in d])
                )
                x = IntMatrix.column([rng.randint(-2, 2), rng.randint(-2, 2)])
                y = IntMatrix.column([rng.randint(-2, 2), rng.randint(-2, 2)])
                bt = b.matrix.transpose()
                oracle = any(
                    u * a.matrix * invert_unimodular(v) == b.matrix
                    and solve_matrix(bt, invert_unimodular(v).transpose() * x - y)
                    is not None
                    for u in us
                    for v in vs
                )
                verdict = decide_with_unit(a, b, x, y, group=group)
                assert verdict.status in ("yes", "no")
                assert verdict.is_yes == oracle, (shape, group, trial)


class TestSignPairs:
    @staticmethod
    def brute(engine, a, b):
        """{D_V: [D_U, ...]} over every +-1 diagonal pair in the engine's
        groups with D_U*a*D_V = b."""
        shape, rows, cols = engine.shape, engine.rows, engine.cols
        members = [
            [d for d in product((1, -1), repeat=n)
             if group_membership(IntMatrix.diagonal(d), sq, g)]
            for n, sq, g in ((rows, shape.row_square(), engine.groups[0]),
                             (cols, shape.col_square(), engine.groups[1]))
        ]
        out = {}
        for du in members[0]:
            for dv in members[1]:
                if all(du[k // cols] * p * dv[k % cols] == q
                       for k, (p, q) in enumerate(zip(a.entries, b.entries))):
                    out.setdefault(dv, []).append(du)
        return out

    @pytest.mark.parametrize("group", [GL, SL, UNIT_RESTRICTED])
    def test_matches_brute_force(self, group):
        # Seeded shapes of 1-4 elements with 0-2 rows and columns each (so
        # zero-size blocks and rectangles), at most 6 coordinates a side;
        # some rows and columns are zeroed.  b is a sign image of a, or one
        # with one entry's sign or size changed, or a itself.
        rng = random.Random(29)
        solvable = 0
        for trial in range(150):
            size = rng.randint(1, 4)
            poset = rand_poset(rng, size)
            if group == SL and trial % 2:
                sizes = tuple(rng.choice((0, 2)) for _ in range(size))
                row_sizes = col_sizes = sizes
            else:
                row_sizes = tuple(rng.randint(0, 2) for _ in range(size))
                col_sizes = tuple(rng.randint(0, 2) for _ in range(size))
            if not (0 < sum(row_sizes) <= 6 and 0 < sum(col_sizes) <= 6):
                continue
            shape = BlockShape(poset, row_sizes, col_sizes)
            m = rand_blocked(rng, shape, -2, 2).matrix
            rows, cols = m.to_rows(), m.cols
            if rng.random() < 0.3:
                rows[rng.randrange(len(rows))] = [0] * cols
            if rng.random() < 0.3:
                c = rng.randrange(cols)
                for row in rows:
                    row[c] = 0
            a = IntMatrix.from_rows(rows)
            du = [rng.choice((1, -1)) for _ in range(a.rows)]
            dv = [rng.choice((1, -1)) for _ in range(cols)]
            b = IntMatrix.diagonal(du) * a * IntMatrix.diagonal(dv)
            kind = trial % 4
            if kind in (1, 2) and any(b.entries):
                k = rng.choice([k for k, e in enumerate(b.entries) if e])
                e = list(b.entries)
                e[k] = -e[k] if kind == 1 else 2 * e[k]
                b = IntMatrix(b.rows, cols, e)
            elif kind == 3:
                b = a
            engine = _Engine(shape, group, SearchBudget())
            pairs = list(_sign_pairs(engine, a, b))
            expected = self.brute(engine, a, b)
            got = {tuple(d_v[j, j] for j in range(cols)): d_u for d_u, d_v in pairs}
            assert len(got) == len(pairs) and set(got) == set(expected), trial
            for d_v, d_u in got.items():
                assert tuple(d_u[i, i] for i in range(a.rows)) in expected[d_v], trial
            if b is a:
                assert pairs[0] == (IntMatrix.identity(a.rows), IntMatrix.identity(cols))
            solvable += bool(pairs)
        assert solvable > 40

    def test_minus_identity_is_in_sl_on_even_blocks(self):
        shape = BlockShape.square(chain_poset(2), (2, 2))
        a = IntMatrix.from_rows([[1, 2, 0, 1], [0, 1, 1, 0], [0, 0, 3, 1], [0, 0, 0, 1]])
        minus = IntMatrix.diagonal([-1] * 4)
        pairs = list(_sign_pairs(_Engine(shape, SL, SearchBudget()), a, a))
        assert (minus, minus) in pairs and len(pairs) == 2
        odd = BlockShape.square(chain_poset(2), (1, 3))
        assert list(_sign_pairs(_Engine(odd, SL, SearchBudget()), a, a)) == [
            (IntMatrix.identity(4), IntMatrix.identity(4))
        ]


class TestUnitRestricted:
    def test_restriction_refutes_where_gl_succeeds(self):
        shape = BlockShape.square(antichain_poset(2), (1, 1))
        zero = BlockedMatrix(shape, IntMatrix.zero(2, 2))
        x = IntMatrix.column([1, 0])
        y = IntMatrix.column([-1, 0])
        v_gl = decide_with_unit(zero, zero, x, y, group=GL)
        assert v_gl.is_yes
        v_unit = decide_with_unit(zero, zero, x, y, group=UNIT_RESTRICTED)
        assert v_unit.is_no

    def test_unit_witness_blocks_are_one(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        rng = random.Random(26)
        a = rand_blocked(rng, shape)
        v = decide_blocked_equivalence(a, a, group=UNIT_RESTRICTED)
        assert v.is_yes
        _, w = v.witness
        assert w[0, 0] == 1 and w[1, 1] == 1


class TestDecideWithUnit:
    def test_identity_pair(self):
        a = single_block(1)
        v = decide_with_unit(a, a, IntMatrix.column([0]), IntMatrix.column([0]))
        assert v.is_yes

    def test_finite_enumeration_refutes(self):
        a = single_block(0)
        v = decide_with_unit(a, a, IntMatrix.column([1]), IntMatrix.column([2]), group=GL)
        assert v.is_no
        assert v.certificate.name == "finite-enumeration"

    def test_membership_witness(self):
        a = single_block(2)
        v = decide_with_unit(a, a, IntMatrix.column([1]), IntMatrix.column([3]), group=GL)
        assert v.is_yes
        u, w = v.witness
        vin_t = invert_unimodular(w).transpose()
        diff = vin_t * IntMatrix.column([1]) - IntMatrix.column([3])
        assert solve_matrix(a.matrix.transpose(), diff) is not None

    def test_stabilizer_sweep_finds_coset_witness(self):
        # The identity satisfies (1) but fails (2): x - y = (1, 0) is odd in
        # the first coordinate while im_Z(A^T) = span{(2, 0)}.  The stabilizer
        # V = [[1, 0], [1, 1]] fixes A and moves x onto y, so the sweep must
        # answer yes.
        shape = BlockShape.square(Poset(1), (2,))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 0], [0, 0]]))
        x = IntMatrix.column([1, 1])
        y = IntMatrix.column([0, 1])
        assert solve_matrix(a.matrix.transpose(), x - y) is None
        v = decide_with_unit(a, a, x, y, group=SL, budget=SearchBudget(6, 50_000))
        assert v.is_yes
        u, w = v.witness
        vin_t = invert_unimodular(w).transpose()
        assert solve_matrix(a.matrix.transpose(), vin_t * x - y) is not None
        assert u * a.matrix * invert_unimodular(w) == a.matrix

    def test_witness_inverses_come_from_words(self, monkeypatch):
        # A uav-inv yes takes V = W^-1 from the witness word, and
        # decide_with_unit uses the verified W as V1^-1, so neither runs
        # invert_unimodular (a Smith-form inversion) outside the finite
        # branch; they made 1 and 2 calls when only W was rebuilt.
        shape = BlockShape.square(Poset(1), (2,))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 1], [0, 3]]))
        h = IntMatrix.from_rows([[1, 0], [1, 1]]) * IntMatrix.from_rows([[1, 1], [0, 1]])
        b = BlockedMatrix(shape, a.matrix * invert_unimodular(h))
        sweep_a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 0], [0, 0]]))
        x = IntMatrix.column([1, 1])
        y = IntMatrix.column([0, 1])
        calls = count_calls(monkeypatch, invert_unimodular)

        verdict = decide_blocked_equivalence(a, b, group=SL, side=SIDE_UAV_INV)
        assert verdict.is_yes and calls == []
        u, v = verdict.witness
        assert u * a.matrix == b.matrix * v

        verdict = decide_with_unit(sweep_a, sweep_a, x, y, group=SL,
                                   budget=SearchBudget(6, 50_000))
        assert verdict.is_yes and calls == []

    def test_finite_branch_inverts_nothing(self, monkeypatch):
        # Every V the finite branch enumerates is a +-1 diagonal matrix and
        # so its own inverse; inverting each one took 16 Smith forms here.
        shape = BlockShape.square(antichain_poset(4), (1, 1, 1, 1))
        a = BlockedMatrix(shape, IntMatrix.diagonal([2, 3, 5, 7]))
        b = BlockedMatrix(shape, IntMatrix.diagonal([-2, 3, 5, -7]))
        x = IntMatrix.column([1, 2, 3, 4])
        y = IntMatrix.column([1, -2, 3, 4])
        calls = count_calls(monkeypatch, invert_unimodular)
        verdict = decide_with_unit(a, b, x, y, group=GL)
        assert calls == []
        assert verdict.is_yes
        u, v = verdict.witness
        assert v * v == IntMatrix.identity(4)
        assert u * a.matrix * v == b.matrix
        assert solve_matrix(b.matrix.transpose(), v.transpose() * x - y) is not None

    def test_finite_branch_stays_within_the_node_budget(self):
        # GL on six 1x1 blocks has 64 sign matrices V with D*A*V = A (each
        # with D = V), and none moves x = (1, ..., 1) into im(B^T) = 2Z^6;
        # all 64 are checked at any budget.  A yes found within the budget
        # stays as it was: only V = diag(1, -1, 1, 1, -1, 1) moves x onto y
        # mod 3Z^6, the 19th V listed.
        shape = BlockShape.square(antichain_poset(6), (1,) * 6)
        a = BlockedMatrix(shape, IntMatrix.diagonal([2] * 6))
        x, y = IntMatrix.column([1] * 6), IntMatrix.zero(6, 1)
        for max_nodes, status in ((10, "unknown"), (63, "unknown"), (64, "no"),
                                  (10**6, "no")):
            verdict = decide_with_unit(a, a, x, y, group=GL,
                                       budget=SearchBudget(8, max_nodes))
            assert verdict.status == status
            assert verdict.report == BudgetReport(min(max_nodes, 64), 0)
        # The no certificate counts every D_V the branch enumerated.
        assert verdict.certificate.left == "all 64 V with U*a*V = b enumerated"
        a = BlockedMatrix(shape, IntMatrix.diagonal([3] * 6))
        b = BlockedMatrix(shape, IntMatrix.diagonal([3, -3, 3, 3, -3, 3]))
        y = IntMatrix.column([1, -1, 1, 1, -1, 1])
        found = decide_with_unit(a, b, x, y, group=GL)
        nodes = found.report.nodes_expanded
        assert found.is_yes and found.witness[1] == IntMatrix.diagonal([1, -1, 1, 1, -1, 1])
        assert nodes == 19
        assert decide_with_unit(a, b, x, y, group=GL,
                                budget=SearchBudget(8, nodes)) == found
        assert decide_with_unit(a, b, x, y, group=GL,
                                budget=SearchBudget(8, nodes - 1)).status == "unknown"

    def test_every_yes_rechecks_group_membership(self, monkeypatch):
        # A yes is built by one guard, which re-checks that U and V lie in
        # their groups.  The sweep yes of the coset instance above checks
        # the search's witness and its own pair (4 calls; 2 when only the
        # search's was checked), the finite yes its one pair (2; once 0).
        calls = count_calls(monkeypatch, group_membership)
        shape = BlockShape.square(Poset(1), (2,))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 0], [0, 0]]))
        v = decide_with_unit(a, a, IntMatrix.column([1, 1]), IntMatrix.column([0, 1]),
                             group=SL, budget=SearchBudget(6, 50_000))
        assert v.is_yes and len(calls) == 4
        calls.clear()
        shape = BlockShape.square(antichain_poset(2), (1, 1))
        a = BlockedMatrix(shape, IntMatrix.diagonal([2, 3]))
        b = BlockedMatrix(shape, IntMatrix.diagonal([-2, 3]))
        v = decide_with_unit(a, b, IntMatrix.column([1, 0]), IntMatrix.column([-1, 0]),
                             group=GL)
        assert v.is_yes and len(calls) == 2
        assert [(m, g) for m, _, g in calls] == [(v.witness[0], GL), (v.witness[1], GL)]

    def test_dimension_errors(self):
        a = single_block(1)
        with pytest.raises(DimensionError):
            decide_with_unit(a, a, IntMatrix.column([1, 2]), IntMatrix.column([0]))

    def test_stabilizer_sweep_runs_no_smith_form_per_edge(self, monkeypatch):
        # The coset-witness instance above: the sweep carries inverse words,
        # so only the base witness is ever inverted by a Smith normal form.
        calls = count_calls(monkeypatch, invert_unimodular)
        shape = BlockShape.square(Poset(1), (2,))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 0], [0, 0]]))
        x = IntMatrix.column([1, 1])
        y = IntMatrix.column([0, 1])
        v = decide_with_unit(a, a, x, y, group=SL, budget=SearchBudget(6, 50_000))
        assert v.is_yes
        assert len(calls) <= 3

    # GL scrambles B = U*A*V with y = -V^T x - B^T r, so the witness (-U,
    # -V^-1) satisfies both conditions while the search's first witness
    # usually fails (2) and the coset sweep runs.  Seed 19 is found in the
    # pairwise-product pass, seed 16 runs out of budget.  The expected
    # outputs pin the sweep's enumeration order and first accepted element,
    # with the sign stage, which settles all seven, left out.
    @pytest.mark.parametrize(
        "seed, max_depth, max_nodes, status, witness, report",
        [
            (11, 6, 20_000, "yes",
             ((-1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
              (-1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)), (263, 2)),
            (17, 6, 20_000, "yes",
             ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1),
              (1, 1, -1, 0, 0, -1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1)), (103, 2)),
            (20, 6, 20_000, "yes",
             ((1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 1, 1),
              (1, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 1, 1)), (614, 4)),
            (27, 6, 20_000, "yes",
             ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
              (1, 0, 0, 0, 0, 1, -2, -2, 0, 0, 0, -1, 0, 0, -1, -1)), (1009, 2)),
            (45, 6, 20_000, "yes",
             ((1, 0, 0, 0, -1, -1, 0, 0, 1), (1, 2, 0, 0, -1, 0, 0, 0, -1)),
             (460, 3)),
            (19, 2, 20_000, "yes",
             ((1, 0, 0, -1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 0, 1),
              (1, 0, 0, 1, 1, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 0, 1)), (3295, 2)),
            (16, 4, 2_000, "unknown", None, (2000, 3)),
        ],
    )
    def test_stabilizer_sweep_pinned_outputs(
        self, monkeypatch, seed, max_depth, max_nodes, status, witness, report
    ):
        without_sign_stage(monkeypatch)
        verdict = decide_with_unit(*sweep_instance(seed, GL), group=GL,
                                   budget=SearchBudget(max_depth, max_nodes))
        assert verdict.status == status
        got = verdict.witness and tuple(m.entries for m in verdict.witness)
        assert got == witness
        rep = verdict.report
        assert (rep.nodes_expanded, rep.depth_reached) == report

    # The instances above with the sign stage: a sign pair of B settles six
    # of them before the sweep, seed 16 among them, whose sweep runs out of
    # budget.  No sign pair meets (2) at seed 19, so its sweep answers, 3
    # nodes (its 3 sign pairs other than the identity) later.
    @pytest.mark.parametrize(
        "seed, max_depth, max_nodes, witness, report",
        [
            (11, 6, 20_000,
             ((-1, 0, 0, 0, -1, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
              (-1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)), (26, 1)),
            (17, 6, 20_000,
             ((-1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1),
              (-1, 0, 0, 0, 0, -1, 1, 0, 0, 0, -1, 0, 0, 0, 0, -1)), (69, 2)),
            (20, 6, 20_000,
             ((-1, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 1, 1),
              (-1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 1, 1)), (591, 4)),
            (27, 6, 20_000,
             ((1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1),
              (1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, -1, -1)), (38, 1)),
            (45, 6, 20_000,
             ((-1, 0, 0, 0, 1, 1, 0, 0, -1), (-1, 0, 0, 0, -1, 0, 0, 0, 1)),
             (183, 3)),
            (19, 2, 20_000,
             ((1, 0, 0, -1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 0, 1),
              (1, 0, 0, 1, 1, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
               0, 0, 0, 0, 1)), (3298, 2)),
            (16, 4, 2_000,
             ((-1, 0, 0, 1, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1),
              (-1, 0, 0, 0, 0, -1, 1, 0, 0, 0, -1, 0, 0, 0, 0, -1)), (65, 2)),
        ],
    )
    def test_sign_stage_pinned_outputs(self, seed, max_depth, max_nodes, witness, report):
        verdict = decide_with_unit(*sweep_instance(seed, GL), group=GL,
                                   budget=SearchBudget(max_depth, max_nodes))
        assert verdict.is_yes
        assert tuple(m.entries for m in verdict.witness) == witness
        rep = verdict.report
        assert (rep.nodes_expanded, rep.depth_reached) == report

    def test_sign_pair_settles_what_the_sweep_cannot_reach(self, monkeypatch):
        # Seed 16 above: B = U*A*V and y is met by (-U, -V), a word of 2n
        # flips.  The sweep spends the whole budget without it; the sign
        # stage answers yes, re-verified here from scratch.
        a, b, x, y = sweep_instance(16, GL)
        budget = SearchBudget(4, 2_000)
        verdict = decide_with_unit(a, b, x, y, group=GL, budget=budget)
        assert verdict.is_yes and verdict.report.nodes_expanded < budget.max_nodes
        u, v = verdict.witness
        v_inv = invert_unimodular(v)
        assert u * a.matrix * v_inv == b.matrix
        assert group_membership(u, b.shape.row_square(), GL)
        assert group_membership(v, b.shape.col_square(), GL)
        assert solve_matrix(b.matrix.transpose(), v_inv.transpose() * x - y) is not None
        without_sign_stage(monkeypatch)
        swept = decide_with_unit(a, b, x, y, group=GL, budget=budget)
        assert swept.is_unknown and swept.report.nodes_expanded == budget.max_nodes

    def test_report_stays_within_the_node_budget(self):
        # One meter charges the search's nodes, the sign stage and the
        # sweep, so a report never passes max_nodes.
        budget = SearchBudget(6, 200)
        nodes = [
            decide_with_unit(*sweep_instance(seed, group), group=group,
                             budget=budget).report.nodes_expanded
            for seed in range(40) for group in (GL, SL)
        ]
        assert max(nodes) <= budget.max_nodes
        assert budget.max_nodes in nodes  # some instances run out of budget

    def test_meter_stops_at_max_nodes_in_each_stage(self, monkeypatch):
        # Seed 19 at depth 2: the search's yes costs 98 nodes and fails (2),
        # and no sign pair of B meets (2), so the sign stage is charged
        # nodes 99-101 and the sweep, which has no yes this early, node 102
        # on.  The meter stops at exactly max_nodes in either stage: it
        # solves (2) for V1 and each sign pair it charged, and draws from
        # the sweep only the nodes it charged and the one it refused.
        import blockeq.equiv as equiv

        a, b, x, y = sweep_instance(19, GL)
        solves = count_calls(monkeypatch, solve_matrix)
        drawn = []
        sweep = equiv._Engine.stabilizer_sweep

        def spy(engine, b):
            for item in sweep(engine, b):
                drawn.append(item)
                yield item

        monkeypatch.setattr(equiv._Engine, "stabilizer_sweep", spy)
        for max_nodes in range(98, 140):
            solves.clear()
            drawn.clear()
            verdict = decide_with_unit(a, b, x, y, group=GL,
                                       budget=SearchBudget(2, max_nodes))
            assert verdict.is_unknown
            assert verdict.report == BudgetReport(max_nodes, 2)
            assert len(drawn) == max(0, max_nodes - 100)
            if max_nodes <= 101:
                assert len(solves) == max_nodes - 97

    def test_condition_two_is_solved_once_per_distinct_v_inverse(self, monkeypatch):
        # Seed 58 under SL: the search's V1 fails (2), and the sign stage
        # and the whole sweep offer pairs whose V^-1 = V1^-1*W repeat.
        # Condition (2) reads only V^-1, so it is solved once for each
        # distinct one, not once per offer.
        import blockeq.equiv as equiv

        a, b, x, y = sweep_instance(58, SL)
        budget = SearchBudget(4, 3_000)
        engine = _Engine(b.shape, SL, budget)
        _, v1_inv = equiv._search(engine, a, b, SIDE_UAV_INV)
        ws = [d_v for _, d_v in _sign_pairs(engine, b.matrix, b.matrix)]
        offered, _, cut = recorded_sweep(equiv._Engine.stabilizer_sweep, engine, b.matrix)
        ws += [IntMatrix(b.matrix.cols, b.matrix.cols, w) for _, w, _ in offered]
        distinct = {v1_inv * w for w in ws}
        assert not cut and len(ws) > len(distinct)
        solves = count_calls(monkeypatch, solve_matrix)
        verdict = decide_with_unit(a, b, x, y, group=SL, budget=budget)
        assert verdict.is_unknown and verdict.report.nodes_expanded < budget.max_nodes
        assert len(solves) <= len(distinct)

    def test_rectangular_constructed_instances(self):
        # Build instances whose answer is yes by construction:
        # B = U A V^-1 and y = (V^-1)^T x - B^T r.
        poset = Poset(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)])
        shape = BlockShape(poset, (1, 0, 1, 0, 1), (1, 1, 0, 1, 1))
        rng = random.Random(264)
        for _ in range(6):
            a = rand_blocked(rng, shape, -2, 2)
            u, v, moved = scramble(rng, a, GL, 4)
            b = BlockedMatrix(shape, u * a.matrix * invert_unimodular(v))
            x = IntMatrix.column([rng.randint(-2, 2) for _ in range(4)])
            r = IntMatrix.column([rng.randint(-1, 1) for _ in range(3)])
            y = invert_unimodular(v).transpose() * x - b.matrix.transpose() * r
            verdict = decide_with_unit(a, b, x, y, group=GL,
                                       budget=SearchBudget(8, 100_000))
            assert verdict.is_yes
            wu, wv = verdict.witness
            assert wu * a.matrix * invert_unimodular(wv) == b.matrix
            diff = invert_unimodular(wv).transpose() * x - y
            assert solve_matrix(b.matrix.transpose(), diff) is not None


def tuple_move(axis, move, entries, rows, cols):
    """A move applied to a row-major entry tuple: a left move multiplies on
    the left, a right move on the right."""
    from blockeq import _kernels
    from blockeq.equiv import _LEFT

    kind, a, b, sign = move
    if axis == _LEFT:
        if kind == "t":
            return _kernels.row_add(entries, rows, cols, a, b, sign)
        return _kernels.row_negate(entries, rows, cols, a)
    if kind == "t":
        return _kernels.col_add(entries, rows, cols, a, b, sign)
    return _kernels.col_negate(entries, rows, cols, b)


class TupleSide:
    """A search side whose states are entry tuples, with the engine's record
    layout: record i is states[i], reached from parents[i] by moves[i] at
    depths[i]."""

    def __init__(self, root):
        self.states, self.moves, self.parents, self.depths = [root], [-1], [-1], [0]
        self.visited = {root: 0}
        self.depth = 0
        self.frontier = [0]

    def add(self, child, move_idx, parent):
        rec = len(self.states)
        self.states.append(child)
        self.moves.append(move_idx)
        self.parents.append(parent)
        self.depths.append(self.depths[parent] + 1)
        self.visited[child] = rec
        return rec


def tuple_search(engine, a, b):
    """The engine's search on entry-tuple states, building every child: the
    same (witnesses, report) as the packed search."""
    from blockeq.equiv import BudgetReport

    rows, cols, max_nodes = engine.rows, engine.cols, engine.budget.max_nodes
    if max_nodes < 2:  # no room for both roots
        return [], BudgetReport(max_nodes, 0)
    fwd, bwd = TupleSide(a.entries), TupleSide(b.entries)

    def expand(side, other, moves, count):
        joins, new_frontier = [], []
        for idx in side.frontier:
            entries = side.states[idx]
            for move_idx, (axis, move) in enumerate(moves):
                child = tuple_move(axis, move, entries, rows, cols)
                if child in side.visited:
                    continue
                if count + 1 > max_nodes:
                    return joins, count, True
                rec = side.add(child, move_idx, idx)
                new_frontier.append(rec)
                count += 1
                if child in other.visited:
                    joins.append((rec, other.visited[child]))
        side.frontier = new_frontier
        side.depth += 1
        return joins, count, False

    nodes, truncated = 2, False
    joins = [(0, 0)] if a.entries == b.entries else []
    while not joins and not truncated:
        if fwd.depth + bwd.depth >= engine.budget.max_depth:
            break
        if not fwd.frontier and not bwd.frontier:
            break
        if fwd.frontier and (not bwd.frontier or len(fwd.frontier) <= len(bwd.frontier)):
            level_joins, nodes, truncated = expand(fwd, bwd, engine.moves, nodes)
            joins = level_joins
        else:
            level_joins, nodes, truncated = expand(bwd, fwd, engine.inverse_moves, nodes)
            joins = [(f, b_) for b_, f in level_joins]
    report = BudgetReport(nodes, fwd.depth + bwd.depth)
    if not joins:
        return [], report
    depth_of = lambda pair: fwd.depths[pair[0]] + bwd.depths[pair[1]]
    best = min(map(depth_of, joins))
    out = [engine._witness(fwd, bwd, f, b_) for f, b_ in joins if depth_of((f, b_)) == best]
    out.sort(key=lambda word: word[:2])
    return out, report


def reference_sweep(engine, b):
    """The stabilizer sweep without the known-children rule: every child is
    built by a move on entry tuples and looked up, and every non-tree edge is
    harvested.  It yields what the engine's sweep yields."""
    from blockeq import _kernels
    from blockeq.equiv import _chain_moves

    rows, cols = engine.rows, engine.cols
    mat_mul = _kernels.mat_mul
    side = TupleSide(b.entries)
    root = engine._replay(())
    seen = {root[:2]}
    sigmas = []
    level = 0
    words = {0: root}

    def word(idx):
        if idx not in words:
            words[idx] = engine._replay(_chain_moves(side, idx))
        return words[idx]

    def element(u2, w2, w2_inv):
        return (IntMatrix(rows, rows, u2), IntMatrix(cols, cols, w2),
                IntMatrix(cols, cols, w2_inv))

    yield level, None
    while side.frontier and level < engine.budget.max_depth:
        new_frontier = []
        level += 1
        for idx in side.frontier:
            entries = side.states[idx]
            for move_idx, (axis, move) in enumerate(engine.moves):
                child = tuple_move(axis, move, entries, rows, cols)
                hit = side.visited.get(child)
                if hit is None:
                    new_frontier.append(side.add(child, move_idx, idx))
                    yield level, None
                    continue
                gu, gw, _, gw_inv = engine._step(word(idx), move_idx)
                _, wy, uy_inv, wy_inv = word(hit)
                sig = (mat_mul(rows, rows, uy_inv, rows, gu),
                       mat_mul(cols, cols, gw, cols, wy_inv))
                if sig in seen:
                    yield level, None
                    continue
                seen.add(sig)
                sigmas.append((*sig, mat_mul(cols, cols, wy, cols, gw_inv)))
                yield level, element(*sigmas[-1])
        side.frontier = new_frontier

    for u1, w1, w1_inv in sigmas:
        for u2, w2, w2_inv in sigmas:
            sig = (mat_mul(rows, rows, u1, rows, u2),
                   mat_mul(cols, cols, w2, cols, w1))
            if sig in seen:
                yield level, None
                continue
            seen.add(sig)
            yield level, element(*sig, mat_mul(cols, cols, w1_inv, cols, w2_inv))


def sweep_instance(seed, group):
    """A decide_with_unit instance as in the pinned sweep outputs: B = U*A*V
    with y = -V^T x - B^T r, whose first search witness usually fails the
    unit condition, so the stabilizer sweep runs."""
    rng = random.Random(seed)
    shape = rand_square_shape(rng, max_poset=3, max_block=2)
    a = rand_blocked(rng, shape, -2, 2)
    _, v, b = scramble(rng, a, group, 4)
    n = shape.total_cols
    x = IntMatrix.column([rng.randint(-2, 2) for _ in range(n)])
    r = IntMatrix.column([rng.randint(-1, 1) for _ in range(n)])
    y = IntMatrix.zero(n, 1) - v.transpose() * x - b.matrix.transpose() * r
    return a, b, x, y


def recorded_sweep(sweep, engine, b):
    """Meter a sweep to the engine's max_nodes as decide_with_unit does,
    accepting no element; returns every offered element's entries in order,
    the report and whether the budget cut the sweep short."""
    from blockeq.equiv import BudgetReport

    offered = []
    nodes = depth = 0
    for level, element in sweep(engine, b):
        depth = max(depth, level)
        if nodes >= engine.budget.max_nodes:
            return offered, BudgetReport(nodes, depth), True
        nodes += 1
        if element is not None:
            offered.append(tuple(m.entries for m in element))
    return offered, BudgetReport(nodes, depth), False


class TestNodeBudget:
    """No report passes max_nodes: the search needs a node for each root,
    and decide_with_unit and flow-eq charge one meter."""

    CHAIN = BlockShape.square(chain_poset(2), (1, 1))
    A = BlockedMatrix(CHAIN, IntMatrix.from_rows([[5, 1], [0, 5]]))
    B = BlockedMatrix(CHAIN, IntMatrix.from_rows([[5, 4], [0, 5]]))
    # Two alignments; the second is searched on what the first left.
    FLOW_A = SftMatrix.from_rows([[6, 4, 0, 0], [0, 6, 0, 0], [0, 0, 6, 1], [0, 0, 0, 6]])
    FLOW_B = SftMatrix.from_rows([[6, 1, 0, 0], [0, 6, 0, 0], [0, 0, 6, 4], [0, 0, 0, 6]])

    def test_search_without_room_for_both_roots(self):
        # Each of the two roots costs a node, so one node answers nothing,
        # not even for a = b.
        budget = SearchBudget(8, 1)
        for b in (self.A, self.B):
            verdict = decide_blocked_equivalence(self.A, b, group=SL, budget=budget)
            assert verdict.is_unknown and verdict.report == BudgetReport(1, 0)
        assert decide_blocked_equivalence(self.A, self.A, group=SL,
                                          budget=SearchBudget(8, 2)).is_yes

    @pytest.mark.parametrize("depth, max_nodes", [(1, 7), (2, 11), (4, 27)])
    def test_flow_alignment_left_one_node(self, depth, max_nodes):
        # The first alignment's search ends unknown one node short of the
        # budget.  The second alignment's roots are equal, but one node left
        # has no room for both, so the verdict is unknown at max_nodes; one
        # node more makes it yes.
        verdict = decide_flow_equivalence(self.FLOW_A, self.FLOW_B,
                                          SearchBudget(depth, max_nodes))
        assert verdict.is_unknown
        assert verdict.report == BudgetReport(max_nodes, depth)
        verdict = decide_flow_equivalence(self.FLOW_A, self.FLOW_B,
                                          SearchBudget(depth, max_nodes + 1))
        assert verdict.is_yes and verdict.report.nodes_expanded == max_nodes + 1

    def test_no_report_passes_max_nodes(self):
        sweep_a = BlockedMatrix(BlockShape.square(Poset(1), (2,)),
                                IntMatrix.from_rows([[2, 0], [0, 0]]))
        x, y = IntMatrix.column([1, 1]), IntMatrix.column([0, 1])
        for max_nodes in range(1, 41):
            for depth in (1, 2, 4, 8):
                budget = SearchBudget(depth, max_nodes)
                verdicts = [
                    decide_blocked_equivalence(self.A, self.A, group=SL, budget=budget),
                    decide_blocked_equivalence(self.A, self.B, group=SL, budget=budget),
                    decide_with_unit(self.A, self.A, x, y, group=SL, budget=budget),
                    decide_with_unit(self.A, self.B, y, x, group=GL, budget=budget),
                    decide_with_unit(sweep_a, sweep_a, x, y, group=SL, budget=budget),
                    decide_flow_equivalence(self.FLOW_A, self.FLOW_B, budget),
                ]
                for verdict in verdicts:
                    assert verdict.report.nodes_expanded <= max_nodes, (budget, verdict)


class TestStabilizerSweepKnownChildren:
    # Budgets alternate between ample and tight, so some sweeps are cut off
    # inside a level and some inside the pairwise-product pass.
    BUDGETS = (SearchBudget(4, 3_000), SearchBudget(6, 600), SearchBudget(3, 150))

    def test_outputs_match_full_rebuild(self, monkeypatch):
        import blockeq.equiv as equiv

        # The sign stage would settle most instances before the sweep.
        without_sign_stage(monkeypatch)
        swept = []
        truncated = []
        fast = equiv._Engine.stabilizer_sweep

        def spy(sweep):
            def run(engine, b):
                yielded = []
                swept.append(yielded)
                for level, element in sweep(engine, b):
                    yielded.append((level, element and [m.entries for m in element]))
                    yield level, element
            return run

        for seed in range(150):
            for group in (GL, SL):
                a, b, x, y = sweep_instance(seed, group)
                budget = self.BUDGETS[seed % len(self.BUDGETS)]
                sweeps_before = len(swept)
                got = []
                for sweep in (fast, reference_sweep):
                    monkeypatch.setattr(equiv._Engine, "stabilizer_sweep", spy(sweep))
                    got.append(decide_with_unit(a, b, x, y, group=group, budget=budget))
                fast_v, ref_v = got
                if len(swept) > sweeps_before:
                    truncated.append(fast_v.is_unknown
                                     and fast_v.report.nodes_expanded == budget.max_nodes)
                assert fast_v.status == ref_v.status, (seed, group)
                assert fast_v.report == ref_v.report, (seed, group)
                assert (fast_v.witness and [m.entries for m in fast_v.witness]) == (
                    ref_v.witness and [m.entries for m in ref_v.witness]
                ), (seed, group)
                assert fast_v.certificate == ref_v.certificate
        # Every sweep ran once through each implementation, with the same
        # yields up to where decide_with_unit stopped it.
        assert swept[::2] == swept[1::2] and 2 * len(truncated) == len(swept)
        assert len(swept) >= 2 * 40
        assert any(truncated) and not all(truncated)

    @pytest.mark.parametrize("seed, group", [(16, GL), (27, GL), (20, SL), (5, SL)])
    def test_offers_every_element_in_the_same_order(self, seed, group):
        import blockeq.equiv as equiv

        _, b, _, _ = sweep_instance(seed, group)
        for budget in (SearchBudget(4, 3_000), SearchBudget(3, 700)):
            engine = equiv._Engine(b.shape, group, budget)
            fast = recorded_sweep(equiv._Engine.stabilizer_sweep, engine, b.matrix)
            assert fast == recorded_sweep(reference_sweep, engine, b.matrix)
            assert fast[0]

    def test_sweep_reads_no_node_budget(self):
        # The walk is bounded by max_depth only; its caller meters the nodes.
        _, b, _, _ = sweep_instance(16, GL)
        runs = [
            list(islice(_Engine(b.shape, GL, SearchBudget(4, max_nodes))
                        .stabilizer_sweep(b.matrix), 500))
            for max_nodes in (1, 10**6)
        ]
        assert len(runs[0]) == 500 and runs[0] == runs[1]
        assert any(element is not None for _, element in runs[0])

    def test_identity_harvests_multiply_nothing(self, monkeypatch):
        # Harvests along X = m1(P) --m1^-1--> P and around commuting squares
        # are the identity pair, which the reference multiplies out only to
        # find it already seen.
        import blockeq._kernels as kernels
        import blockeq.equiv as equiv

        _, b, _, _ = sweep_instance(16, GL)
        engine = equiv._Engine(b.shape, GL, SearchBudget(4, 3_000))
        counts = []
        for sweep in (equiv._Engine.stabilizer_sweep, reference_sweep):
            calls = count_calls(monkeypatch, kernels.mat_mul)
            recorded_sweep(sweep, engine, b.matrix)
            counts.append(len(calls))
            monkeypatch.undo()
        fast, reference = counts
        assert 0 < fast < reference

    def test_replay_builds_no_identity_matrix(self, monkeypatch):
        import blockeq.equiv as equiv

        shape = BlockShape.square(chain_poset(2), (2, 1))
        engine = equiv._Engine(shape, SL, SearchBudget(4, 2_000))
        calls = count_calls(monkeypatch, IntMatrix.identity, IntMatrix)
        assert engine._replay(()) == (IntMatrix.identity(3).entries,) * 4
        calls.clear()
        a = IntMatrix.from_rows([[2, 1, 0], [0, 3, 1], [0, 0, 5]])
        b = IntMatrix.from_rows([[2, 3, 1], [0, 3, 1], [0, 0, 5]])
        witnesses, _ = engine.search(a, b)
        assert witnesses
        for chain in ([0], [1, 2, 0], list(range(len(engine.moves)))):
            engine._replay(chain)
        assert recorded_sweep(equiv._Engine.stabilizer_sweep, engine, b)[0]
        assert calls == []


def saturation_basis(at: IntMatrix) -> IntMatrix:
    """Basis of im_Q(A^T) intersected with Z^n, from the left Smith
    transform."""
    dec = smith_normal_form(at)
    r = dec.rank
    u_inv = invert_unimodular(dec.U)
    return u_inv.submatrix(range(at.rows), range(r))


def common_denominator(at: IntMatrix) -> int:
    """The l with l * (im_Q(A^T) cap Z^n) inside im_Z(A^T): write each
    saturation basis vector as A^T c with rational c and take the lcm of
    denominators."""
    sat = saturation_basis(at)
    dec = smith_normal_form(at)
    diag = dec.diagonal()
    denom = 1
    for j in range(sat.cols):
        b = sat.submatrix(range(at.rows), [j])
        c = dec.U * b
        for i, d in enumerate(diag):
            if d != 0:
                q = Fraction(c[i, 0], d)
                denom = lcm(denom, q.denominator)
    return denom


class TestLemmaSevenMachinery:
    def test_common_denominator_bound(self):
        rng = random.Random(32)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            a = IntMatrix(m, n, [rng.randint(-2, 2) for _ in range(m * n)])
            at = a.transpose()
            ell = common_denominator(at)
            sat = saturation_basis(at)
            solver = make_solver(at)
            for j in range(sat.cols):
                scaled = IntMatrix.column(
                    [ell * sat[i, j] for i in range(at.rows)]
                )
                assert solver(scaled) is not None
