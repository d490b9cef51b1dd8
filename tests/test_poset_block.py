"""Posets, block shapes, membership, generators, and the corner embedding."""

import random
from itertools import combinations, permutations

import pytest

from blockeq import (
    GL,
    SL,
    UNIT_RESTRICTED,
    BlockShape,
    BlockStructureError,
    BlockedMatrix,
    IntMatrix,
    Poset,
    ShapeError,
    blocked_identity,
    determinant,
    elementary_generators,
    group_membership,
    iota_embed,
    multiply_blocked,
    validate_membership,
)
from blockeq.intmat import DimensionError, invert_unimodular
from blockeq.poset_block import (
    _order_closure, antichain_poset, chain_poset, generator_moves, reachability,
)
from blockeq.sft import SftMatrix, condense

from helpers import BruteOrder, count_calls, rand_blocked, rand_poset, rand_square_shape


def five_element_poset():
    """i <= j iff i = j, i = 1, or (i, j) in {(2,5), (3,4)}."""
    return Poset(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)])


def rect_shape():
    return BlockShape(five_element_poset(), (1, 0, 1, 0, 1), (1, 1, 0, 1, 1))


class TestPoset:
    def test_transitive_closure(self):
        p = Poset(3, [(1, 2), (2, 3)])
        assert p.leq(1, 3)

    def test_antisymmetry_rejected(self):
        with pytest.raises(ValueError, match=r"antisymmetry violated at \(1,2\)"):
            Poset(3, [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(ValueError, match=r"antisymmetry violated at \(2,4\)"):
            Poset(4, [(1, 1), (4, 2), (2, 4), (3, 3)])
        with pytest.raises(ValueError, match=r"pair \(1,5\) out of range 1..4"):
            Poset(4, [(1, 5)])

    def test_reachability(self):
        # Against paths of one or more edges found by brute force, on edge
        # lists with loops, repeats and isolated vertices.
        rng = random.Random(66)
        for t in range(200):
            n = t % 10
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            step = {u: {v for (x, v) in edges if x == u} for u in range(n)}
            reached = [set(step[u]) for u in range(n)]
            for _ in range(n):
                reached = [r | {w for v in r for w in step[v]} for r in reached]
            assert reachability(n, edges) == [sum(1 << v for v in r) for r in reached]

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            Poset(2, [(2, 1)])

    def test_normalized_relabel(self):
        p, relabel = Poset.normalized(2, [(2, 1)])
        assert p.leq(1, 2)
        assert relabel == (2, 1)

    def test_normalized_least_label_first(self):
        # Against a plain scan over a brute-force closure: repeatedly place
        # the least label whose predecessors are all placed.
        rng = random.Random(65)
        for _ in range(300):
            size = rng.randint(0, 9)
            perm = rng.sample(range(1, size + 1), size)
            pairs = [(perm[i], perm[j]) for i in range(size)
                     for j in range(i, size) if rng.random() < 0.3]
            rng.shuffle(pairs)
            below = set(pairs) | {(x, x) for x in range(1, size + 1)}
            for _ in range(size):
                below |= {(a, d) for (a, b) in below for (c, d) in below if b == c}
            order = []
            while len(order) < size:
                order.append(min(
                    x for x in range(1, size + 1) if x not in order
                    and all(p in order for (p, q) in below if q == x and p != x)
                ))
            p, relabel = Poset.normalized(size, pairs)
            assert relabel == tuple(order.index(x) + 1 for x in range(1, size + 1))
            assert p.pairs == {(relabel[a - 1], relabel[b - 1]) for a, b in below}

    def test_normalized_builds_one_closure(self, monkeypatch):
        # The sort reads direct predecessors only; the relabelled poset's
        # own construction is the one closure.
        calls = count_calls(monkeypatch, _order_closure)
        p, relabel = Poset.normalized(4, [(4, 3), (3, 1), (2, 1)])
        assert len(calls) == 1
        assert relabel == (4, 1, 3, 2)
        assert p == Poset(4, [(1, 4), (2, 3), (3, 4)])

    def test_normalized_rejects_like_poset(self):
        with pytest.raises(ValueError, match=r"pair \(0,2\) out of range 1..3"):
            Poset.normalized(3, [(1, 2), (0, 2)])
        # A cycle stalls the sort, and the closure names the pair.
        with pytest.raises(ValueError, match=r"antisymmetry violated at \(2,3\)"):
            Poset.normalized(3, [(1, 2), (3, 2), (2, 3)])
        with pytest.raises(ValueError, match=r"antisymmetry violated at \(1,2\)"):
            Poset.normalized(4, [(4, 3), (3, 4), (2, 1), (1, 2)])
        with pytest.raises(TypeError, match="non-integer poset size"):
            Poset.normalized(2.0, [])

    def test_normalized_stable(self):
        # Already-normalized input keeps the identity labelling.
        p, relabel = Poset.normalized(3, [(1, 3)])
        assert relabel == (1, 2, 3)
        assert p == Poset(3, [(1, 3)])

    def test_convex_subsets_chain(self):
        p = chain_poset(3)
        assert p.convex_subsets() == [
            (1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3),
        ]

        # Against a scan of every subset, order included.
        def scanned(q):
            return [c for k in range(1, q.size + 1)
                    for c in combinations(q.elements(), k) if q.is_convex(c)]

        rng = random.Random(64)
        for _ in range(200):
            q = rand_poset(rng, rng.randint(0, 7))
            assert q.convex_subsets() == scanned(q)
        assert antichain_poset(4).convex_subsets() == scanned(antichain_poset(4))
        assert len(antichain_poset(4).convex_subsets()) == 15
        assert Poset(0).convex_subsets() == []
        # Every nonempty subset of an antichain is convex: 2^6 - 1 of them.
        assert antichain_poset(6).convex_subsets() == scanned(antichain_poset(6))
        assert len(antichain_poset(6).convex_subsets()) == 63
        # The convex subsets of a chain are its 136 intervals.
        assert chain_poset(16).convex_subsets() == [
            tuple(range(i, i + k)) for k in range(1, 17) for i in range(1, 18 - k)
        ]

    def test_downsets_within(self):
        p = chain_poset(2)
        assert p.downsets_within((1, 2)) == [(1,)]
        q = antichain_poset(2)
        assert q.downsets_within((1, 2)) == [(1,), (2,)]

    def test_order_queries_against_definitions(self):
        # Seeded random orders on up to 7 elements, given with shuffled labels
        # and relabelled by Poset.normalized, against BruteOrder on the
        # relabelled generating pairs.
        rng = random.Random(67)
        for t in range(200):
            size = t % 8
            perm = rng.sample(range(1, size + 1), size)
            gen = [(perm[i], perm[j]) for i in range(size)
                   for j in range(i + 1, size) if rng.random() < 0.3]
            p, relabel = Poset.normalized(size, gen)
            ref = BruteOrder(size, [(relabel[i - 1], relabel[j - 1]) for i, j in gen])
            elems = list(ref.elements)
            assert p.pairs == ref.pairs
            assert [p.leq(i, j) for i in elems for j in elems] == [
                ref.leq(i, j) for i in elems for j in elems]
            assert (p.up, p.down) == ((0, *map(ref.up, elems)), (0, *map(ref.down, elems)))
            assert p.convex_subsets() == ref.convex_subsets()
            for k in range(size + 1):
                for c in combinations(elems, k):
                    assert p.is_convex(c) == ref.is_convex(c)
            # downsets_within keeps the order its subset is given in.
            for c in ref.convex_subsets() + [tuple(rng.sample(elems, size))]:
                assert p.downsets_within(c) == ref.downsets_within(c)

    def test_order_isomorphisms(self):
        chain = chain_poset(2)
        anti = antichain_poset(2)
        assert chain.order_isomorphisms(anti) == []
        assert anti.order_isomorphisms(anti) == [(1, 2), (2, 1)]
        assert chain.order_isomorphisms(chain) == [(1, 2)]

    def test_order_isomorphisms_against_permutation_scan(self):
        # Every bijection preserving BruteOrder both ways, in the order
        # permutations lists them, on seeded orders of up to 7 elements of
        # varied density; one pair in three is an order and a relabelled copy.
        rng = random.Random(68)

        def shuffled(size):
            perm = rng.sample(range(1, size + 1), size)
            density = rng.choice((0.05, 0.2, 0.4, 0.7))
            gen = [(perm[i], perm[j]) for i in range(size) for j in range(i + 1, size)
                   if rng.random() < density]
            return Poset.normalized(size, gen)[0]

        for t in range(150):
            size = t % 8
            p = shuffled(size)
            if t % 3:
                q = shuffled(size)
            else:
                perm = rng.sample(range(1, size + 1), size)
                q = Poset.normalized(
                    size, [(perm[i - 1], perm[j - 1]) for i, j in p.strict_pairs()])[0]
            ref_p, ref_q = BruteOrder(size, p.pairs), BruteOrder(size, q.pairs)
            elems = list(ref_p.elements)
            assert p.order_isomorphisms(q) == [
                s for s in permutations(elems)
                if all(ref_p.leq(i, j) == ref_q.leq(s[i - 1], s[j - 1])
                       for i in elems for j in elems)
            ]

    def test_order_isomorphisms_of_a_condensed_graph(self):
        # The condensation of a 20-vertex graph with one out-edge per vertex:
        # 19 components, two automorphisms.  Checking each placement against
        # every earlier one with leq took about 5 s on this poset.
        rng = random.Random(3)
        rows = [[0] * 20 for _ in range(20)]
        for u in range(20):
            rows[u][rng.randrange(20)] += 1
        p = condense(SftMatrix.from_rows(rows)).poset
        assert p.size == 19
        assert p.order_isomorphisms(p) == [tuple(range(1, 20)), (1, 2, 3, 5, 4, *range(6, 20))]

    @pytest.mark.parametrize("size", [True, 2.0, "3"])
    def test_size_must_be_an_int(self, size):
        with pytest.raises(TypeError, match="non-integer poset size"):
            Poset(size)


class TestShape:
    def test_index_sets(self):
        s = rect_shape()
        assert s.I == (1, 3, 5)
        assert s.J == (1, 2, 4, 5)
        assert s.total_rows == 3
        assert s.total_cols == 4

    def test_nontriviality(self):
        with pytest.raises(ShapeError):
            BlockShape(Poset(1), (0,), (1,))

    def test_bad_lengths(self):
        with pytest.raises(ShapeError):
            BlockShape(Poset(2), (1,), (1, 1))

    @pytest.mark.parametrize("rows, cols", [
        ((1.5, 1), (1, 1)), ((2.0, 0), (1, 1)), ((1, 1), (1, True)), ((1, 1), ("1", 1)),
    ])
    def test_sizes_must_be_ints(self, rows, cols):
        with pytest.raises(TypeError, match="non-integer block size"):
            BlockShape(chain_poset(2), rows, cols)

    def test_square_sides(self):
        s = rect_shape()
        assert s.row_square() == BlockShape.square(s.poset, s.row_sizes)
        assert s.col_square() == BlockShape.square(s.poset, s.col_sizes)
        # A square shape is its own row and column side.
        sq = s.col_square()
        assert sq.row_square() is sq and sq.col_square() is sq


class TestMembership:
    def test_paper_rectangular_pattern(self):
        # Stars of the displayed 3x4 rectangular form set to 1.
        shape = rect_shape()
        m = IntMatrix.from_rows(
            [[1, 1, 1, 1],
             [0, 0, 1, 0],
             [0, 0, 0, 1]]
        )
        assert validate_membership(m, shape)

    def test_forbidden_block(self):
        # Block (3, 5) is forbidden: row block 3 (row 1), column block 5
        # (column 3).
        shape = rect_shape()
        m = IntMatrix.from_rows(
            [[1, 1, 1, 1],
             [0, 0, 1, 1],
             [0, 0, 0, 1]]
        )
        assert not validate_membership(m, shape)

    def test_zero_matrix(self):
        shape = rect_shape()
        assert validate_membership(IntMatrix.zero(3, 4), shape)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            validate_membership(IntMatrix.zero(2, 2), rect_shape())

    def test_matches_block_pair_scan(self):
        # Against a scan of every entry of every block (i, j) with i not
        # below j, on seeded shapes with zero-size blocks and sparse
        # entries, some of them in forbidden blocks.
        def pair_scan(m, shape):
            return not any(
                m[r, c]
                for i in shape.poset.elements() for j in shape.poset.elements()
                if not shape.poset.leq(i, j)
                for r in shape.row_range(i) for c in shape.col_range(j)
            )

        rng = random.Random(66)
        verdicts = set()
        for _ in range(400):
            poset = rand_poset(rng, rng.randint(1, 5))
            while True:
                rows = tuple(rng.randint(0, 2) for _ in poset.elements())
                cols = tuple(rng.randint(0, 2) for _ in poset.elements())
                if any(rows) and any(cols):
                    break
            shape = BlockShape(poset, rows, cols)
            m = IntMatrix(shape.total_rows, shape.total_cols, [
                rng.choice((0, 0, 0, 1, -2)) for _ in range(shape.total_rows * shape.total_cols)
            ])
            verdict = validate_membership(m, shape)
            assert verdict == pair_scan(m, shape)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_blocked_constructor_rejects(self):
        shape = BlockShape.square(antichain_poset(2), (1, 1))
        with pytest.raises(BlockStructureError):
            BlockedMatrix(shape, IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_empty_block_accessors(self):
        shape = rect_shape()
        m = BlockedMatrix(shape, IntMatrix.zero(3, 4))
        # Row block 2 is empty (m_2 = 0); column block 3 is empty (n_3 = 0).
        assert m.block(2, 1).rows == 0 and m.block(2, 1).cols == 1
        assert m.block(1, 3).rows == 1 and m.block(1, 3).cols == 0
        assert m.block(2, 3).rows == 0 and m.block(2, 3).cols == 0


class TestGroupMembership:
    def test_identity(self):
        shape = rand_square_shape(random.Random(0))
        ident = IntMatrix.identity(shape.total_rows)
        assert group_membership(ident, shape, SL)
        assert group_membership(ident, shape, GL)

    def test_paper_gl_display(self):
        # The GL form over n = (1,1,0,1,1): +-1 diagonal entries.
        poset = five_element_poset()
        shape = BlockShape(poset, (1, 1, 0, 1, 1), (1, 1, 0, 1, 1))
        m = IntMatrix.from_rows(
            [[-1, 2, 3, 4],
             [0, -1, 0, 5],
             [0, 0, -1, 0],
             [0, 0, 0, -1]]
        )
        assert group_membership(m, shape, GL)
        assert not group_membership(m, shape, SL)

    def test_det_two_block(self):
        shape = BlockShape.square(Poset(1), (2,))
        m = IntMatrix.diagonal([2, 1])
        assert not group_membership(m, shape, GL)
        assert not group_membership(m, shape, SL)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            group_membership(IntMatrix.zero(3, 4), rect_shape(), GL)


class TestBlockedArithmetic:
    def test_restrict_on_a_permutation(self):
        # Elements in any order, as flow-equivalence alignments give them,
        # against entry-by-entry indexing with each block's rows and columns
        # found by summing the sizes before it.
        rng = random.Random(68)
        for _ in range(200):
            size = rng.randint(1, 4)
            m = [rng.randint(0, 2) for _ in range(size)]
            n = [rng.randint(0, 2) for _ in range(size)]
            if not any(m) or not any(n):
                continue
            b = rand_blocked(rng, BlockShape(rand_poset(rng, size), m, n))
            sigma = rng.sample(range(1, size + 1), rng.randint(0, size))
            rows = [r for x in sigma for r in range(sum(m[: x - 1]), sum(m[:x]))]
            cols = [c for x in sigma for c in range(sum(n[: x - 1]), sum(n[:x]))]
            assert (b.shape.rows_of(sigma), b.shape.cols_of(sigma)) == (rows, cols)
            assert b.restrict(sigma) == IntMatrix(
                len(rows), len(cols), [b.matrix[r, c] for r in rows for c in cols]
            )

    def test_multiply_identity(self):
        rng = random.Random(1)
        shape = rand_square_shape(rng)
        m = rand_blocked(rng, shape)
        ident = blocked_identity(shape)
        assert multiply_blocked(m, ident) == m
        assert multiply_blocked(ident, m) == m

    def test_transvection_product(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        a = BlockedMatrix(shape, IntMatrix.from_rows([[1, 3], [0, 1]]))
        b = BlockedMatrix(shape, IntMatrix.from_rows([[1, 4], [0, 1]]))
        assert multiply_blocked(a, b).matrix == IntMatrix.from_rows([[1, 7], [0, 1]])

    def test_multiply_zero(self):
        rng = random.Random(2)
        shape = rand_square_shape(rng)
        m = rand_blocked(rng, shape)
        z = BlockedMatrix(shape, IntMatrix.zero(shape.total_rows, shape.total_cols))
        assert multiply_blocked(m, z).matrix.is_zero()

    def test_from_blocks_one_based(self):
        shape = BlockShape.square(chain_poset(2), (1, 2))
        m = BlockedMatrix.from_blocks(
            shape, {(1, 2): IntMatrix.from_rows([[4, 5]]), (2, 2): IntMatrix.identity(2)}
        )
        assert m.matrix == IntMatrix.from_rows([[0, 4, 5], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(DimensionError, match=r"block \(2,1\) has wrong size"):
            BlockedMatrix.from_blocks(shape, {(2, 1): IntMatrix.zero(1, 1)})

    def test_shape_mismatch(self):
        s1 = BlockShape.square(chain_poset(2), (1, 1))
        s2 = BlockShape.square(chain_poset(2), (2, 1))
        with pytest.raises(ShapeError):
            multiply_blocked(
                blocked_identity(s1), blocked_identity(s2)
            )

    def test_closure_under_unit_action(self):
        rng = random.Random(3)
        for _ in range(25):
            shape = rand_square_shape(rng)
            m = rand_blocked(rng, shape)
            from helpers import scramble

            u, v, out = scramble(rng, m, GL, 4)
            assert validate_membership(out.matrix, shape)

    # The blocked unit groups are closed under inversion: the unimodular
    # inverse of a member is again a member.

    def test_invert_identity(self):
        shape = BlockShape.square(Poset(1), (2,))
        ident = blocked_identity(shape)
        assert invert_unimodular(ident.matrix) == ident.matrix

    def test_invert_transvection(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        inv = invert_unimodular(IntMatrix.from_rows([[1, 3], [0, 1]]))
        assert inv == IntMatrix.from_rows([[1, -3], [0, 1]])
        assert group_membership(inv, shape, SL)

    def test_invert_sign_involution(self):
        shape = BlockShape.square(antichain_poset(2), (1, 1))
        u = IntMatrix.diagonal([-1, 1])
        assert invert_unimodular(u) == u
        assert group_membership(u, shape, GL)

    def test_invert_two_sided_involution(self):
        rng = random.Random(4)
        for _ in range(20):
            shape = rand_square_shape(rng)
            from helpers import scramble

            u, v, _ = scramble(rng, blocked_identity(shape), GL, 5)
            b = u * v
            inv = invert_unimodular(b)
            n = shape.total_rows
            assert b * inv == IntMatrix.identity(n)
            assert inv * b == IntMatrix.identity(n)
            assert group_membership(inv, shape, GL)
            assert invert_unimodular(inv) == b

    def test_invert_rejects_non_unit(self):
        shape = BlockShape.square(Poset(1), (1,))
        two = IntMatrix.from_rows([[2]])
        assert not group_membership(two, shape, GL)
        with pytest.raises(ValueError):
            invert_unimodular(two)


class TestElementaryGenerators:
    def test_single_two_block_sl(self):
        shape = BlockShape.square(Poset(1), (2,))
        gens = elementary_generators(shape, SL)
        mats = {g.matrix for g in gens}
        assert len(gens) == 4
        expected = {
            IntMatrix.from_rows([[1, 1], [0, 1]]),
            IntMatrix.from_rows([[1, -1], [0, 1]]),
            IntMatrix.from_rows([[1, 0], [1, 1]]),
            IntMatrix.from_rows([[1, 0], [-1, 1]]),
        }
        assert mats == expected

    def test_chain_ones_sl(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        gens = elementary_generators(shape, SL)
        assert len(gens) == 2
        assert {g.matrix for g in gens} == {
            IntMatrix.from_rows([[1, 1], [0, 1]]),
            IntMatrix.from_rows([[1, -1], [0, 1]]),
        }

    def test_chain_ones_gl_adds_flips(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        gens = elementary_generators(shape, GL)
        assert len(gens) == 4
        flips = [g.matrix for g in gens if g.matrix != g.matrix.transpose() or True]
        assert IntMatrix.diagonal([-1, 1]) in {g.matrix for g in gens}
        assert IntMatrix.diagonal([1, -1]) in {g.matrix for g in gens}

    def test_generator_determinants(self):
        rng = random.Random(5)
        for _ in range(10):
            shape = rand_square_shape(rng)
            for g in elementary_generators(shape, GL):
                assert determinant(g.matrix) in (1, -1)
            for g in elementary_generators(shape, SL):
                assert determinant(g.matrix) == 1

    def test_membership_of_generators(self):
        shape = BlockShape.square(chain_poset(3), (2, 1, 2))
        for g in elementary_generators(shape, GL):
            assert group_membership(g.matrix, shape, GL)

    def test_unit_restricted_is_gl_with_1x1_blocks_pinned(self):
        # Coordinate 2 is the 1x1 block: the unit-restricted alphabet is
        # GL's, in the same order, without that sign flip.
        shape = BlockShape.square(chain_poset(3), (2, 1, 2))
        gl = generator_moves(shape, GL)
        assert generator_moves(shape, UNIT_RESTRICTED) == [
            mv for mv in gl if mv != ("f", 2, 2, -1)
        ]
        for g in elementary_generators(shape, UNIT_RESTRICTED):
            assert group_membership(g.matrix, shape, UNIT_RESTRICTED)
        flip_1x1 = IntMatrix.diagonal([1, 1, -1, 1, 1])
        flip_2x2 = IntMatrix.diagonal([1, 1, 1, -1, 1])
        assert group_membership(flip_1x1, shape, GL)
        assert not group_membership(flip_1x1, shape, UNIT_RESTRICTED)
        assert group_membership(flip_2x2, shape, UNIT_RESTRICTED)


class TestIotaEmbed:
    def test_same_sizes_identity(self):
        rng = random.Random(6)
        shape = rand_square_shape(rng)
        m = rand_blocked(rng, shape)
        assert iota_embed(m, shape.row_sizes) == m

    def test_single_block(self):
        shape = BlockShape.square(Poset(1), (1,))
        m = BlockedMatrix(shape, IntMatrix.from_rows([[5]]))
        out = iota_embed(m, (2,))
        assert out.matrix == IntMatrix.from_rows([[5, 0], [0, 1]])

    def test_chain_example(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        m = BlockedMatrix(shape, IntMatrix.from_rows([[2, 1], [0, 3]]))
        out = iota_embed(m, (2, 1))
        assert out.matrix == IntMatrix.from_rows(
            [[2, 0, 1], [0, 1, 0], [0, 0, 3]]
        )

    def test_target_too_small(self):
        shape = BlockShape.square(Poset(1), (2,))
        m = blocked_identity(shape)
        with pytest.raises(ShapeError):
            iota_embed(m, (1,))

    def test_rectangular_rejected(self):
        m = BlockedMatrix(rect_shape(), IntMatrix.zero(3, 4))
        with pytest.raises(ShapeError):
            iota_embed(m, (2, 1, 2, 1, 2))

    def test_multiplicative_on_units(self):
        rng = random.Random(7)
        from helpers import scramble

        for _ in range(15):
            shape = rand_square_shape(rng)
            m = rand_blocked(rng, shape)
            u, v, um_v = scramble(rng, m, SL, 4)
            target = tuple(s + rng.randint(0, 2) for s in shape.row_sizes)
            ub = BlockedMatrix(shape, u)
            vb = BlockedMatrix(shape, v)
            lhs = multiply_blocked(
                multiply_blocked(iota_embed(ub, target), iota_embed(m, target)),
                iota_embed(vb, target),
            )
            assert lhs == iota_embed(um_v, target)
