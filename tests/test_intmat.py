"""Exact linear algebra: normal forms, cokernels, solvability, annihilators."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockeq import (
    SIDE_UAV,
    SIDE_UAV_INV,
    SL,
    BlockShape,
    BlockedMatrix,
    DimensionError,
    FgAbelianGroup,
    IntMatrix,
    cokernel,
    decide_blocked_equivalence,
    determinant,
    image_annihilator,
    invariant_profile,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from blockeq.intmat import (
    in_rational_image,
    invert_unimodular,
    rank,
    smith_diagonal,
    solve_matrix,
)
from blockeq.poset_block import chain_poset
from blockeq.quiver import PresentedGroup
from blockeq.sft import SftMatrix, bowen_franks

from helpers import count_calls, rand_matrix


def assert_snf_valid(a):
    dec = smith_normal_form(a)
    assert dec.U * a * dec.V == dec.S
    assert determinant(dec.U) in (1, -1)
    assert determinant(dec.V) in (1, -1)
    diag = dec.diagonal()
    for d in diag:
        assert d >= 0
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j:
                assert dec.S[i, j] == 0
    return dec


class TestSmithNormalForm:
    def test_identity(self):
        dec = smith_normal_form(IntMatrix.identity(2))
        assert dec.S == IntMatrix.identity(2)
        assert dec.U == IntMatrix.identity(2)
        assert dec.V == IntMatrix.identity(2)

    def test_diag_2_3(self):
        # Exhaustive elementary reduction by hand gives diag(1, 6).
        dec = assert_snf_valid(IntMatrix.diagonal([2, 3]))
        assert dec.diagonal() == (1, 6)

    def test_zero_1x1(self):
        dec = smith_normal_form(IntMatrix.from_rows([[0]]))
        assert dec.S == IntMatrix.from_rows([[0]])
        assert dec.U == IntMatrix.from_rows([[1]])
        assert dec.V == IntMatrix.from_rows([[1]])

    def test_empty_matrices(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            dec = assert_snf_valid(IntMatrix.zero(rows, cols))
            assert dec.S.rows == rows and dec.S.cols == cols

    def test_deterministic(self):
        rng = random.Random(11)
        a = rand_matrix(rng, 4, 5, -9, 9)
        d1 = smith_normal_form(a)
        d2 = smith_normal_form(a)
        assert (d1.U, d1.S, d1.V) == (d2.U, d2.S, d2.V)

    def test_random_rectangular(self):
        rng = random.Random(5)
        for _ in range(60):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            a = rand_matrix(rng, rows, cols, -9, 9)
            assert smith_diagonal(a) == assert_snf_valid(a).diagonal()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_property_random(self, rows, cols, data):
        entries = data.draw(
            st.lists(
                st.integers(-30, 30), min_size=rows * cols, max_size=rows * cols
            )
        )
        a = IntMatrix(rows, cols, entries)
        assert smith_diagonal(a) == assert_snf_valid(a).diagonal()

    def test_property_seeded_shapes(self):
        # Every shape from 0x0 to 7x7, full rank, low rank (products of
        # thinner factors), sparse and wide-entried, against the diagonal
        # of the transform-free elimination.
        rng = random.Random(13)
        for _ in range(800):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            kind = rng.randrange(4)
            if kind == 0:
                a = rand_matrix(rng, rows, cols, -9, 9)
            elif kind == 1:
                inner = rng.randint(0, 3)
                a = rand_matrix(rng, rows, inner, -4, 4) * rand_matrix(rng, inner, cols, -4, 4)
            elif kind == 2:
                ent = [rng.choice((0, 0, 0, 1, -2, 6)) for _ in range(rows * cols)]
                a = IntMatrix(rows, cols, ent)
            else:
                a = rand_matrix(rng, rows, cols, -1000, 1000)
            assert smith_diagonal(a) == assert_snf_valid(a).diagonal()

    def test_transforms_stay_small(self):
        # Without the Hermite row phase the transforms of this matrix reach
        # tens of thousands of digits and take minutes to verify.
        a = rand_matrix(random.Random(1), 40, 40, -9, 9)
        start = time.perf_counter()
        dec = assert_snf_valid(a)
        assert time.perf_counter() - start < 5
        assert max(abs(e) for m in (dec.U, dec.V) for e in m.entries) < 10**200


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntMatrix.identity(3)) == 1

    def test_cofactor_2x2(self):
        assert determinant(IntMatrix.from_rows([[0, -1], [-1, 1]])) == -1

    def test_1x1(self):
        assert determinant(IntMatrix.from_rows([[2]])) == 2

    def test_empty(self):
        assert determinant(IntMatrix(0, 0, ())) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(IntMatrix.zero(2, 3))

    def test_matches_snf_magnitude(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n, -6, 6)
            dec = smith_normal_form(a)
            mag = 1
            for d in dec.diagonal():
                mag *= d
            assert abs(determinant(a)) == mag


class TestCokernel:
    def test_identity_trivial(self):
        g = cokernel(IntMatrix.identity(2))
        assert g.is_trivial

    def test_diag_2_3(self):
        g = cokernel(IntMatrix.diagonal([2, 3]))
        assert g.iso_class() == (0, (6,))

    def test_zero_map(self):
        g = cokernel(IntMatrix.from_rows([[0]]))
        assert g.iso_class() == (1, ())

    def test_presentation_retained(self):
        a = IntMatrix.diagonal([2, 3])
        assert cokernel(a).presentation == a

    def test_group_invariants(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbelianGroup(-1)
        g = FgAbelianGroup(0, (2, 4))
        assert g.order() == 8
        assert FgAbelianGroup(1).order() is None

    def test_equality_is_iso_class(self):
        g1 = cokernel(IntMatrix.diagonal([2, 3]))
        g2 = cokernel(IntMatrix.from_rows([[6]]))
        assert g1 == g2

    def test_invariants_carry_no_transforms(self, monkeypatch):
        # Cokernels and ranks read only the Smith diagonal, so neither they
        # nor the invariants built from them run the transform-carrying form
        # (13 calls when cokernel ran the full Smith normal form).
        calls = count_calls(monkeypatch, smith_normal_form)
        rng = random.Random(12)
        a = rand_matrix(rng, 4, 5, -9, 9)
        assert cokernel(a).free_rank == 4 - rank(a)
        assert bowen_franks(SftMatrix.from_rows([[1, 1], [1, 0]])).is_trivial
        shape = BlockShape.square(chain_poset(3), (1, 2, 1))
        rows = [[rng.randint(-3, 3) if c >= r else 0 for c in range(4)] for r in range(4)]
        invariant_profile(BlockedMatrix(shape, IntMatrix.from_rows(rows)), SL)
        assert calls == []

    def test_large_torsion_matches_determinant(self):
        # A 30x30 matrix with entries in [-9, 9]: the transforms of its full
        # Smith normal form reach thousands of digits, the diagonal does not.
        rng = random.Random(30)
        a = rand_matrix(rng, 30, 30, -9, 9)
        g = cokernel(a)
        assert g.free_rank == 0
        assert g.order() == abs(determinant(a))


class TestSolveInteger:
    def test_identity_system(self):
        z = solve_integer(IntMatrix.identity(2), IntMatrix.column([3, 5]))
        assert z == IntMatrix.column([3, 5])

    def test_parity_obstruction(self):
        assert solve_integer(IntMatrix.from_rows([[2]]), IntMatrix.column([3])) is None

    def test_divisible(self):
        z = solve_integer(IntMatrix.from_rows([[2]]), IntMatrix.column([4]))
        assert z == IntMatrix.column([2])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_integer(IntMatrix.identity(2), IntMatrix.column([1]))

    def test_solutions_verified(self):
        rng = random.Random(7)
        solvable = unsolvable = 0
        for _ in range(120):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -4, 4)
            b = rand_matrix(rng, a.rows, 1, -6, 6)
            z = solve_integer(a, b)
            if z is None:
                unsolvable += 1
                # The SNF-transformed system must carry an obstruction.
                dec = smith_normal_form(a)
                c = dec.U * b
                bad = False
                diag = dec.diagonal()
                for i in range(a.rows):
                    if i < len(diag) and diag[i] != 0:
                        bad = bad or (c[i, 0] % diag[i] != 0)
                    else:
                        bad = bad or (c[i, 0] != 0)
                assert bad
            else:
                solvable += 1
                assert a * z == b
        assert solvable and unsolvable

    def test_matrix_rhs(self):
        a = IntMatrix.diagonal([2, 3])
        b = IntMatrix.from_rows([[4, 2], [9, 3]])
        x = solve_matrix(a, b)
        assert a * x == b


class TestKernelBasis:
    def test_injective(self):
        assert kernel_basis(IntMatrix.identity(2)).cols == 0

    def test_rank_one(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 1]]))
        assert k.cols == 1
        col = k.column_values(0)
        assert col in ((1, -1), (-1, 1))

    def test_zero_map(self):
        k = kernel_basis(IntMatrix.zero(2, 2))
        assert k.cols == 2
        assert abs(determinant(k)) == 1

    def test_saturated(self):
        # Kernel lattice bases must be primitive: solving K z = v succeeds
        # for any integer kernel vector v.
        rng = random.Random(8)
        for _ in range(30):
            a = rand_matrix(rng, 2, 4, -3, 3)
            k = kernel_basis(a)
            assert (a * k).is_zero()
            z = rand_matrix(rng, k.cols, 1, -3, 3)
            v = k * z
            assert solve_matrix(k, v) is not None


class TestImageAnnihilator:
    def test_full_image(self):
        ann = image_annihilator(IntMatrix.identity(2))
        assert ann.matrix.rows == 0

    def test_span_e1(self):
        ann = image_annihilator(IntMatrix.from_rows([[1], [0]]))
        assert ann.matrix.rows == 1
        m = ann.matrix
        assert m[0, 0] == 0 and m[0, 1] != 0

    def test_zero_image(self):
        ann = image_annihilator(IntMatrix.zero(2, 2))
        assert ann.matrix.rows == 2
        assert rank(IntMatrix(2, 2, [int(e) for e in ann.matrix.entries])) == 2

    def test_annihilates_and_detects(self):
        rng = random.Random(9)
        inside = outside = 0
        for _ in range(100):
            c = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3)
            ann = image_annihilator(c)
            assert (ann.matrix * c).is_zero()
            assert ann.matrix.rows == c.rows - rank(c)
            x = rand_matrix(rng, c.rows, 1, -5, 5)
            # Rational solvability of C w = x must agree with M x = 0.
            dec = smith_normal_form(c)
            cx = dec.U * x
            diag = dec.diagonal()
            solvable = all(
                cx[i, 0] == 0
                for i in range(c.rows)
                if i >= len(diag) or diag[i] == 0
            )
            assert in_rational_image(ann, x) == solvable
            if solvable:
                inside += 1
            else:
                outside += 1
        assert inside and outside

    def test_integral_rows_of_left_transform(self):
        # The annihilator is the IntMatrix of rows rank.. of the left Smith
        # transform, with its column count kept when it has no rows.
        rng = random.Random(13)
        for _ in range(60):
            c = rand_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), -3, 3)
            dec = smith_normal_form(c)
            ann = image_annihilator(c)
            assert isinstance(ann.matrix, IntMatrix)
            assert ann.matrix == IntMatrix(
                c.rows - dec.rank,
                c.rows,
                [e for i in range(dec.rank, c.rows) for e in dec.U.row(i)],
            )
            assert ann.source_cols == c.cols


class TestFromBlocks:
    def test_places_blocks_and_zero_fills(self):
        m = IntMatrix.from_blocks(
            (1, 2),
            (2, 1),
            {(0, 0): IntMatrix.from_rows([[1, 2]]), (1, 1): IntMatrix.column([3, 4])},
        )
        assert m == IntMatrix.from_rows([[1, 2, 0], [0, 0, 3], [0, 0, 4]])

    def test_zero_size_blocks(self):
        # 0 x c and r x 0 blocks take no room but keep the other sizes.
        m = IntMatrix.from_blocks(
            (0, 2),
            (3, 0),
            {(0, 0): IntMatrix(0, 3, ()), (1, 1): IntMatrix(2, 0, ()),
             (1, 0): IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])},
        )
        assert m == IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert IntMatrix.from_blocks((0,), (3,), {}) == IntMatrix(0, 3, ())
        assert IntMatrix.from_blocks((2,), (0,), {}) == IntMatrix(2, 0, ())
        assert IntMatrix.from_blocks((), (), {}) == IntMatrix(0, 0, ())

    def test_wrong_size(self):
        with pytest.raises(DimensionError, match=r"block \(1,0\) has wrong size"):
            IntMatrix.from_blocks((1, 2), (2,), {(1, 0): IntMatrix.zero(1, 2)})
        with pytest.raises(DimensionError):
            IntMatrix.from_blocks((1,), (0,), {(0, 0): IntMatrix.zero(1, 1)})


class TestLatticeHelpers:
    def test_invert_unimodular(self):
        u = IntMatrix.from_rows([[1, 3], [0, 1]])
        assert invert_unimodular(u) == IntMatrix.from_rows([[1, -3], [0, 1]])
        with pytest.raises(ValueError):
            invert_unimodular(IntMatrix.diagonal([2, 1]))

    def test_invert_unimodular_by_rows_alone(self, monkeypatch):
        # The Hermite form of a unit is I and its row transform the inverse:
        # no Smith form is taken, and the inverse is the one V*U gives.
        rng = random.Random(21)
        units = []
        for _ in range(40):
            dec = smith_normal_form(rand_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), -9, 9))
            units += [dec.U, dec.V]
        expected = []
        for u in units:
            dec = smith_normal_form(u)
            expected.append(dec.V * dec.U)
        calls = count_calls(monkeypatch, smith_normal_form)
        assert [invert_unimodular(u) for u in units] == expected
        assert calls == []

    def test_invert_unimodular_rejects_non_units(self):
        for a in (
            IntMatrix.from_rows([[0]]),
            IntMatrix.from_rows([[2, 1], [4, 2]]),
            IntMatrix.from_rows([[2, 1], [1, 2]]),
            IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
        ):
            with pytest.raises(ValueError, match="not a unit"):
                invert_unimodular(a)
        with pytest.raises(DimensionError):
            invert_unimodular(IntMatrix.zero(2, 3))
        assert invert_unimodular(IntMatrix(0, 0, ())) == IntMatrix(0, 0, ())


class TestEntryValidation:
    """Matrices that enter the package are validated entry by entry; the
    ones it computes from validated matrices are built without a scan."""

    @pytest.mark.parametrize("bad", [1.0, "1", True, False])
    def test_rejects_non_integer_entries(self, bad):
        with pytest.raises(TypeError, match="non-integer entry"):
            IntMatrix(1, 1, [bad])
        with pytest.raises(TypeError, match="non-integer entry"):
            IntMatrix.from_rows([[bad, 0], [0, 2]])
        with pytest.raises(TypeError, match="non-integer entry"):
            IntMatrix.diagonal([2, bad])
        with pytest.raises(TypeError, match="non-integer entry"):
            IntMatrix.column([bad])

    def test_rejects_negative_dimensions(self):
        with pytest.raises(DimensionError, match="negative matrix dimension"):
            IntMatrix(-1, 0, ())
        with pytest.raises(DimensionError, match="negative matrix dimension"):
            IntMatrix.zero(2, -1)

    def test_package_producers_return_plain_ints(self):
        rng = random.Random(71)
        made = []

        def keep(m):
            made.append(m)
            return m

        for _ in range(60):
            p, q, r = (rng.randint(0, 4) for _ in range(3))
            a = rand_matrix(rng, p, q, -9, 9)
            b = rand_matrix(rng, p, q, -9, 9)
            c = rand_matrix(rng, q, r, -9, 9)
            keep(a * c)
            keep(a + b)
            keep(a - b)
            keep(-a)
            keep(a.transpose())
            rows = [rng.randrange(p) for _ in range(rng.randint(0, 3))] if p else []
            cols = [rng.randrange(q) for _ in range(rng.randint(0, 3))] if q else []
            keep(a.submatrix(rows, cols))
            keep(a.hstack(b))
            keep(IntMatrix.identity(p))
            keep(IntMatrix.zero(p, q))
            keep(IntMatrix.diagonal([rng.randint(-9, 9) for _ in range(p)]))
            keep(IntMatrix.from_blocks([p, q], [q, r], {(0, 0): a, (1, 1): c}))
            dec = smith_normal_form(a)
            keep(dec.U)
            keep(dec.S)
            keep(dec.V)
            keep(invert_unimodular(dec.U))
            x = solve_matrix(a, keep(a * rand_matrix(rng, q, 2, -9, 9)))
            keep(x)
            if p:
                group = PresentedGroup(p, a)
                keep(group.reduce(rand_matrix(rng, group.normal_gens, 2, -99, 99)))
        shape = BlockShape.square(chain_poset(2), (1, 1))
        for group, side in ((SL, SIDE_UAV), (SL, SIDE_UAV_INV)):
            a = BlockedMatrix(shape, IntMatrix.from_rows([[2, 1], [0, 3]]))
            b = BlockedMatrix(shape, IntMatrix.from_rows([[2, 0], [0, 3]]))
            verdict = decide_blocked_equivalence(a, b, group=group, side=side)
            assert verdict.is_yes
            made.extend(verdict.witness)
        for m in made:
            assert isinstance(m.entries, tuple)
            assert len(m.entries) == m.rows * m.cols
            assert all(type(e) is int for e in m.entries)
            assert m == IntMatrix(m.rows, m.cols, m.entries)
