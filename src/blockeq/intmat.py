"""Exact integer linear algebra.

Everything here is computed over Z with arbitrary-precision arithmetic:
Smith normal forms with recorded unimodular transforms, determinants,
cokernels as finitely generated abelian groups, integer linear system
solving with verified witnesses, kernel lattice bases, integral
annihilators of rational images, and decimal text of integers of any size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import prod

from . import _kernels


# Python limits str(int) to sys.get_int_max_str_digits() digits, at least
# 640; values below this size convert directly under any setting, and longer
# ones are split at a power of ten, so no process-wide limit is touched.
_DIRECT_BITS = 2000


def int_to_str(v: int) -> str:
    """Decimal text of v at any size, past the str(int) digit limit."""
    if v.bit_length() <= _DIRECT_BITS:
        return str(v)
    if v < 0:
        return "-" + int_to_str(-v)
    k = v.bit_length() * 3 // 20  # about half the digits (log10 2 > 0.3)
    hi, lo = divmod(v, 10**k)
    return int_to_str(hi) + int_to_str(lo).zfill(k)


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


def _check_entries(entries):
    for e in entries:
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"non-integer entry {e!r}")


class IntMatrix:
    """Dense matrix of arbitrary-precision integers, row-major and immutable.

    Empty matrices (zero rows and/or zero columns) are first-class values;
    they stand in for empty block rows and columns of blocked matrices.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        """Validated construction, for entries from outside the package:
        every entry must be an int and not a bool."""
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimension")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"entry count {len(entries)} != {rows}x{cols}"
            )
        _check_entries(entries)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """A matrix from a tuple of rows*cols Python ints that the package
        computed from validated matrices, so nothing is scanned again."""
        m = object.__new__(cls)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_entries(m, entries)
        return m

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        for row in rows_list:
            if len(row) != cols:
                raise DimensionError("ragged rows")
        return cls(rows, cols, [e for row in rows_list for e in row])

    @classmethod
    def identity(cls, n):
        return cls.diagonal([1] * n)

    @classmethod
    def zero(cls, rows, cols):
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimension")
        return cls._trusted(rows, cols, (0,) * (rows * cols))

    @classmethod
    def column(cls, values):
        values = list(values)
        return cls(len(values), 1, values)

    @classmethod
    def diagonal(cls, values):
        values = list(values)
        _check_entries(values)
        n = len(values)
        ent = [0] * (n * n)
        ent[:: n + 1] = values
        return cls._trusted(n, n, tuple(ent))

    @classmethod
    def from_blocks(cls, row_sizes, col_sizes, blocks):
        """Assemble from a {(i, j): IntMatrix} mapping with 0-based block
        indices; block (i, j) must be row_sizes[i] x col_sizes[j], sizes may
        be zero, and missing blocks are zero."""
        row_offsets = list(accumulate(row_sizes, initial=0))
        col_offsets = list(accumulate(col_sizes, initial=0))
        rows, cols = row_offsets[-1], col_offsets[-1]
        ent = [0] * (rows * cols)
        for (i, j), blk in blocks.items():
            if (blk.rows, blk.cols) != (row_sizes[i], col_sizes[j]):
                raise DimensionError(f"block ({i},{j}) has wrong size")
            for a in range(blk.rows):
                start = (row_offsets[i] + a) * cols + col_offsets[j]
                ent[start : start + blk.cols] = blk.row(a)
        return cls._trusted(rows, cols, tuple(ent))

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def column_values(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def submatrix(self, row_idx, col_idx):
        """Submatrix on the given row/column index sequences (order kept)."""
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        ent, cols = self.entries, self.cols
        return IntMatrix._trusted(
            len(row_idx),
            len(col_idx),
            tuple([ent[i * cols + j] for i in row_idx for j in col_idx]),
        )

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ent = _kernels.mat_mul(self.rows, self.cols, self.entries, other.cols, other.entries)
        return IntMatrix._trusted(self.rows, other.cols, ent)

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix._trusted(
            self.rows, self.cols, tuple([a + b for a, b in zip(self.entries, other.entries)])
        )

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return IntMatrix._trusted(
            self.rows, self.cols, tuple([a - b for a, b in zip(self.entries, other.entries)])
        )

    def __neg__(self):
        return IntMatrix._trusted(self.rows, self.cols, tuple([-a for a in self.entries]))

    def transpose(self):
        ent, rows, cols = self.entries, self.rows, self.cols
        return IntMatrix._trusted(
            cols, rows, tuple([ent[i * cols + j] for j in range(cols) for i in range(rows)])
        )

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionError("row mismatch in hstack")
        a, b, p, q = self.entries, other.entries, self.cols, other.cols
        ent = []
        for i in range(self.rows):
            ent += a[i * p : (i + 1) * p]
            ent += b[i * q : (i + 1) * q]
        return IntMatrix._trusted(self.rows, p + q, tuple(ent))

    def is_zero(self):
        return all(e == 0 for e in self.entries)

    # -- hashing / comparison / display -------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


# The slot setters themselves, which skip the immutability guard.
_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_entries = IntMatrix.entries.__set__


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = S with U, V unimodular and S diagonal with a divisibility chain."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self):
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S[i, i] for i in range(n))

    @property
    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group: Z^free_rank + Z/d1 + ... + Z/dk.

    Invariant factors satisfy 2 <= d1 | d2 | ... | dk.  Equality compares the
    isomorphism class only; the optional presentation (a matrix whose cokernel
    this group is) rides along uncompared.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()
    presentation: IntMatrix | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev != 0:
                raise ValueError(f"broken divisibility chain {self.torsion}")
            prev = d

    def iso_class(self):
        return (self.free_rank, self.torsion)

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        return prod(self.torsion) if self.torsion else 1

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"C{int_to_str(d)}" for d in self.torsion]
        return " x ".join(parts) if parts else "trivial"


@dataclass(frozen=True)
class AnnihilatorMatrix:
    """Integer matrix M with M*C = 0 and ker_Q M = im_Q(C) for the source C."""

    matrix: IntMatrix
    source_cols: int


# ---------------------------------------------------------------------------
# Smith normal form


def _find_pivot(s, m, n, k):
    """Nonzero entry of minimal |value| in s[k:, k:], ties by (i, j)."""
    best = None
    best_abs = None
    for i in range(k, m):
        row = s[i]
        for j in range(k, n):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if best_abs is None or a < best_abs:
                    best = (i, j)
                    best_abs = a
                    if a == 1:
                        return best
    return best


def _with_row_transform(a: IntMatrix):
    """The rows of a, each followed by the matching row of the m x m
    identity, so every row operation on them also builds the row transform."""
    m = a.rows
    return [list(a.row(i)) + [1 if j == i else 0 for j in range(m)] for i in range(m)]


def _hermite_rows(s, m, n):
    """Row-echelon form of the m x n corner of the work rows s[:m], by row
    operations on whole rows, with positive pivots and every entry above a
    pivot reduced into [0, pivot) as soon as that pivot is fixed.

    Each column is cleared below its pivot by Euclid's algorithm on the
    rows that are still free, always dividing by the entry of least
    absolute value.
    """
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            piv, best = None, 0
            for i in range(r, m):
                v = s[i][j]
                if v:
                    av = -v if v < 0 else v
                    if piv is None or av < best:
                        piv, best = i, av
                        if av == 1:
                            break
            if piv is None:
                break
            s[r], s[piv] = s[piv], s[r]
            srr = s[r]
            p = srr[j]
            cleared = True
            for i in range(r + 1, m):
                sri = s[i]
                if sri[j]:
                    q = sri[j] // p
                    for t in range(j, len(sri)):
                        sri[t] -= q * srr[t]
                    if sri[j]:
                        cleared = False
            if cleared:
                break
        if piv is None:
            continue
        if srr[j] < 0:
            s[r] = srr = [-e for e in srr]
        p = srr[j]
        for i in range(r):
            sri = s[i]
            q = sri[j] // p
            if q:
                for t in range(j, len(sri)):
                    sri[t] -= q * srr[t]
        r += 1


def _eliminate(a: IntMatrix, transforms: bool):
    """Smith elimination of a, returning its work rows.

    With transforms, row i of S carries row i of U after its n entries, and
    the n rows of V sit below the m rows of S, so every row operation also
    updates U and every column operation also updates V.  The pivot search
    and the divisibility check read only the first m rows and n columns, so
    the diagonal is the same with or without transforms.

    With transforms, the rows are first brought to Hermite form
    (_hermite_rows), whose entries and row transform stay small, and the
    diagonalization below starts from there; without transforms that phase
    only costs time.
    """
    m, n = a.rows, a.cols
    if transforms:
        s = _with_row_transform(a)
        _hermite_rows(s, m, n)
        s.extend([1 if j == i else 0 for j in range(n)] for i in range(n))
    else:
        s = a.to_rows()

    k = 0
    limit = min(m, n)
    while k < limit:
        piv = _find_pivot(s, m, n, k)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            s[k], s[pi] = s[pi], s[k]
        if pj != k:
            for row in s:
                row[k], row[pj] = row[pj], row[k]

        while True:
            # Clear column k below the pivot; a nonzero remainder becomes the
            # new (strictly smaller) pivot.
            restart = False
            srk = s[k]
            for i in range(k + 1, m):
                if s[i][k]:
                    q = s[i][k] // srk[k]
                    if q:
                        sri = s[i]
                        for j in range(k, len(sri)):
                            sri[j] -= q * srk[j]
                    if s[i][k]:
                        s[k], s[i] = s[i], s[k]
                        restart = True
                        break
            if restart:
                continue
            # Clear row k to the right of the pivot.
            for j in range(k + 1, n):
                if srk[j]:
                    q = srk[j] // srk[k]
                    if q:
                        for row in s:
                            row[j] -= q * row[k]
                    if srk[j]:
                        for row in s:
                            row[k], row[j] = row[j], row[k]
                        restart = True
                        break
            if restart:
                continue
            if any(s[i][k] for i in range(k + 1, m)):
                continue
            # Pivot must divide every remaining entry for the chain to hold.
            offender = None
            pivot = srk[k]
            for i in range(k + 1, m):
                row = s[i]
                for j in range(k + 1, n):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            sro = s[offender]
            for j in range(k, len(srk)):
                srk[j] += sro[j]
        k += 1

    for d in range(limit):
        if s[d][d] < 0:
            s[d] = [-e for e in s[d]]
    return s


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize a over Z: returns (U, S, V) with U*a*V = S.

    S is diagonal with s1 | s2 | ..., all si >= 0; U and V are unimodular.
    The rows are first brought to Hermite form with every entry above a
    pivot reduced modulo that pivot as soon as it is fixed, as in Kannan and
    Bachem (SIAM J. Comput. 8, 1979), and the diagonalization then starts
    from that small echelon form.  This keeps U and V small: for a 30x30
    matrix with entries in +-9 their entries have a few hundred bits, where
    diagonalizing the input directly gives them over 100,000.  Pivoting
    always picks a nonzero entry of minimal absolute value.  Deterministic
    for a fixed input.
    """
    m, n = a.rows, a.cols
    s = _eliminate(a, True)
    return SmithDecomposition(
        IntMatrix._trusted(m, m, tuple([e for row in s[:m] for e in row[n:]])),
        IntMatrix._trusted(m, n, tuple([e for row in s[:m] for e in row[:n]])),
        IntMatrix._trusted(n, n, tuple([e for row in s[m:] for e in row])),
    )


def smith_diagonal(a: IntMatrix) -> tuple:
    """smith_normal_form(a).diagonal(), by the same elimination without U
    and V, whose entries grow far larger than the diagonal's."""
    s = _eliminate(a, False)
    return tuple(s[i][i] for i in range(min(a.rows, a.cols)))


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a: IntMatrix) -> int:
    return sum(1 for d in smith_diagonal(a) if d != 0)


def cokernel(a: IntMatrix) -> FgAbelianGroup:
    """cok(a) = Z^rows / im_Z(a), with the source kept as presentation."""
    diag = smith_diagonal(a)
    torsion = tuple(d for d in diag if d >= 2)
    r = sum(1 for d in diag if d != 0)
    return FgAbelianGroup(a.rows - r, torsion, presentation=a)


def solve_integer(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """A column z with a*z = b over Z, or None when no integer solution exists.

    The returned solution is re-verified by exact multiplication.
    """
    if b.cols != 1:
        raise DimensionError("right-hand side must be a column")
    if a.rows != b.rows:
        raise DimensionError("row count mismatch")
    return solve_matrix(a, b)


def solve_matrix(a: IntMatrix, b: IntMatrix, dec=None) -> IntMatrix | None:
    """Integer solution X of a*X = b (all columns at once), or None.  dec,
    when given, is smith_normal_form(a) already computed, so a caller solving
    many right-hand sides against one a pays for it once."""
    if a.rows != b.rows:
        raise DimensionError("row count mismatch")
    if dec is None:
        dec = smith_normal_form(a)
    diag = dec.diagonal()
    ce, nb = (dec.U * b).entries, b.cols
    # Row i of U*b divided by the i-th diagonal entry is row i of V^-1 X.
    w = [0] * (a.cols * nb)
    for i in range(a.rows):
        d = diag[i] if i < len(diag) else 0
        start = i * nb
        if d:
            for jb in range(start, start + nb):
                q, r = divmod(ce[jb], d)
                if r:
                    return None
                w[jb] = q
        elif any(ce[start : start + nb]):
            return None
    x = dec.V * IntMatrix._trusted(a.cols, nb, tuple(w))
    if a * x != b:  # pragma: no cover - exactness guard
        raise AssertionError("solver produced an unverified solution")
    return x


def kernel_basis(a: IntMatrix, dec=None) -> IntMatrix:
    """Columns forming a basis of the integer kernel lattice of a; dec, when
    given, is smith_normal_form(a) already computed."""
    if dec is None:
        dec = smith_normal_form(a)
    diag = dec.diagonal()
    free_cols = [j for j in range(a.cols) if j >= len(diag) or diag[j] == 0]
    basis = dec.V.submatrix(range(a.cols), free_cols)
    if not (a * basis).is_zero():  # pragma: no cover - exactness guard
        raise AssertionError("kernel basis does not annihilate")
    return basis


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix: its Hermite form is the
    identity, so the row transform that reaches it is the inverse."""
    if a.rows != a.cols:
        raise DimensionError("inverse of a non-square matrix")
    n = a.rows
    s = _with_row_transform(a)
    _hermite_rows(s, n, n)
    if any(row[:n] != [1 if j == i else 0 for j in range(n)] for i, row in enumerate(s)):
        raise ValueError("matrix is not a unit over Z")
    inv = IntMatrix._trusted(n, n, tuple([e for row in s for e in row[n:]]))
    if a * inv != IntMatrix.identity(n):  # pragma: no cover
        raise AssertionError("inverse verification failed")
    return inv


def image_annihilator(c: IntMatrix) -> AnnihilatorMatrix:
    """An integer M with M*c = 0 and M*x = 0 iff x lies in im_Q(c): the rows
    of the left Smith transform of c below its rank."""
    dec = smith_normal_form(c)
    m = dec.U.submatrix(range(dec.rank, c.rows), range(c.rows))
    return AnnihilatorMatrix(m, c.cols)


def in_rational_image(ann: AnnihilatorMatrix, x: IntMatrix) -> bool:
    """Membership of the column x in the rational image the annihilator cuts out."""
    if x.cols != 1 or x.rows != ann.matrix.cols:
        raise DimensionError("column of wrong length")
    return (ann.matrix * x).is_zero()
