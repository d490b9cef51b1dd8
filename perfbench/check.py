"""Independent output checks for the benchmark.

Nothing here calls into blockeq's decision or normal-form code: matrices are
plain lists of Python ints, determinants come from our own Bareiss
elimination, and lattice membership from our own echelon reduction.  The
checks never call group_membership, invert_unimodular or a Smith normal form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd


class CheckFailed(Exception):
    """An output disagrees with its expected answer or fails re-verification."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Plain integer matrices (lists of rows)


def rows_of(rows, cols, entries):
    return [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]


def from_intmatrix(m):
    """Rows of a library IntMatrix, read through its public attributes."""
    return rows_of(m.rows, m.cols, m.entries)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if b else 0
    require(len(a[0]) == inner, "matrix product dimension mismatch")
    out = []
    for row in a:
        acc = [0] * cols
        for k, aik in enumerate(row):
            if aik:
                bk = b[k]
                for j in range(cols):
                    acc[j] += aik * bk[j]
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def submatrix(a, rows, cols):
    return [[a[r][c] for c in cols] for r in rows]


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk = m[k][k]
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - rik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def rank(a):
    """Rank over Q by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in a]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        pc = pr[c]
        for i in range(r + 1, rows):
            ri = m[i]
            ric = ri[c]
            for j in range(c + 1, cols):
                ri[j] = (ri[j] * pc - ric * pr[j]) // prev
            ri[c] = 0
        prev = pc
        r += 1
        if r == rows:
            break
    return r


def entry_gcd(a):
    g = 0
    for row in a:
        for e in row:
            g = gcd(g, e)
    return g


def in_column_lattice(gens, target):
    """Whether the column vector `target` lies in the Z-span of the columns
    of `gens` (an n x k list of rows), by gcd column echelon reduction."""
    n = len(target)
    work = [c for c in transpose(gens) if any(c)]
    pivots = []
    for i in range(n):
        live = [c for c in work if c[i]]
        rest = [c for c in work if not c[i]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[i]))
            p = live[0]
            nxt = [p]
            for c in live[1:]:
                q = c[i] // p[i]
                c = [x - q * y for x, y in zip(c, p)]
                if c[i]:
                    nxt.append(c)
                elif any(c):
                    rest.append(c)
            live = nxt
        pivots.append((i, live[0]))
        work = rest
    t = list(target)
    for i, col in pivots:
        for r in range(i):
            if t[r]:
                return False
        if t[i] % col[i]:
            return False
        q = t[i] // col[i]
        t = [x - q * y for x, y in zip(t, col)]
    return not any(t)


def solve_rational(a, b):
    """Exact solution x of a*x = b for square nonsingular a (Fractions)."""
    n = len(a)
    m = [[Fraction(e) for e in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        require(piv is not None, "singular matrix where a unit was expected")
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        m[k] = [e / pk for e in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Blocked shapes as plain data: (leq set, row_sizes, col_sizes)


def block_index(sizes):
    out = []
    for i, s in enumerate(sizes, start=1):
        out.extend([i] * s)
    return out


def check_blocked_unit(m, leq, sizes, group):
    """Zero pattern of the square blocked shape and diagonal-block
    determinants: +-1 for GL, exactly +1 for SL."""
    n = sum(sizes)
    require(len(m) == n and all(len(r) == n for r in m), "unit has the wrong size")
    idx = block_index(sizes)
    for r in range(n):
        for c in range(n):
            if m[r][c] and (idx[r], idx[c]) not in leq and idx[r] != idx[c]:
                raise CheckFailed(f"nonzero entry in forbidden block at ({r},{c})")
    start = 0
    for s in sizes:
        if s:
            rng = range(start, start + s)
            d = det(submatrix(m, rng, rng))
            if group == "sl":
                require(d == 1, f"diagonal block determinant {d} != 1")
            else:
                require(d in (1, -1), f"diagonal block determinant {d} not a unit")
        start += s


def check_blocked_witness(u, v, a, b, leq, row_sizes, col_sizes, group, side):
    """U*A*V = B (side uav) or U*A*V^-1 = B, checked as U*A = B*V."""
    check_blocked_unit(u, leq, row_sizes, group)
    check_blocked_unit(v, leq, col_sizes, group)
    if side == "uav":
        require(matmul(matmul(u, a), v) == b, "U*A*V != B")
    else:
        require(matmul(u, a) == matmul(b, v), "U*A*V^-1 != B")


def check_unit_condition(v, b, x, y):
    """(V^-1)^T x - y lies in im_Z(B^T)."""
    w = solve_rational(transpose(v), x)
    require(all(e.denominator == 1 for e in w), "(V^-1)^T x is not integral")
    diff = [int(e) - yi for e, yi in zip(w, y)]
    require(in_column_lattice(transpose(b), diff), "condition (2) fails")


# ---------------------------------------------------------------------------
# Abelian group answers


def check_cokernel(free_rank, torsion, expect):
    """Cokernel of an n x k matrix against independently computed facts:
    free rank n - rank, first invariant factor = gcd of entries, and for a
    nonsingular square matrix the order |det|."""
    torsion = list(torsion)
    require(free_rank == expect["free_rank"], "cokernel free rank")
    for d1, d2 in zip(torsion, torsion[1:]):
        require(d1 >= 2 and d2 % d1 == 0, "broken divisibility chain")
    r = expect["rank"]
    factors = [1] * (r - len(torsion)) + torsion
    require(len(factors) == r, "too many invariant factors")
    if r:
        require(factors[0] == expect["gcd"], "first invariant factor != gcd of entries")
    if expect.get("order"):
        order = 1
        for d in torsion:
            order *= d
        require(order == expect["order"], "cokernel order != |det|")


def cokernel_facts(a):
    """Expected-answer facts for check_cokernel, computed from scratch."""
    n = len(a)
    k = len(a[0]) if a else 0
    r = rank(a)
    facts = {"free_rank": n - r, "rank": r, "gcd": entry_gcd(a)}
    if n == k and r == n:
        facts["order"] = abs(det(a))
    return facts


def check_smith(u, s, v, a, det_a):
    """A CLI `snf` result: U*A*V = S, S diagonal with a nonnegative
    divisibility chain, and U, V unimodular (via det S = +-det A)."""
    n = len(a)
    require(len(u) == n and len(s) == n and len(v) == n, "SNF factor sizes")
    for i in range(n):
        for j in range(n):
            if i != j:
                require(s[i][j] == 0, "S is not diagonal")
    diag = [s[i][i] for i in range(n)]
    require(all(d >= 0 for d in diag), "negative diagonal entry")
    nz = [d for d in diag if d]
    require(diag[: len(nz)] == nz, "zero diagonal entries precede nonzero ones")
    for d1, d2 in zip(nz, nz[1:]):
        require(d2 % d1 == 0, "broken divisibility chain")
    require(matmul(matmul(u, a), v) == s, "U*A*V != S")
    prod_s = 1
    for d in diag:
        prod_s *= d
    if det_a:
        require(prod_s == abs(det_a), "det S != |det A|")
    else:
        require(det(u) in (1, -1) and det(v) in (1, -1), "U or V is not unimodular")


# ---------------------------------------------------------------------------
# Finite abelian groups given by diagonal presentations Z/d1 + ... + Z/dk


def elements(orders):
    return list(product(*(range(d) for d in orders)))


def apply_map(m, x, dst_orders):
    return tuple(
        sum(m[i][j] * x[j] for j in range(len(x))) % d for i, d in enumerate(dst_orders)
    )


def is_hom(m, src_orders, dst_orders):
    return all(
        (dj * m[i][j]) % di == 0
        for j, dj in enumerate(src_orders)
        for i, di in enumerate(dst_orders)
    )


def image_size(m, src_orders, dst_orders):
    return len({apply_map(m, x, dst_orders) for x in elements(src_orders)})


def check_rep_iso_witness(u, w, orders, edges, maps1, maps2):
    """Block-diagonal U (forward) and W (inverse) over the vertex generators:
    each block is a bijective homomorphism, U commutes with every edge map,
    and W undoes U."""
    offsets = [0]
    for o in orders:
        offsets.append(offsets[-1] + len(o))
    total = offsets[-1]
    require(len(u) == total and len(w) == total, "witness size")
    blocks_u = []
    for v, o in enumerate(orders):
        rng = range(offsets[v], offsets[v + 1])
        for r in rng:
            for c in range(total):
                if c not in rng:
                    require(u[r][c] == 0 and w[r][c] == 0, "witness not block diagonal")
        bu = submatrix(u, rng, rng)
        bw = submatrix(w, rng, rng)
        require(is_hom(bu, o, o) and is_hom(bw, o, o), "vertex map is not a homomorphism")
        els = elements(o)
        require(len({apply_map(bu, x, o) for x in els}) == len(els), "vertex map not bijective")
        for x in els:
            require(apply_map(bw, apply_map(bu, x, o), o) == x, "inverse does not undo map")
        blocks_u.append(bu)
    for (src, dst), f1, f2 in zip(edges, maps1, maps2):
        for x in elements(orders[src]):
            lhs = apply_map(blocks_u[dst], apply_map(f1, x, orders[dst]), orders[dst])
            rhs = apply_map(f2, apply_map(blocks_u[src], x, orders[src]), orders[dst])
            require(lhs == rhs, "edge square does not commute")


# ---------------------------------------------------------------------------
# Posets as plain data


@lru_cache(maxsize=None)
def _convex_subsets(size, leq):
    below = [0] * (size + 1)
    above = [0] * (size + 1)
    for i, j in leq:
        if i != j:
            below[j] |= 1 << (i - 1)
            above[i] |= 1 << (j - 1)
    out = []
    for mask in range(1, 1 << size):
        if all(mask >> (j - 1) & 1 or not (mask & below[j] and mask & above[j])
               for j in range(1, size + 1)):
            out.append(tuple(i for i in range(1, size + 1) if mask >> (i - 1) & 1))
    return tuple(out)


def convex_subsets(size, leq):
    """Nonempty convex subsets of {1..size}: no element outside the subset
    lies between two of its members."""
    return _convex_subsets(size, frozenset(leq))


def downsets_within(subset, leq):
    """Nonempty proper subsets of `subset` closed downward inside it."""
    out = []
    n = len(subset)
    for mask in range(1, (1 << n) - 1):
        s = {subset[i] for i in range(n) if mask >> i & 1}
        if all(y in s for x in s for y in subset if (y, x) in leq):
            out.append(s)
    return out


def transitive_leq(size, pairs):
    rel = {(i, i) for i in range(1, size + 1)} | set(pairs)
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for k in range(1, size + 1):
                if (j, k) in rel and (i, k) not in rel:
                    rel.add((i, k))
                    changed = True
    return rel


# ---------------------------------------------------------------------------
# Digraphs


def reachable(adj, n):
    reach = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in range(n):
                if adj[x][y] and y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach.append(seen)
    return reach


def is_irreducible(adj):
    n = len(adj)
    if n == 1:
        return adj[0][0] > 0
    reach = reachable(adj, n)
    return all(len(reach[s]) == n for s in range(n))
