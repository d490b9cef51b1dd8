"""Kernels for the entry-tuple operations.

Matrices are flat row-major tuples of Python ints, so every operation here is
exact at arbitrary precision.  The engine builds witness words and stabilizer
products with them; its search states are packed ints (blockeq.equiv).
"""


def mat_mul(p, q, a, r, b):
    """Product of a (p x q) by b (q x r), both flat row-major tuples."""
    out = [0] * (p * r)
    for i in range(p):
        ai = i * q
        oi = i * r
        for k in range(q):
            aik = a[ai + k]
            if aik:
                bk = k * r
                for j in range(r):
                    out[oi + j] += aik * b[bk + j]
    return tuple(out)


def row_add(entries, rows, cols, dst, src, c):
    """Left-multiply by I + c*E[dst,src]: row dst += c * row src."""
    out = list(entries)
    d = dst * cols
    s = src * cols
    for j in range(cols):
        out[d + j] += c * entries[s + j]
    return tuple(out)


def col_add(entries, rows, cols, src, dst, c):
    """Right-multiply by I + c*E[src,dst]: col dst += c * col src."""
    out = list(entries)
    for i in range(rows):
        base = i * cols
        out[base + dst] += c * entries[base + src]
    return tuple(out)


def row_negate(entries, rows, cols, i):
    """Left-multiply by the diagonal flip at i: row i changes sign."""
    out = list(entries)
    base = i * cols
    for j in range(cols):
        out[base + j] = -out[base + j]
    return tuple(out)


def col_negate(entries, rows, cols, j):
    """Right-multiply by the diagonal flip at j: column j changes sign."""
    out = list(entries)
    for i in range(rows):
        out[i * cols + j] = -out[i * cols + j]
    return tuple(out)
