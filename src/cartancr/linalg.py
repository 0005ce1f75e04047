"""Exact sparse linear algebra over the AlgNum field, and all matrix arithmetic.

Gaussian elimination over sparse rows with exact pivoting; everything stays
in Q(i, sqrt2, sqrt3), so ranks and kernels are certificates, not estimates.
Matrices are lists of lists of AlgNum; shapes that do not fit raise ValueError:
a + b needs equal shapes, a b rows of len(b) and b rectangular, a v rows of
len(v), and rref, rank and nullspace rows of one length.
"""

from __future__ import annotations

from .numfield import AlgNum, ZERO, ONE


def zeros(rows: int, cols: int) -> list[list[AlgNum]]:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb, strict=True)]
            for ra, rb in zip(a, b, strict=True)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_conj(a):
    return [[x.conj() for x in row] for row in a]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if any(len(row) != inner for row in a) or any(len(row) != cols for row in b):
        raise ValueError(f"cannot multiply rows {[len(r) for r in a]} by {[len(r) for r in b]}")
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik.is_zero():
                continue
            for j in range(cols):
                if not b[k][j].is_zero():
                    # the first term into an entry is the entry: no addition to ZERO
                    p = aik * b[k][j]
                    out[i][j] = p if out[i][j] is ZERO else out[i][j] + p
    return out


def mat_vec(a, v):
    if any(len(row) != len(v) for row in a):
        raise ValueError(f"cannot apply rows {[len(r) for r in a]} to {len(v)} entries")
    nonzero = [j for j, x in enumerate(v) if not x.is_zero()]
    return [sum((row[j] * v[j] for j in nonzero if not row[j].is_zero()), ZERO)
            for row in a]


def rref(matrix) -> tuple[list[list[AlgNum]], list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    The rows are eliminated as sparse dicts {column: nonzero entry}, so the
    work follows the nonzeros: an all-zero row costs nothing and stays
    below the others, and only the columns that hold an entry are visited.
    The pivot of each column is the first row, from the next pivot position
    on, that holds it."""
    cols = len(matrix[0]) if matrix else 0
    if any(len(row) != cols for row in matrix):
        raise ValueError(f"cannot eliminate rows {[len(r) for r in matrix]}")
    m = [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in matrix]
    m = [row for row in m if row]
    pivots = []
    r = 0
    # a column that starts empty stays empty: a row gains entries only in
    # the columns of a pivot row
    for c in sorted(set().union(*m)):
        pivot = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        prow = m[r] = {k: x * inv for k, x in m[r].items()}
        for i, row in enumerate(m):
            f = row.get(c)
            if f is None or i == r:
                continue
            for k, x in prow.items():
                y = row.get(k)
                if y is None:
                    row[k] = -(f * x)
                else:
                    y = y - f * x
                    if y.is_zero():
                        del row[k]
                    else:
                        row[k] = y
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    out = [[ZERO] * cols for _ in range(len(matrix))]
    for dense, row in zip(out, m):
        for k, x in row.items():
            dense[k] = x
    return out, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix) -> list[list[AlgNum]]:
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        return []
    cols = len(matrix[0])
    red, pivots = rref(matrix)
    free = sorted(set(range(cols)).difference(pivots))
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis

