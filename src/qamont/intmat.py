"""Dense exact integer matrices.

Matrices are tuples of row tuples of Python ints, so every computation is
arbitrary precision.  Determinants use fraction-free (Bareiss) elimination
with row pivoting; invariant factors come from an elementary reduction to
diagonal form with the divisibility chain enforced.

Negative definiteness is one fraction-free elimination without row
exchanges.  By Sylvester's identity (Bareiss 1968) its j-th pivot is the
j-th leading principal minor, so the sign alternation of all the minors is
read off a single O(k^3) pass instead of k separate determinants, and the
last pivot is the determinant itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Matrix",
    "freeze",
    "transpose",
    "matmul",
    "mat_vec",
    "is_symmetric",
    "det",
    "negative_definite_det",
    "is_negative_definite_matrix",
    "invariant_factors",
]


def freeze(rows: Iterable[Iterable[int]]) -> Matrix:
    m = tuple(tuple(int(v) for v in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("rows have unequal lengths")
    return m


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m: Matrix, v: Sequence[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i))


def det(m: Matrix) -> int:
    """Exact determinant by Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[i][i]
        for j in range(i + 1, n):
            aji = a[j][i]
            row_j, row_i = a[j], a[i]
            for c in range(i + 1, n):
                row_j[c] = (row_j[c] * piv - aji * row_i[c]) // prev
            row_j[i] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def negative_definite_det(m: Matrix) -> int | None:
    """det m when m is negative definite, None when it is not: strict sign
    alternation of the leading principal minors, starting negative.

    Bareiss elimination without row exchanges: when row j is reached, its
    pivot a[j][j] is the determinant of the top-left (j+1) x (j+1) block,
    and each elimination step divides exactly by the pivot before it, so
    the last pivot is det m (1 for the empty matrix).  The test returns
    None at the first pivot of the wrong sign, before that pivot is ever
    used as a divisor, so a zero minor never reaches a division.  The
    trailing block stays symmetric, so only its upper triangle is updated.
    """
    if not is_symmetric(m):
        raise ValueError("definiteness test requires a symmetric matrix")
    n = len(m)
    a = [list(row) for row in m]
    prev = 1
    sign = -1
    for i in range(n):
        row_i = a[i]
        piv = row_i[i]
        if piv * sign <= 0:
            return None
        for j in range(i + 1, n):
            row_j = a[j]
            aij = row_i[j]
            for c in range(j, n):
                row_j[c] = (row_j[c] * piv - aij * row_i[c]) // prev
        prev = piv
        sign = -sign
    return prev


def is_negative_definite_matrix(m: Matrix) -> bool:
    """Strict sign alternation of the leading principal minors, starting
    negative, in one elimination (``negative_definite_det``)."""
    return negative_definite_det(m) is not None


def invariant_factors(m: Matrix) -> list[int]:
    """Diagonal of the integer normal form: d1 | d2 | ..., nonnegative.

    Returns min(rows, cols) values; trailing zeros signal rank deficiency.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    a = [list(row) for row in m]
    size = min(nrows, ncols)
    factors: list[int] = []

    for t in range(size):
        while True:
            # Smallest-magnitude nonzero entry of the trailing block as pivot.
            piv = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    v = a[i][j]
                    if v != 0 and (piv is None or abs(v) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                factors.extend([0] * (size - t))
                return factors
            pi, pj = piv
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            p = a[t][t]

            clean = True
            for i in range(t + 1, nrows):
                q, r = divmod(a[i][t], p)
                if q:
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                if r:
                    clean = False
            for j in range(t + 1, ncols):
                q, r = divmod(a[t][j], p)
                if q:
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                if r:
                    clean = False
            if not clean:
                continue

            # Row and column are clear; force the divisibility chain.
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                factors.append(abs(p))
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]

    return factors
