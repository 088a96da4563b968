"""Dense exact integer matrices.

Matrices are tuples of row tuples of Python ints, so every computation is
arbitrary precision.

Negative definiteness is one fraction-free (Bareiss) elimination without
row exchanges.  By Sylvester's identity (Bareiss 1968) its j-th pivot is the
j-th leading principal minor, so the sign alternation of all the minors is
read off a single O(k^3) pass instead of k separate determinants, and the
last pivot is the determinant itself.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Matrix",
    "freeze",
    "is_symmetric",
    "negative_definite_det",
    "is_negative_definite_matrix",
]


def freeze(rows: Iterable[Iterable[int]]) -> Matrix:
    try:
        m = tuple(tuple(map(index, row)) for row in rows)
    except TypeError as exc:
        raise ValueError(f"matrix entries must be integers: {exc}") from None
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("rows have unequal lengths")
    return m


def is_symmetric(m: Matrix) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i))


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
    negative, in one elimination (``negative_definite_det``).

    The guard of the public ``laufer_run`` and ``embeddings_by_rank``,
    which take an arbitrary matrix.  ``classifier.verify`` and
    ``cli.cmd_embed --all`` guard their graph once with
    ``plumbing._definite_det`` instead and call the unguarded cores, so
    they never reach it.  It stays a function of its own because
    ``perfbench/tracing.py`` counts its calls by name as
    ``intmat.definiteness_checks``; that metric therefore counts only the
    public matrix guards."""
    return negative_definite_det(m) is not None
