"""Dense exact integer matrices.

Matrices are tuples of row tuples of Python ints, so every computation is
arbitrary precision.

Negative definiteness is one fraction-free (Bareiss) elimination without
row exchanges.  By Sylvester's identity (Bareiss 1968) its j-th pivot is the
j-th leading principal minor, so the sign alternation of all the minors is
read off a single O(k^3) pass instead of k separate determinants, and the
last pivot is the determinant itself.  ``Definite(m)`` is the one guard:
it freezes m, runs the elimination and carries the determinant, and it
returns a ``Definite`` it is given unchanged, so a form that has passed the
test is never eliminated again.
"""

from __future__ import annotations

from itertools import repeat
from operator import index
from typing import Iterable

from .errors import NotNegativeDefiniteError

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Matrix",
    "freeze",
    "negative_definite_det",
    "Definite",
]


def freeze(rows: Iterable[Iterable[int]]) -> Matrix:
    try:
        m = tuple(map(tuple, map(map, repeat(index), rows)))
    except TypeError as exc:
        raise ValueError(f"matrix entries must be integers: {exc}") from None
    if len(set(map(len, m))) > 1:
        raise ValueError("rows have unequal lengths")
    return m


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
    A matrix that is not its own transpose raises ``ValueError``; one that
    is not square never is.
    """
    if tuple(zip(*m)) != m:
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


class Definite(tuple):
    """A negative definite ``Matrix`` and its determinant ``det``.

    ``Definite(m)`` returns m itself when it is a ``Definite``.  Any other m
    is frozen (``freeze``: ``ValueError`` on a non-integer entry or ragged
    rows) and ``negative_definite_det`` runs on it: a matrix that is not
    symmetric raises ``ValueError``, one that is not negative definite
    ``NotNegativeDefiniteError``.  So every ``Definite`` is a ``Matrix`` that
    has passed the test, and the functions that require a negative definite
    form take one as it is."""

    det: int

    def __new__(cls, m: Iterable[Iterable[int]]) -> Definite:
        if isinstance(m, Definite):
            return m
        m = freeze(m)
        d = negative_definite_det(m)
        if d is None:
            raise NotNegativeDefiniteError("the form is not negative definite")
        form = super().__new__(cls, m)
        form.det = d
        return form
