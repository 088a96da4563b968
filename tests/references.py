"""Exact references for the tests: continued fractions and the Seifert
Euler number evaluated as ``fractions.Fraction`` values, and determinants
by Bareiss elimination with row pivoting.  No program path needs them:
``cfrac.cf_expand`` and ``plumbing.negative_definite_by_sign`` run on
integers, and ``plumbing.definite_det`` reads det Q off the last pivot of
its definiteness test.  The tests hold that integer code to these
references."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from qamont.intmat import Matrix
from qamont.plumbing import PlumbingGraph, _legs_are_continued_fractions, adjacency_matrix


def check_coeffs(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Validate a coefficient sequence: nonempty integers, all <= -2."""
    cf = tuple(coeffs)
    if not cf:
        raise ValueError("continued fraction needs at least one coefficient")
    for a in cf:
        if not isinstance(a, int) or a > -2:
            raise ValueError(
                f"continued fraction coefficient {a!r} is not an integer <= -2")
    return cf


def cf_eval(coeffs: Sequence[int]) -> Fraction:
    """Evaluate a coefficient tuple right to left; the result is < -1."""
    cf = check_coeffs(coeffs)
    value = Fraction(cf[-1])
    for a in reversed(cf[:-1]):
        value = a - 1 / value
    return value


def prefix_r(coeffs: Sequence[int], length: int) -> Fraction:
    """Return -1 / value of the first ``length`` coefficients.

    The result always lies strictly between 0 and 1.
    """
    cf = check_coeffs(coeffs)
    if not 1 <= length <= len(cf):
        raise ValueError(f"prefix length {length} out of range 1..{len(cf)}")
    return -1 / cf_eval(cf[:length])


def seifert_euler_number(graph: PlumbingGraph) -> Fraction:
    """central weight - sum of 1/value(leg); needs every leg entry <= -2.

    This is the ``Fraction`` reference; ``negative_definite_by_sign``
    decides its sign on integers."""
    if not _legs_are_continued_fractions(graph):
        raise ValueError("leg weights above -2: the Seifert sign test does not apply")
    return Fraction(graph.central_weight) - sum(1 / cf_eval(leg) for leg in graph.legs)


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


def h1_order(graph: PlumbingGraph) -> int:
    """|det Q|: the order of the first homology of the plumbed boundary."""
    return abs(det(adjacency_matrix(graph)))
