"""Exact references for the tests: continued fractions and the Seifert
Euler number evaluated as ``fractions.Fraction`` values, a tangle's
(alpha, beta) read off its ``Fraction``, link text printed from each
tangle's ``Fraction``, the tangle order and the family walk sorted as
``Fraction`` values, eps printed from a sum of ``Fraction`` values,
determinants by
Bareiss elimination with row pivoting, the boolean definiteness test, the
matrix-vector product, and canonical rows read one index at a time.  No
program path needs them: ``cfrac.cf_expand``,
``plumbing.negative_definite_by_sign``, ``montesinos._reduced_pair``,
``montesinos.format_link``, ``montesinos._TANGLE_ORDER`` and
``Verdict.epsilon_text`` run on integers,
``intmat.Definite`` reads det Q off the last pivot of its definiteness
test and keeps it with the form, ``laufer_run`` keeps Q * K by
adding one row of Q per step, and ``lattice._canonical_rows`` reads its rows
off one transpose.
The tests hold that code to these references."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from typing import Sequence

from qamont.intmat import Matrix, negative_definite_det
from qamont.montesinos import MontesinosLink, StandardForm
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


def tangle_alpha_beta(t: Fraction) -> tuple[int, int]:
    """A tangle as alpha/beta with alpha > 0, gcd(alpha, |beta|) = 1: a
    Fraction keeps its denominator positive, so the sign of t is the sign
    of its numerator, and it moves onto beta."""
    num, den = t.numerator, t.denominator
    if num > 0:
        return num, den
    return -num, -den


def sorted_by_fractions(pairs) -> list[tuple[int, int]]:
    """Tangle pairs in non-increasing order of their ``Fraction`` values."""
    return sorted(pairs, key=lambda pair: Fraction(*pair), reverse=True)


def family_by_fractions(p_min: int, p_max: int, alpha_max: int, e_min: int,
                        e_max: int) -> list[StandardForm]:
    """The family walk by its ``Fraction`` definition: the standard tangles
    of alpha <= alpha_max sorted as values, non-increasing, and every
    multiset of p of them for each p and e, in that order, each built by
    the validating ``StandardForm`` constructor."""
    tangles = sorted((Fraction(a, b) for a in range(2, alpha_max + 1)
                      for b in range(1, a) if gcd(a, b) == 1), reverse=True)
    return [StandardForm(e, combo) for p in range(p_min, p_max + 1)
            for e in range(e_min, e_max + 1)
            for combo in combinations_with_replacement(tangles, p)]


def format_link_by_fractions(link: MontesinosLink) -> str:
    """``M(e; t1, ..., tp)`` with each tangle printed by ``str`` of its
    ``Fraction``: ``a/b``, or ``a`` when b = 1, the sign on a."""
    return f"M({link.e}; " + ", ".join(map(str, link.tangles)) + ")"


def leg_tuple_ties(legs: Sequence[tuple[int, ...]]) -> list[tuple]:
    """Tie keys of a star's vertices keyed by whole leg tuples: vertex j of
    leg i has (leg i, i, j) and the centre (), the reference for
    ``lattice._star_ties``, whose leg ranks stand in for the tuples."""
    ties: list[tuple] = [()]
    for i, leg in enumerate(legs):
        ties += ((leg, i, j) for j in range(len(leg)))
    return ties


def epsilon_text_by_fraction(link: MontesinosLink) -> str:
    """eps = e - sum(1/t_i), summed as ``Fraction`` values over the link's
    tangles and printed as ``numerator/denominator``: ``0/1`` for eps = 0,
    the sign on the numerator."""
    eps = link.e - sum(1 / t for t in link.tangles)
    return f"{eps.numerator}/{eps.denominator}"


def mat_vec(m: Matrix, v: Sequence[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def canonical_rows(cols: Sequence[Sequence[int]], n: int) -> Matrix:
    """Rows 0..n-1 of the matrix with columns ``cols``, each sign-normalised
    (first nonzero entry positive), sorted in decreasing order."""
    rows = []
    for r in range(n):
        row = tuple(col[r] for col in cols)
        for v in row:
            if v > 0:
                break
            if v < 0:
                row = tuple(-x for x in row)
                break
        rows.append(row)
    rows.sort(reverse=True)
    return tuple(rows)


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


def is_negative_definite_matrix(m: Matrix) -> bool:
    """Strict sign alternation of the leading principal minors, starting
    negative, in one elimination (``negative_definite_det``)."""
    return negative_definite_det(m) is not None


def h1_order(graph: PlumbingGraph) -> int:
    """|det Q|: the order of the first homology of the plumbed boundary."""
    return abs(det(adjacency_matrix(graph)))
