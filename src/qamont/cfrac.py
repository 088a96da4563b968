"""Exact rationals and negative continued fractions.

Rationals throughout the package are ``fractions.Fraction`` values:
construction reduces to lowest terms with a positive denominator, so
equality is structural and no floating point ever enters.

A continued fraction is a nonempty tuple of integer coefficients, all
<= -2, denoting the nested expression

    a1 - 1/(a2 - 1/( ... - 1/ah)).

Every rational below -1 has exactly one such expansion, and every
evaluation lands below -1 again; the helpers here move back and forth
between the two presentations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["cf_expand", "cf_eval", "prefix_r", "check_coeffs"]


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


def cf_expand(t: Fraction | int) -> tuple[int, ...]:
    """Expand a rational t < -1 into its unique coefficient tuple.

    Only an ``int`` or a ``Fraction`` is accepted: a float is not exact, so
    it raises ``ValueError`` like any other type.  The expansion itself is
    ``_expand`` on t's numerator and denominator.
    """
    if not isinstance(t, (int, Fraction)):
        raise ValueError(f"cannot expand {t!r}: value must be an int or a Fraction")
    if t >= -1:
        raise ValueError(f"cannot expand {t}: value must be < -1")
    return _expand(t.numerator, t.denominator)


def _expand(num: int, den: int) -> tuple[int, ...]:
    """The coefficients of t = num/den < -1, given den > 0 and
    gcd(num, den) = 1.

    Euclid's algorithm on the pair: take a1 = t when den = 1 and
    a1 = floor(t) = num // den otherwise, then recurse on
    1/(a1 - t) = -den/(num mod den), again reduced with a positive
    denominator.  Each tail stays below -1, so all coefficients land at or
    below -2, and the denominator strictly shrinks, so the loop terminates.
    """
    coeffs = []
    while den != 1:
        a, rem = divmod(num, den)
        coeffs.append(a)
        num, den = -den, rem
    coeffs.append(num)
    return tuple(coeffs)


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
