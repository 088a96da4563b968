"""Exact rationals and negative continued fractions.

A rational read as a value is a ``fractions.Fraction``: construction
reduces to lowest terms with a positive denominator, so equality is
structural and no floating point ever enters.  A link keeps its tangles
as integer pairs (``montesinos``), and the plumbing legs of ``verify``
are expanded from those pairs by ``_expand`` with no ``Fraction``.

A continued fraction is a nonempty tuple of integer coefficients, all
<= -2, denoting the nested expression

    a1 - 1/(a2 - 1/( ... - 1/ah)).

Every rational below -1 has exactly one such expansion, and the
expansion of a tangle in negative form is the weight list of its plumbing
leg.  The Fraction evaluation back from coefficients is a test reference
(``tests/references.py``): no program path runs it.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["cf_expand"]


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
