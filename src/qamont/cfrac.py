"""Negative continued fractions, computed on integers.

The library computes on integers: a link keeps its tangles as integer
pairs (``montesinos``), and every plumbing leg is expanded from such a
pair by ``_expand``.  ``cf_expand`` is its checked entry: it takes a
rational as its numerator and denominator, reduces it with the one tangle
reducer, ``montesinos._reduced_pair``, and names a rejected value as a
link prints it; ``plumbing.build_graph`` runs it on each tangle of a
negative form.

A continued fraction is a nonempty tuple of integer coefficients, all
<= -2, denoting the nested expression

    a1 - 1/(a2 - 1/( ... - 1/ah)).

Every rational below -1 has exactly one such expansion, and the
expansion of a tangle in negative form is the weight list of its plumbing
leg.  The Fraction evaluation back from coefficients is a test reference
(``tests/references.py``): no program path runs it.
"""

from __future__ import annotations

from .montesinos import _reduced_pair, _tangle_text

__all__ = ["cf_expand"]


def cf_expand(num: int, den: int = 1) -> tuple[int, ...]:
    """Expand the rational t = num/den < -1 into its unique coefficient
    tuple; den != 0, and num/den need not be reduced.

    Only ``int``s are accepted: a float is not exact, and a ``Fraction`` is
    passed as its numerator and denominator, so any other type raises
    ``ValueError``, as does a zero den or a t >= -1, named as
    ``str(Fraction(num, den))`` names it.  t = alpha/beta for the tangle pair
    ``_reduced_pair(num, den)``, so t < -1 when 0 < -beta < alpha, and the
    expansion is ``_expand(-alpha, -beta)``.
    """
    if not (isinstance(num, int) and isinstance(den, int)):
        raise ValueError(f"cannot expand {num!r}/{den!r}: numerator and "
                         "denominator must be ints")
    if not den:
        raise ValueError(f"cannot expand {num}/0: zero denominator")
    alpha, beta = _reduced_pair(num, den)
    if not 0 < -beta < alpha:
        raise ValueError(f"cannot expand {_tangle_text(alpha, beta)}: value must be < -1")
    return _expand(-alpha, -beta)


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
