"""Montesinos link parameters and their normal forms.

A Montesinos link M(e; t1, ..., tp) is described by an integer half-twist
count e and an ordered list of rational tangle parameters.  Each tangle,
written in reduced form alpha/beta with alpha > 0, must have alpha >= 2;
tangles with alpha = 1 degenerate the structure and are rejected outright
rather than silently absorbed.  A link stores the integers e and
(alpha_i, beta_i); every rewrite below maps pairs to pairs, the
canonical order compares pairs by cross-multiplication, and a ``Fraction``
is built only when a caller reads a value: ``tangles`` or ``epsilon``.

Two parameter tuples related by slide moves describe isotopic links:

    (e, alpha/beta)  <->  (e + 1, alpha/(beta + alpha)).

The quantity eps = e - sum(beta_i/alpha_i) is a slide invariant; it
controls both the link determinant |alpha_1 ... alpha_p * eps| and which
orientation of the double branched cover bounds a negative definite
plumbing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import starmap
from math import gcd
from operator import index

from .errors import ParseError

__all__ = [
    "MontesinosLink",
    "StandardForm",
    "to_standard_form",
    "reflect",
    "epsilon",
    "determinant",
    "to_negative_form",
    "canonical_form",
    "slide",
    "parse_link",
    "format_link",
]


def _reduced_pair(num: int, den: int) -> tuple[int, int]:
    """The one tangle reducer: num/den, den != 0, as (alpha, beta) with
    alpha > 0, gcd(alpha, |beta|) = 1 and the sign on beta.  Divide by
    g = gcd(num, den), signed so that the denominator comes out positive as
    a Fraction's does, then move the sign of the numerator onto beta."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    if num > 0:
        return num, den
    return -num, -den


def _tangle_pair(t) -> tuple[int, int]:
    """The (alpha, beta) of an ``int`` or ``Fraction`` tangle from its parts;
    any other type, a float included, raises ``ValueError``: a float is not
    exact, and ``Fraction(2.1)`` has alpha = 4,728,779,608,739,021."""
    if not isinstance(t, (int, Fraction)):
        raise ValueError(f"tangle {t!r} must be an int or a Fraction")
    return _reduced_pair(t.numerator, t.denominator)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class MontesinosLink:
    """Montesinos parameters: an integer e and each tangle's (alpha, beta).

    ``pairs`` is the stored representation: tangle i is alpha_i/beta_i with
    alpha_i >= 2, gcd(alpha_i, |beta_i|) = 1 and the sign of the tangle on
    beta_i (``_reduced_pair``).  That map is a bijection from reduced
    rationals, so equality and hash compare (e, pairs), which is equality
    of e and the tangles as values, across the standard-form subclass too.

    ``MontesinosLink(e, tangles)`` takes each tangle as an ``int`` or a
    ``Fraction``.  The instance ``__dict__`` is {e, pairs}: ``tangles``,
    each pair's reduced ``Fraction``, is built on every read, and ``repr``
    prints it, as a dataclass with the fields e and tangles did.
    """

    e: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, e: int, tangles):
        self._init_checked(e, map(_tangle_pair, tangles))

    @classmethod
    def _from_pairs(cls, e: int, pairs: tuple[tuple[int, int], ...]) -> MontesinosLink:
        """The link of integer pairs, each already reduced as
        ``_reduced_pair`` writes it, under the constructor's check."""
        link = object.__new__(cls)
        link._init_checked(e, pairs)
        return link

    def _init_checked(self, e, pairs) -> None:
        """The one check of both constructors: e is an integer, there is a
        tangle, and every alpha is at least 2.  ``pairs`` is read after e
        is checked, so a bad e is reported first."""
        if type(e) is not int:  # a bool or an integer type: store an int
            try:
                e = index(e)
            except TypeError:
                raise ValueError(
                    f"half-twist count e must be an integer, got {e!r}") from None
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("a Montesinos link needs at least one tangle")
        for alpha, beta in pairs:
            if alpha < 2:
                raise ValueError(f"tangle {_tangle_text(alpha, beta)} has alpha = {alpha}; "
                                 "tangles must have alpha >= 2")
        object.__setattr__(self, "__dict__", {"e": e, "pairs": pairs})

    @property
    def tangles(self) -> tuple[Fraction, ...]:
        """Each pair's reduced ``Fraction``, built anew on every read."""
        return tuple(starmap(Fraction, self.pairs))

    def __eq__(self, other):
        if not isinstance(other, MontesinosLink):
            return NotImplemented
        return self.e == other.e and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.e, self.pairs))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(e={self.e!r}, tangles={self.tangles!r})"

    @property
    def p(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return format_link(self)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class StandardForm(MontesinosLink):
    """A Montesinos link with every tangle > 1, i.e. 0 < beta < alpha.

    The check runs once, when the form is built: a frozen ``StandardForm``
    stays standard, so the functions that need one take it on trust.
    """

    def _init_checked(self, e, pairs) -> None:
        super()._init_checked(e, pairs)
        for alpha, beta in self.pairs:
            if not 0 < beta < alpha:
                raise ValueError(f"tangle {_tangle_text(alpha, beta)} is not > 1; "
                                 "not in standard form")

    @classmethod
    def _from_validated(cls, e: int, pairs: tuple[tuple[int, int], ...]) -> StandardForm:
        """Build the form of ``pairs`` already validated; nothing is checked.

        It is sound when e is an ``int`` and each pair is reduced with
        alpha >= 2 and 0 < beta < alpha: that is all ``_init_checked``
        checks, and its check is per pair.  The result then equals
        ``StandardForm._from_pairs(e, pairs)`` field for field.  Four
        callers meet this by construction:

        * ``enumerate_family``: each pair is (a, b) with 2 <= a, 1 <= b < a
          and gcd(a, b) = 1, and e comes from ``range``.
        * ``to_standard_form``: each pair is (alpha, beta mod alpha) of a
          validated pair (alpha >= 2, gcd(alpha, beta) = 1); beta mod alpha
          lies in (0, alpha), since alpha does not divide beta, and is
          prime to alpha.  e is the validated int e plus integer quotients.
        * ``reflect``: each pair is (alpha, alpha - beta) of a standard
          pair; 0 < alpha - beta < alpha and gcd(alpha, alpha - beta) =
          gcd(alpha, beta) = 1.  e is p - e of a standard form, an int.
        * ``canonical_form``: the pairs are a permutation of the pairs of a
          validated standard form, and e is its e; the check is per pair,
          so a permutation of a standard form is standard.

        A classmethod, not a module function, so that the tracer in
        ``perfbench/tracing.py``, which wraps every function one module
        imports from another, does not add a span to every record.  The
        two fields go into the instance ``__dict__`` in one write.
        """
        link = object.__new__(cls)
        object.__setattr__(link, "__dict__", {"e": e, "pairs": pairs})
        return link


def to_standard_form(link: MontesinosLink) -> StandardForm:
    """Slide each tangle until 0 < beta < alpha, absorbing full twists into e.

    Replacing beta by beta + k*alpha while adding k to e leaves the link
    unchanged, so eps is preserved exactly: beta = q*alpha + r with
    0 < r < alpha gives the pair (alpha, r) and e - q.  A ``StandardForm``
    is returned as it is: it is frozen and was validated as standard when
    it was made.  Any other link's pairs were validated with it, so the
    result is built by ``StandardForm._from_validated``, which states why
    that is sound.
    """
    if isinstance(link, StandardForm):
        return link
    new_e = link.e
    pairs = []
    for alpha, beta in link.pairs:
        q, r = divmod(beta, alpha)  # r nonzero: gcd(alpha, beta) = 1 and alpha >= 2
        new_e -= q
        pairs.append((alpha, r))
    return StandardForm._from_validated(new_e, tuple(pairs))


def reflect(link: StandardForm) -> StandardForm:
    """Mirror image in standard form: M(p - e; alpha_i/(alpha_i - beta_i)).

    Reflection negates eps and is an involution on standard forms, so the
    result is built by ``StandardForm._from_validated`` with no re-check.
    ``oriented_graph`` and ``explain`` call it, and so does
    ``perfbench/workloads.py``.
    """
    _require_standard(link)
    pairs = link.pairs
    return StandardForm._from_validated(len(pairs) - link.e,
                                        tuple((a, a - b) for a, b in pairs))


def _scaled_epsilon(link: MontesinosLink) -> tuple[int, int]:
    """(N, A) with A = alpha_1 ... alpha_p and N = e*A - sum(beta_i * A/alpha_i).

    One pass over ``pairs`` in Horner form: after the first i pairs, a is
    alpha_1 ... alpha_i and s is sum(beta_j * a/alpha_j) over j <= i, and
    the next pair takes them to a*alpha and s*alpha + beta*a.  So N is an
    integer and eps = N/A.
    """
    a, s = 1, 0
    for alpha, beta in link.pairs:
        a, s = a * alpha, s * alpha + beta * a
    return link.e * a - s, a


def epsilon(link: MontesinosLink) -> Fraction:
    """The slide invariant e - sum(beta_i/alpha_i).

    The program reads ``_scaled_epsilon``; this public form is kept for
    ``perfbench/workloads.py``, which orients its graphs by its sign."""
    return Fraction(*_scaled_epsilon(link))


def determinant(link: MontesinosLink) -> int:
    """Link determinant |alpha_1 ... alpha_p * eps|; always a nonnegative integer."""
    return abs(_scaled_epsilon(link)[0])


def to_negative_form(link: StandardForm) -> MontesinosLink:
    """Slide every tangle below -1: M(e - p; alpha_i/(beta_i - alpha_i)).

    This is the parameter form from which the star-shaped plumbing graph
    is built; eps is unchanged.  ``explain`` prints it, and
    ``perfbench/workloads.py`` builds its graphs from it.
    """
    _require_standard(link)
    return MontesinosLink._from_pairs(link.e - link.p,
                                      tuple((a, b - a) for a, b in link.pairs))


def _compare_tangles(x: tuple[int, int], y: tuple[int, int]) -> int:
    """The sign of alpha_x/beta_x - alpha_y/beta_y for standard pairs: both
    betas are positive, so it is that of alpha_x*beta_y - alpha_y*beta_x,
    cross-multiplied as ``classifier._strict_pair`` compares."""
    lhs, rhs = x[0] * y[1], y[0] * x[1]
    return (lhs > rhs) - (lhs < rhs)


# The one tangle order, of canonical forms and of the family walk.
_TANGLE_ORDER = cmp_to_key(_compare_tangles)


def canonical_form(link: MontesinosLink) -> StandardForm:
    """Standard form with tangles sorted in non-increasing order.

    Parameter tuples related by slide moves and tangle reordering map to
    equal canonical forms, so this is the key of a typed link, printed by
    ``classify`` on the command line and by ``explain``; the family walk
    yields canonical forms by construction.  The pairs are sorted by
    ``_TANGLE_ORDER`` and built by ``StandardForm._from_validated``.
    """
    std = to_standard_form(link)
    return StandardForm._from_validated(std.e, tuple(sorted(std.pairs, key=_TANGLE_ORDER,
                                                            reverse=True)))


def slide(link: MontesinosLink, index: int, count: int = 1) -> MontesinosLink:
    """Apply ``count`` slide moves to the tangle at ``index``.

    Each move trades a full twist between the tangle and e:
    (e, alpha/beta) -> (e + 1, alpha/(beta + alpha)).
    ``perfbench/workloads.py`` types its links through random slides.
    """
    if not 0 <= index < link.p:
        raise ValueError(f"tangle index {index} out of range 0..{link.p - 1}")
    alpha, beta = link.pairs[index]
    pairs = list(link.pairs)
    pairs[index] = (alpha, beta + count * alpha)
    return MontesinosLink._from_pairs(link.e + count, tuple(pairs))


def _require_standard(link: MontesinosLink) -> None:
    if isinstance(link, StandardForm):
        return  # validated when it was built
    StandardForm._from_pairs(link.e, link.pairs)  # ValueError unless every tangle is > 1


# Text grammar: M(e; t1, t2, ...) with tangles written a/b or as integers.
# Every integer, here, in graph files and in the CLI's integer options, is
# _INTEGER: ASCII digits with an optional sign, not the Unicode digits that
# \d matches, nor the "_" separators and spaces that int() also takes.

_INTEGER = re.compile(r"[+-]?[0-9]+")
_LINK_RE = re.compile(rf"\A\s*M\s*\(\s*(?P<e>{_INTEGER.pattern})\s*;(?P<tangles>[^;]*)\)\s*\Z")
_TANGLE_RE = re.compile(rf"\A(?P<num>{_INTEGER.pattern})\s*(?:/\s*(?P<den>{_INTEGER.pattern}))?\Z")


def parse_link(text: str) -> MontesinosLink:
    """Parse ``M(e; t1, t2, ...)``; raises ParseError naming the offending token."""
    m = _LINK_RE.match(text)
    if not m:
        raise ParseError(
            f"{text.strip()!r} does not match the link grammar M(e; a1/b1, a2/b2, ...)")
    body = m.group("tangles").strip()
    if not body:
        raise ParseError("link expression lists no tangles")
    pairs = []
    for token in body.split(","):
        token = token.strip()
        tm = _TANGLE_RE.match(token)
        if not tm:
            raise ParseError(f"invalid tangle token {token!r}")
        num = int(tm.group("num"))
        den = int(tm.group("den")) if tm.group("den") is not None else 1
        if den == 0:
            raise ParseError(f"invalid tangle token {token!r}: zero denominator")
        pairs.append(_reduced_pair(num, den))
    try:
        return MontesinosLink._from_pairs(int(m.group("e")), tuple(pairs))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_link(link: MontesinosLink) -> str:
    """Print in the same grammar, each tangle read from ``pairs`` as the
    ``str`` of its Fraction: ``a/b``, or ``a`` when b = 1."""
    return f"M({link.e}; {', '.join(starmap(_tangle_text, link.pairs))})"


@lru_cache(maxsize=1024)
def _tangle_text(alpha: int, beta: int) -> str:
    """``str(Fraction(alpha, beta))`` for a tangle's pair: its numerator
    carries the sign of beta and its denominator is |beta|, written only
    when it is not 1.  A family has few distinct tangles, so each text is
    formatted once and then read from the cache."""
    if alpha == 0:  # the zero tangle, (0, -1), named only in an error
        return "0"
    if beta < 0:
        return f"-{alpha}" if beta == -1 else f"-{alpha}/{-beta}"
    return f"{alpha}" if beta == 1 else f"{alpha}/{beta}"
