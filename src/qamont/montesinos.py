"""Montesinos link parameters and their normal forms.

A Montesinos link M(e; t1, ..., tp) is described by an integer half-twist
count e and an ordered list of rational tangle parameters.  Each tangle,
written in reduced form alpha/beta with alpha > 0, must have alpha >= 2;
tangles with alpha = 1 degenerate the structure and are rejected outright
rather than silently absorbed.

Two parameter tuples related by slide moves describe isotopic links:

    (e, alpha/beta)  <->  (e + 1, alpha/(beta + alpha)).

The quantity eps = e - sum(beta_i/alpha_i) is a slide invariant; it
controls both the link determinant |alpha_1 ... alpha_p * eps| and which
orientation of the double branched cover bounds a negative definite
plumbing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import index

from .errors import ParseError

__all__ = [
    "MontesinosLink",
    "StandardForm",
    "tangle_alpha_beta",
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


def tangle_alpha_beta(t: Fraction) -> tuple[int, int]:
    """Write a tangle parameter as alpha/beta with alpha > 0, gcd(alpha, |beta|) = 1.

    A Fraction keeps its denominator positive, so the sign of t is the sign
    of its numerator.  This is the one reader of a link tangle's numerator
    and denominator: ``MontesinosLink`` calls it once per tangle, when the
    link is validated, and keeps the results as ``pairs``.
    """
    num, den = t.numerator, t.denominator
    if num > 0:
        return num, den
    return -num, -den


def _integer_tangle(t) -> Fraction:
    """An int tangle as a Fraction; any other type that is not a Fraction,
    a float included, raises ``ValueError``: a float is not exact, and
    ``Fraction(2.1)`` has alpha = 4,728,779,608,739,021."""
    if not isinstance(t, int):
        raise ValueError(f"tangle {t!r} must be an int or a Fraction")
    return Fraction(t)


@dataclass(frozen=True, eq=False)
class MontesinosLink:
    """Raw Montesinos parameters: integer e plus an ordered tangle tuple,
    each tangle an ``int`` or a ``Fraction``.

    ``pairs`` holds each tangle's ``tangle_alpha_beta``, derived once, when
    the link is validated; every reader of alpha and beta reads these
    integers.  It is not an init, compare or repr field: equality, hash and
    repr see only e and the tangles.
    """

    e: int
    tangles: tuple[Fraction, ...]
    pairs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.e) is not int:  # a bool or an integer type: store an int
            try:
                object.__setattr__(self, "e", index(self.e))
            except TypeError:
                raise ValueError(
                    f"half-twist count e must be an integer, got {self.e!r}") from None
        tangles = tuple(t if isinstance(t, Fraction) else _integer_tangle(t)
                        for t in self.tangles)
        if not tangles:
            raise ValueError("a Montesinos link needs at least one tangle")
        pairs = tuple(map(tangle_alpha_beta, tangles))
        for t, (alpha, _) in zip(tangles, pairs):
            if alpha < 2:
                raise ValueError(f"tangle {t} has alpha = {alpha}; "
                                 "tangles must have alpha >= 2")
        object.__setattr__(self, "tangles", tangles)
        object.__setattr__(self, "pairs", pairs)

    # Equality is by value across the standard-form subclass too.
    def __eq__(self, other):
        if not isinstance(other, MontesinosLink):
            return NotImplemented
        return self.e == other.e and self.tangles == other.tangles

    def __hash__(self):
        return hash((self.e, self.tangles))

    @property
    def p(self) -> int:
        return len(self.tangles)

    def __str__(self) -> str:
        return format_link(self)


@dataclass(frozen=True, eq=False)
class StandardForm(MontesinosLink):
    """A Montesinos link with every tangle > 1, i.e. 0 < beta < alpha.

    The check runs once, here, on the ``pairs`` derived when the link was
    validated: a frozen ``StandardForm`` stays standard, so the functions
    that need one take it on trust.  Its pairs are then each tangle's
    numerator and denominator, alpha/beta read as integers.
    """

    def __post_init__(self):
        super().__post_init__()
        for t, (alpha, beta) in zip(self.tangles, self.pairs):
            if not 0 < beta < alpha:
                raise ValueError(f"tangle {t} is not > 1; not in standard form")

    @classmethod
    def _from_validated(cls, e: int, tangles: tuple[Fraction, ...],
                        pairs: tuple[tuple[int, int], ...]) -> StandardForm:
        """Build M(e; tangles) from parts already validated; nothing is checked.

        It is sound when e is an ``int``, each tangle is a ``Fraction``,
        and ``pairs`` holds each tangle's ``tangle_alpha_beta`` with
        alpha >= 2 and 0 < beta < alpha: that is all ``__post_init__``
        checks or stores, and its check is per tangle.  The result then
        equals ``StandardForm(e, tangles)`` field for field.  Three callers
        meet this by construction:

        * ``enumerate_family``: each tangle is the one tangle of a
          ``StandardForm`` built by ``__init__``, ``pairs`` holds that
          form's pair for it, and e comes from ``range``.
        * ``to_standard_form``: each tangle is ``Fraction(alpha, beta mod
          alpha)`` on a validated pair (alpha >= 2, gcd(alpha, beta) = 1).
          beta mod alpha lies in (0, alpha), since alpha does not divide
          beta, and is prime to alpha, so the Fraction is already reduced:
          its pair is (alpha, beta mod alpha).  e is the validated int e
          plus integer quotients.
        * ``reflect``: each tangle is ``Fraction(alpha, alpha - beta)`` on a
          standard pair; 0 < alpha - beta < alpha and gcd(alpha, alpha -
          beta) = gcd(alpha, beta) = 1, so its pair is (alpha, alpha - beta).
          e is p - e of a standard form, an int.

        A classmethod, not a module function, so that the tracer in
        ``perfbench/tracing.py``, which wraps every function one module
        imports from another, does not add a span to every record.
        """
        link = object.__new__(cls)
        object.__setattr__(link, "e", e)
        object.__setattr__(link, "tangles", tangles)
        object.__setattr__(link, "pairs", pairs)
        return link


def to_standard_form(link: MontesinosLink) -> StandardForm:
    """Slide each tangle until 0 < beta < alpha, absorbing full twists into e.

    Replacing beta by beta + k*alpha while adding k to e leaves the link
    unchanged, so eps is preserved exactly.  A ``StandardForm`` is returned
    as it is: it is frozen and was validated as standard when it was made.
    Any other link's pairs were validated with it, so the result is built
    by ``StandardForm._from_validated``, which states why that is sound.
    """
    if isinstance(link, StandardForm):
        return link
    new_e = link.e
    new_tangles = []
    new_pairs = []
    for alpha, beta in link.pairs:
        beta_std = beta % alpha  # nonzero: gcd(alpha, beta) = 1 and alpha >= 2
        new_e += (beta_std - beta) // alpha
        new_tangles.append(Fraction(alpha, beta_std))
        new_pairs.append((alpha, beta_std))
    return StandardForm._from_validated(new_e, tuple(new_tangles), tuple(new_pairs))


def reflect(link: StandardForm) -> StandardForm:
    """Mirror image in standard form: M(p - e; alpha_i/(alpha_i - beta_i)).

    Reflection negates eps and is an involution on standard forms, so the
    result is built by ``StandardForm._from_validated`` with no re-check.
    ``oriented_graph`` and ``explain`` call it, and so does
    ``perfbench/workloads.py``.
    """
    _require_standard(link)
    pairs = tuple((a, a - b) for a, b in link.pairs)
    tangles = tuple(Fraction(a, b) for a, b in pairs)
    return StandardForm._from_validated(link.p - link.e, tangles, pairs)


def _scaled_epsilon(link: MontesinosLink) -> tuple[int, int]:
    """(N, A) with A = alpha_1 ... alpha_p and N = e*A - sum(beta_i * A/alpha_i).

    Each A/alpha_i is an exact integer, so N is an integer and eps = N/A.
    """
    pairs = link.pairs
    a = prod(alpha for alpha, _ in pairs)
    return link.e * a - sum(beta * (a // alpha) for alpha, beta in pairs), a


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
    tangles = tuple(Fraction(a, b - a) for a, b in link.pairs)
    return MontesinosLink(link.e - link.p, tangles)


def canonical_form(link: MontesinosLink) -> StandardForm:
    """Standard form with tangles sorted in non-increasing order.

    Parameter tuples related by slide moves and tangle reordering map to
    equal canonical forms, so this is the deduplication key used by the
    family enumeration.
    """
    std = to_standard_form(link)
    return StandardForm(std.e, tuple(sorted(std.tangles, reverse=True)))


def slide(link: MontesinosLink, index: int, count: int = 1) -> MontesinosLink:
    """Apply ``count`` slide moves to the tangle at ``index``.

    Each move trades a full twist between the tangle and e:
    (e, alpha/beta) -> (e + 1, alpha/(beta + alpha)).
    ``perfbench/workloads.py`` types its links through random slides.
    """
    if not 0 <= index < link.p:
        raise ValueError(f"tangle index {index} out of range 0..{link.p - 1}")
    alpha, beta = link.pairs[index]
    tangles = list(link.tangles)
    tangles[index] = Fraction(alpha, beta + count * alpha)
    return MontesinosLink(link.e + count, tuple(tangles))


def _require_standard(link: MontesinosLink) -> None:
    if isinstance(link, StandardForm):
        return  # validated when it was built
    StandardForm(link.e, link.tangles)  # raises ValueError unless every tangle is > 1


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
    tangles = []
    for token in body.split(","):
        token = token.strip()
        tm = _TANGLE_RE.match(token)
        if not tm:
            raise ParseError(f"invalid tangle token {token!r}")
        num = int(tm.group("num"))
        den = int(tm.group("den")) if tm.group("den") is not None else 1
        if den == 0:
            raise ParseError(f"invalid tangle token {token!r}: zero denominator")
        tangles.append(Fraction(num, den))
    try:
        return MontesinosLink(int(m.group("e")), tuple(tangles))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_link(link: MontesinosLink) -> str:
    """Print in the same grammar, tangles in reduced form (``str`` of a
    Fraction: ``a/b``, or ``a`` when b = 1)."""
    return f"M({link.e}; " + ", ".join(map(str, link.tangles)) + ")"
