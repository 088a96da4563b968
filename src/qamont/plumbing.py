"""Star-shaped plumbing graphs and their intersection forms.

The double branched cover of a Montesinos link in negative form bounds the
plumbing on a star: one central vertex carrying e, and one linear leg per
tangle carrying its continued fraction coefficients, the entry adjacent to
the central vertex first.  Vertices are indexed central first, then the
legs in order, each from the central end outward, so matrices are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import index

from .cfrac import _expand, cf_expand
from .errors import InternalError, NotNegativeDefiniteError, ParseError
from .intmat import Definite, Matrix
from .montesinos import _INTEGER, MontesinosLink, StandardForm, _scaled_epsilon, reflect

__all__ = [
    "PlumbingGraph",
    "build_graph",
    "oriented_graph",
    "adjacency_matrix",
    "negative_definite_by_sign",
    "parse_graph",
    "format_graph",
]


@dataclass(frozen=True)
class PlumbingGraph:
    central_weight: int
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            central_weight = index(self.central_weight)
        except TypeError:
            raise ValueError("central weight must be an integer") from None
        try:
            legs = tuple(map(tuple, map(map, repeat(index), self.legs)))
        except TypeError as exc:
            raise ValueError(f"leg weights must be integers: {exc}") from None
        if not all(legs):
            raise ValueError("legs must be nonempty")
        object.__setattr__(self, "central_weight", central_weight)
        object.__setattr__(self, "legs", legs)

    @property
    def vertex_count(self) -> int:
        return 1 + sum(len(leg) for leg in self.legs)

    @property
    def definite_form(self) -> Definite:
        """``adjacency_matrix(self)`` as a ``Definite``, computed at most once
        per graph object; a plumbing that is not negative definite raises
        ``NotNegativeDefiniteError``.

        When every leg entry is <= -2 the Seifert sign test applies as well
        and must agree with the matrix test; a mismatch would be a bug, not
        a property of the input, and raises ``InternalError``.  The sign
        test decides whether it applies (``ValueError`` when it does not),
        so the legs are scanned once.  ``Definite`` freezes the list rows of
        q, its one tuple copy before the elimination.

        A read that raises stores nothing, so it raises again on the next
        read.  The memo is a plain entry of the instance ``__dict__``,
        outside the fields, so it changes neither equality nor hashing.
        """
        form = self.__dict__.get("_definite_form")
        if form is not None:
            return form
        try:
            form = Definite(_adjacency_rows(self))
        except NotNegativeDefiniteError:
            form = None
        try:
            agree = negative_definite_by_sign(self) == (form is not None)
        except ValueError:  # a leg weight above -2: only the matrix test applies
            agree = True
        if not agree:
            raise InternalError(f"definiteness checks disagree on {format_graph(self)!r}")
        if form is None:
            raise NotNegativeDefiniteError("the plumbing is not negative definite")
        self.__dict__["_definite_form"] = form
        return form


def build_graph(link: MontesinosLink) -> PlumbingGraph:
    """Plumbing graph of a link in negative form (every tangle < -1), built
    on its integer ``pairs``: each leg is ``cf_expand(alpha, beta)``, which
    raises ``ValueError`` on a tangle that is not below -1.  A tangle
    alpha/beta below -1 has beta < 0, so that runs ``_expand(-alpha,
    -beta)``, the expansion ``oriented_graph`` runs.  A standard form goes
    through ``oriented_graph`` instead.  Demo 01 builds a negative form's
    graph here to show each leg as the expansion of its tangle, and demo 03
    to print its adjacency form."""
    return PlumbingGraph(link.e, tuple(cf_expand(alpha, beta) for alpha, beta in link.pairs))


def oriented_graph(link: StandardForm) -> tuple[StandardForm, PlumbingGraph]:
    """The side of the link with eps < 0 and the plumbing of its negative form.

    The link is reflected when eps > 0, and otherwise returned as the same
    object, so ``verify`` reads the reflection off ``side is not link``.
    With eps < 0 the plumbing is negative definite.  A zero eps (zero
    determinant) has no such side: both plumbings have det 0, so the link
    is rejected with ``NotNegativeDefiniteError``, the ``ValueError`` that
    ``verify`` reads as its determinant test.  eps = N/A with A > 0
    (``_scaled_epsilon``), so its sign is that of the integer N, read once.

    The graph is ``build_graph(to_negative_form(side))``, built on integers:
    the negative form of a standard tangle alpha/beta is
    (-alpha)/(alpha - beta), already reduced with a positive denominator, so
    its leg is ``_expand(-alpha, alpha - beta)`` on the side's ``pairs``,
    and the central weight is e - p.  The graph is built by the validating
    ``PlumbingGraph`` constructor, the one way to build a graph.
    """
    n, _ = _scaled_epsilon(link)
    if n == 0:
        raise NotNegativeDefiniteError(
            "determinant zero: the double branched cover is not a rational homology sphere")
    side = reflect(link) if n > 0 else link
    legs = tuple(_expand(-alpha, alpha - beta) for alpha, beta in side.pairs)
    return side, PlumbingGraph(side.e - side.p, legs)


def adjacency_matrix(graph: PlumbingGraph) -> Matrix:
    """Symmetric k x k weighted adjacency matrix: weights on the diagonal,
    an entry 1 for every tree edge, 0 elsewhere.

    It needs no ``freeze``: the graph's weights were validated as ``int``s
    when it was built, every other entry is the literal 0 or 1, and every
    row has k entries, so the rows are already a ``Matrix``."""
    return tuple(map(tuple, _adjacency_rows(graph)))


def _adjacency_rows(graph: PlumbingGraph) -> list[list[int]]:
    """The rows of ``adjacency_matrix(graph)`` as lists, the one place that
    lays out q: ``definite_form`` hands them to ``Definite``, whose freeze
    makes the only tuple copy."""
    k = graph.vertex_count
    m = [[0] * k for _ in range(k)]
    m[0][0] = graph.central_weight
    idx = 1
    for leg in graph.legs:
        prev = 0
        for w in leg:
            m[idx][idx] = w
            m[prev][idx] = m[idx][prev] = 1
            prev = idx
            idx += 1
    return m


def negative_definite_by_sign(graph: PlumbingGraph) -> bool:
    """Sign test: all legs evaluate below -1 and the Euler number is negative.

    The Euler number e - sum of 1/value(leg) is summed as one fraction
    num/den of integers.  A leg a1, ..., ah evaluates to p/q by the
    continuant recurrence, right to left from p/q = ah/1: a - 1/(p/q) =
    (a*p - q)/p.  Then num/den - q/p = (num*p - q*den)/(den*p).  Neither
    den nor a leg's q keeps one sign, so the Euler number is negative
    exactly when num * den < 0; it is 0, and the test False, when num is.
    """
    if not _legs_are_continued_fractions(graph):
        raise ValueError("leg weights above -2: the Seifert sign test does not apply")
    num, den = graph.central_weight, 1
    for leg in graph.legs:
        p, q = leg[-1], 1
        for a in leg[-2::-1]:
            p, q = a * p - q, p
        num, den = num * p - q * den, den * p
    return num * den < 0


def _legs_are_continued_fractions(graph: PlumbingGraph) -> bool:
    return all(w <= -2 for leg in graph.legs for w in leg)


# Text format, one graph per file, each weight in ASCII digits:
#   central: <w>
#   leg: <a1> <a2> ...


def parse_graph(text: str) -> PlumbingGraph:
    central = None
    legs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        values = rest.split()
        for v in values:
            # int() alone would also take "_" separators and Unicode digits
            if not _INTEGER.fullmatch(v):
                raise ParseError(f"line {lineno}: non-integer weight {v!r} in {line!r}")
        weights = [int(v) for v in values]
        if key == "central":
            if central is not None:
                raise ParseError(f"line {lineno}: duplicate central line")
            if len(weights) != 1:
                raise ParseError(f"line {lineno}: central takes exactly one weight")
            central = weights[0]
        elif key == "leg":
            if not weights:
                raise ParseError(f"line {lineno}: leg needs at least one weight")
            legs.append(tuple(weights))
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if central is None:
        raise ParseError("graph file has no central line")
    return PlumbingGraph(central, tuple(legs))


def format_graph(graph: PlumbingGraph) -> str:
    lines = [f"central: {graph.central_weight}"]
    lines.extend("leg: " + " ".join(str(w) for w in leg) for leg in graph.legs)
    return "\n".join(lines) + "\n"
