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
from fractions import Fraction
from operator import index

from .cfrac import cf_eval, cf_expand
from .errors import InternalError, ParseError
from .intmat import Matrix, det, freeze, negative_definite_det
from .montesinos import (MontesinosLink, StandardForm, epsilon, reflect,
                         to_negative_form)

__all__ = [
    "PlumbingGraph",
    "build_graph",
    "oriented_graph",
    "adjacency_matrix",
    "seifert_euler_number",
    "negative_definite_by_sign",
    "definite_det",
    "is_negative_definite",
    "h1_order",
    "parse_graph",
    "format_graph",
]


@dataclass(frozen=True)
class PlumbingGraph:
    central_weight: int
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.central_weight, int):
            raise ValueError("central weight must be an integer")
        try:
            legs = tuple(tuple(map(index, leg)) for leg in self.legs)
        except TypeError as exc:
            raise ValueError(f"leg weights must be integers: {exc}") from None
        for leg in legs:
            if not leg:
                raise ValueError("legs must be nonempty")
        object.__setattr__(self, "legs", legs)

    @property
    def vertex_count(self) -> int:
        return 1 + sum(len(leg) for leg in self.legs)


def build_graph(link: MontesinosLink) -> PlumbingGraph:
    """Plumbing graph of a link in negative form (every tangle < -1);
    ``cf_expand`` raises ``ValueError`` on any other tangle."""
    return PlumbingGraph(link.e, tuple(cf_expand(t) for t in link.tangles))


def oriented_graph(link: StandardForm) -> tuple[StandardForm, PlumbingGraph]:
    """The side of the link with eps < 0 and the plumbing of its negative form.

    The link is reflected when eps > 0; reflection negates eps, so the
    returned side differs from the input exactly when it was reflected.
    With eps < 0 the plumbing is negative definite.  A zero eps (zero
    determinant) has no such side and is rejected.
    """
    eps = epsilon(link)
    if eps == 0:
        raise ValueError(
            "determinant zero: the double branched cover is not a rational homology sphere")
    side = reflect(link) if eps > 0 else link
    return side, build_graph(to_negative_form(side))


def adjacency_matrix(graph: PlumbingGraph) -> Matrix:
    """Symmetric k x k weighted adjacency matrix: weights on the diagonal,
    an entry 1 for every tree edge, 0 elsewhere."""
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
    return freeze(m)


def seifert_euler_number(graph: PlumbingGraph) -> Fraction:
    """central weight - sum of 1/value(leg); needs every leg entry <= -2."""
    if not _legs_are_continued_fractions(graph):
        raise ValueError("leg weights above -2: the Seifert sign test does not apply")
    return Fraction(graph.central_weight) - sum(1 / cf_eval(leg) for leg in graph.legs)


def negative_definite_by_sign(graph: PlumbingGraph) -> bool:
    """Sign test: all legs evaluate below -1 and the Euler number is negative."""
    return seifert_euler_number(graph) < 0


def definite_det(graph: PlumbingGraph) -> int | None:
    """det Q when the plumbing is negative definite, None when it is not;
    definiteness is computed two ways when both apply.

    The exact test on the adjacency matrix (the sign alternation of its
    leading principal minors, ``negative_definite_det``) always applies,
    and its last minor is det Q.  When every leg entry is <= -2 the sign
    test applies as well and the two must agree; a mismatch would be a
    bug, not a property of the input.
    """
    d = negative_definite_det(adjacency_matrix(graph))
    if _legs_are_continued_fractions(graph):
        if negative_definite_by_sign(graph) != (d is not None):
            raise InternalError(
                f"definiteness checks disagree on {format_graph(graph)!r}")
    return d


def is_negative_definite(graph: PlumbingGraph) -> bool:
    """Negative definiteness, computed two ways when both apply
    (``definite_det``)."""
    return definite_det(graph) is not None


def h1_order(graph: PlumbingGraph) -> int:
    """|det Q|: the order of the first homology of the plumbed boundary."""
    return abs(det(adjacency_matrix(graph)))


def _legs_are_continued_fractions(graph: PlumbingGraph) -> bool:
    return all(w <= -2 for leg in graph.legs for w in leg)


# Text format, one graph per file:
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
        try:
            weights = [int(v) for v in values]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer weight in {line!r}") from None
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
