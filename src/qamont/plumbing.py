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
from operator import index

from .cfrac import _expand, cf_expand
from .errors import InternalError, ParseError
from .intmat import Matrix, negative_definite_det
from .montesinos import _INTEGER, MontesinosLink, StandardForm, _scaled_epsilon, reflect

__all__ = [
    "PlumbingGraph",
    "build_graph",
    "oriented_graph",
    "adjacency_matrix",
    "negative_definite_by_sign",
    "definite_det",
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
            legs = tuple(tuple(map(index, leg)) for leg in self.legs)
        except TypeError as exc:
            raise ValueError(f"leg weights must be integers: {exc}") from None
        for leg in legs:
            if not leg:
                raise ValueError("legs must be nonempty")
        object.__setattr__(self, "central_weight", central_weight)
        object.__setattr__(self, "legs", legs)

    @classmethod
    def _from_validated(cls, central_weight: int,
                        legs: tuple[tuple[int, ...], ...]) -> PlumbingGraph:
        """Build the graph from weights already validated; nothing is checked.

        It is sound when ``central_weight`` is an ``int`` and ``legs`` is a
        tuple of nonempty tuples of ``int``s: that is all ``__post_init__``
        checks or stores, so the result equals ``PlumbingGraph(central_weight,
        legs)`` field for field.  Two callers meet this by construction:

        * ``oriented_graph``: the central weight is e - p of a standard
          form, and each leg is a tuple from ``_expand``, which appends at
          least one integer quotient;
        * ``lattice._sorted_star``: the weights and legs of a graph that
          was validated, in another leg order.

        A classmethod, as ``StandardForm._from_validated`` is, so that the
        tracer in ``perfbench/tracing.py`` does not add a span per call.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "central_weight", central_weight)
        object.__setattr__(graph, "legs", legs)
        return graph

    @property
    def vertex_count(self) -> int:
        return 1 + sum(len(leg) for leg in self.legs)


def build_graph(link: MontesinosLink) -> PlumbingGraph:
    """Plumbing graph of a link in negative form (every tangle < -1);
    ``cf_expand`` raises ``ValueError`` on any other tangle.  A standard
    form goes through ``oriented_graph`` instead; ``perfbench/workloads.py``
    builds its reference graphs here."""
    return PlumbingGraph(link.e, tuple(cf_expand(t) for t in link.tangles))


def oriented_graph(link: StandardForm) -> tuple[StandardForm, PlumbingGraph]:
    """The side of the link with eps < 0 and the plumbing of its negative form.

    The link is reflected when eps > 0; reflection negates eps, so the
    returned side differs from the input exactly when it was reflected.
    With eps < 0 the plumbing is negative definite.  A zero eps (zero
    determinant) has no such side and is rejected.  eps = N/A with A > 0
    (``_scaled_epsilon``), so its sign is that of the integer N.

    The graph is ``build_graph(to_negative_form(side))``, built on integers:
    the negative form of a standard tangle alpha/beta is
    (-alpha)/(alpha - beta), already reduced with a positive denominator, so
    its leg is ``_expand(-alpha, alpha - beta)`` on the side's ``pairs``,
    and the central weight is e - p.  Both are integers by construction, so
    the graph is built by ``PlumbingGraph._from_validated``.
    """
    n, _ = _scaled_epsilon(link)
    if n == 0:
        raise ValueError(
            "determinant zero: the double branched cover is not a rational homology sphere")
    side = reflect(link) if n > 0 else link
    legs = tuple(_expand(-alpha, alpha - beta) for alpha, beta in side.pairs)
    return side, PlumbingGraph._from_validated(side.e - side.p, legs)


def adjacency_matrix(graph: PlumbingGraph) -> Matrix:
    """Symmetric k x k weighted adjacency matrix: weights on the diagonal,
    an entry 1 for every tree edge, 0 elsewhere.

    It needs no ``freeze``: the graph's weights were validated as ``int``s
    when it was built, every other entry is the literal 0 or 1, and every
    row has k entries, so the rows are already a ``Matrix``."""
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
    return tuple(map(tuple, m))


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


def definite_det(graph: PlumbingGraph) -> int | None:
    """det Q when the plumbing is negative definite, None when it is not;
    definiteness is computed two ways when both apply.

    The exact test on the adjacency matrix (the sign alternation of its
    leading principal minors, ``negative_definite_det``) always applies,
    and its last minor is det Q.  When every leg entry is <= -2 the sign
    test applies as well and the two must agree; a mismatch would be a
    bug, not a property of the input.  It is the guard of the public
    ``qa_lattice_obstruction``.
    """
    return _definite_det(graph, adjacency_matrix(graph))


def _definite_det(graph: PlumbingGraph, q: Matrix) -> int | None:
    """``definite_det`` on the caller's ``adjacency_matrix(graph)``, ``q``.

    ``classifier.verify`` and ``cli.cmd_embed --all`` go on to use that q
    themselves, so this one elimination is the only guard on their path."""
    d = negative_definite_det(q)
    if _legs_are_continued_fractions(graph):
        if negative_definite_by_sign(graph) != (d is not None):
            raise InternalError(
                f"definiteness checks disagree on {format_graph(graph)!r}")
    return d


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
