"""Star-shaped plumbing graphs and their intersection forms.

The double branched cover of a Montesinos link in negative form bounds the
plumbing on a star: one central vertex carrying e, and one linear leg per
tangle carrying its continued fraction coefficients, the entry adjacent to
the central vertex first.  Vertices are indexed central first, then the
legs in order, each from the central end outward, so matrices are
reproducible; ``adjacency_matrix`` is the one function that lays q out in
that order.

A graph's definiteness has one rule, the library's only one, ``tree_det``:
one elimination along the tree in O(k), for any weights, which also gives
det q.  The graph's guard ``PlumbingGraph.definite_form`` reads it and
nothing else, and it is the one way to build an ``intmat.Definite``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import index

from .cfrac import _expand, cf_expand
from .errors import NotNegativeDefiniteError, ParseError
from .intmat import Definite, Matrix
from .montesinos import _INTEGER, MontesinosLink, StandardForm, _scaled_epsilon, reflect

__all__ = [
    "PlumbingGraph",
    "build_graph",
    "oriented_graph",
    "adjacency_matrix",
    "tree_det",
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

    @cached_property
    def definite_form(self) -> Definite:
        """``adjacency_matrix(self)`` as a ``Definite`` carrying det q,
        computed at most once per graph object; a plumbing that is not
        negative definite raises ``NotNegativeDefiniteError``.

        Definiteness and det q come from ``tree_det``, one O(k) elimination
        along the tree and the one definiteness rule of the library, and the
        ``Definite`` is built from them by the trusted constructor
        ``Definite._from_validated``, the one way to build one: q is laid
        out once, only when it is definite.

        A read that raises stores nothing, so it raises again on the next
        read.  ``cached_property`` keeps the form in the instance
        ``__dict__``, outside the fields, so it changes neither equality nor
        hashing, and a pickled or copied graph carries it along.
        """
        d = tree_det(self)
        if d is None:
            raise NotNegativeDefiniteError("the plumbing is not negative definite")
        return Definite._from_validated(adjacency_matrix(self), d)


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
    an entry 1 for every tree edge, 0 elsewhere.  It is the one function
    that lays out q, for the graph's guard and for the search's sorted
    star alike, in the vertex order of the module docstring.

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


def tree_det(graph: PlumbingGraph) -> int | None:
    """det q when the graph's q is negative definite, None when it is not:
    one symmetric elimination along the tree, in O(k) steps.

    Each leg is eliminated from its far end toward the centre, and the
    centre last.  Eliminating a vertex with one uneliminated neighbour
    changes only that neighbour's diagonal entry, so on a tree nothing is
    filled in.  The pivots of a leg a1, ..., ah (a1 next to the centre) are
    its tails ah, a(h-1) - 1/ah, ..., the ratios p/q of consecutive
    continuants, carried as integers by the recurrence p, q = a*p - q, p
    from p, q = 1, 0.  The centre's pivot is e minus q/p over the legs,
    summed as one fraction num/den of integers.  No pivot is ever divided
    by.

    The pivots of a symmetric elimination are the ratios of the leading
    principal minors of q in the elimination order, a congruent form, so
    by Sylvester's criterion q is negative definite exactly when every
    pivot is negative: p * q < 0 for each leg pivot and num * den < 0 for
    the centre's.  This holds for any weights, not only legs <= -2.  The
    test returns None at the first pivot that is not negative.  det q is
    the product of the pivots.  A leg's telescopes to its last p, den is
    the product of those, so det q = num.

    When every leg weight is <= -2, each leg's pivots are continued-fraction
    tails below -1, so they all pass, and the centre's pivot is the Euler
    number of the Seifert fibration, e - sum of 1/value(leg): the Seifert
    sign test is this function's last step, not a second rule.  Its
    ``Fraction`` value is the tests' reference
    (``tests/references.seifert_euler_number``), and the tests hold the
    whole function to a dense Bareiss elimination of q.  Demo 03 prints
    det q beside the link's eps.
    """
    num, den = graph.central_weight, 1
    for leg in graph.legs:
        p, q = 1, 0
        for a in reversed(leg):
            p, q = a * p - q, p
            if p * q >= 0:
                return None
        num, den = num * p - q * den, den * p
    return num if num * den < 0 else None


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
