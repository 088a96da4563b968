"""Laufer's computation sequence on negative definite plumbing forms.

Starting from the all-ones cycle, repeatedly look at the pairing vector
Q * K: a pairing >= 2 anywhere stops with "not a rational singularity", a
pairing equal to 1 increments that coordinate, and all pairings <= 0 stop
with the fundamental cycle of a rational singularity.  For the star-shaped
graphs built from Montesinos links this verdict decides whether the double
branched cover is an L-space; that equivalence is only invoked through
:func:`is_lspace`, never for arbitrary graphs.

References:

* H. B. Laufer, "On rational singularities", Amer. J. Math. 94 (1972):
  the computation sequence and its rationality criterion.
* A. Némethi, "On the Ozsváth–Szabó invariant of negative definite plumbed
  3-manifolds", Geom. Topol. 9 (2005): for star-shaped negative definite
  plumbings, the link is an L-space exactly when the singularity is
  rational.
* P. Ozsváth and Z. Szabó, "On the Heegaard Floer homology of branched
  double-covers", Adv. Math. 194 (2005): the double branched cover of a
  quasi-alternating link is an L-space, so a non-rational verdict rules a
  link out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InternalError, NotNegativeDefiniteError, StepLimitError
from .intmat import Matrix, freeze, is_negative_definite_matrix, mat_vec
from .montesinos import MontesinosLink, to_standard_form
from .plumbing import adjacency_matrix, is_negative_definite, oriented_graph

__all__ = ["LauferVerdict", "LauferResult", "laufer_run", "is_lspace"]

STEP_LIMIT = 1_000_000  # a guard; on a negative definite form the sequence ends


class LauferVerdict(str, Enum):
    RATIONAL = "Rational"
    NOT_RATIONAL = "NotRational"


@dataclass(frozen=True)
class LauferResult:
    verdict: LauferVerdict
    steps: int
    cycle: tuple[int, ...]
    witness: int | None  # vertex with pairing >= 2 when NOT_RATIONAL


def laufer_run(q: Matrix) -> LauferResult:
    """Run the computation sequence on a symmetric negative definite matrix.

    Each step increments the lowest vertex with pairing 1, and a
    non-rational verdict reports the lowest vertex with pairing >= 2.  The
    verdict, and the final cycle in the rational case, do not depend on
    which eligible vertex is incremented (Laufer 1972).
    """
    q = freeze(q)
    if not is_negative_definite_matrix(q):
        raise NotNegativeDefiniteError(
            "the computation sequence requires a negative definite matrix")
    k = len(q)
    cycle = [1] * k
    for step in range(STEP_LIMIT + 1):
        pairing = mat_vec(q, cycle)
        high = [j for j, v in enumerate(pairing) if v >= 2]
        if high:
            return LauferResult(LauferVerdict.NOT_RATIONAL, step, tuple(cycle),
                                high[0])
        ones = [j for j, v in enumerate(pairing) if v == 1]
        if not ones:
            return LauferResult(LauferVerdict.RATIONAL, step, tuple(cycle), None)
        cycle[ones[0]] += 1
    raise StepLimitError(f"no termination within {STEP_LIMIT} steps")


def is_lspace(link: MontesinosLink) -> bool:
    """Whether the double branched cover of the link is an L-space.

    Requires nonzero determinant (a rational homology sphere).  The link is
    oriented by ``oriented_graph`` so that eps < 0, which makes the plumbing
    of its negative form negative definite; the L-space property does not
    depend on that orientation choice.
    """
    _, graph = oriented_graph(to_standard_form(link))
    if not is_negative_definite(graph):  # cannot happen when eps < 0
        raise InternalError("oriented plumbing is not negative definite")
    result = laufer_run(adjacency_matrix(graph))
    return result.verdict is LauferVerdict.RATIONAL
