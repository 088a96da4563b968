"""Laufer's computation sequence on negative definite plumbing forms.

Starting from the all-ones cycle, repeatedly look at the pairing vector
Q * K: a pairing >= 2 anywhere stops with "not a rational singularity", a
pairing equal to 1 increments that coordinate, and all pairings <= 0 stop
with the fundamental cycle of a rational singularity.  The pairing vector
is kept equal to Q * K by adding row i of Q whenever K gains E_i.  For the
star-shaped graphs built from Montesinos links this verdict decides
whether the double branched cover is an L-space; that equivalence is used
only by ``classifier.verify``, on the plumbing of a link's oriented side,
never for arbitrary graphs.

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

from .errors import StepLimitError
from .intmat import Definite, Matrix

__all__ = ["LauferVerdict", "LauferResult", "laufer_run"]

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

    ``q`` is guarded by ``Definite(q)``: a ``Definite``, such as a graph's
    ``definite_form``, passes as it is, and any other matrix (list rows
    included) is frozen and eliminated once, raising ``ValueError`` when it
    is not an integer symmetric matrix and ``NotNegativeDefiniteError``
    when it is not negative definite.

    Each step increments the lowest vertex with pairing 1, and a
    non-rational verdict reports the lowest vertex with pairing >= 2.  The
    verdict, and the final cycle in the rational case, do not depend on
    which eligible vertex is incremented (Laufer 1972).  ``pairing`` is Q * K:
    the row sums of Q, plus row i (column i of the symmetric Q) per E_i added.
    """
    q = Definite(q)
    cycle = [1] * len(q)
    pairing = [sum(row) for row in q]
    for step in range(STEP_LIMIT + 1):
        witness = next((j for j, v in enumerate(pairing) if v >= 2), None)
        if witness is not None:
            return LauferResult(LauferVerdict.NOT_RATIONAL, step, tuple(cycle),
                                witness)
        if 1 not in pairing:
            return LauferResult(LauferVerdict.RATIONAL, step, tuple(cycle), None)
        i = pairing.index(1)
        cycle[i] += 1
        pairing = [v + w for v, w in zip(pairing, q[i])]
    raise StepLimitError(f"no termination within {STEP_LIMIT} steps")
