"""Laufer's computation sequence on negative definite plumbing forms.

Starting from the all-ones cycle, repeatedly look at the pairing vector
Q * K: a pairing >= 2 anywhere stops with "not a rational singularity", a
pairing equal to 1 increments that coordinate, and all pairings <= 0 stop
with the fundamental cycle of a rational singularity.  For the star-shaped
graphs built from Montesinos links this verdict decides whether the double
branched cover is an L-space; that equivalence is only invoked through
:func:`is_lspace`, never for arbitrary graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

from .errors import NotNegativeDefiniteError, StepLimitError
from .intmat import Matrix, freeze, is_negative_definite_matrix, mat_vec
from .montesinos import MontesinosLink, to_standard_form
from .plumbing import adjacency_matrix, is_negative_definite, oriented_graph

__all__ = ["LauferVerdict", "LauferResult", "laufer_run", "is_lspace"]


class LauferVerdict(str, Enum):
    RATIONAL = "Rational"
    NOT_RATIONAL = "NotRational"


@dataclass(frozen=True)
class LauferResult:
    verdict: LauferVerdict
    steps: int
    cycle: tuple[int, ...]
    witness: int | None  # vertex with pairing >= 2 when NOT_RATIONAL


Policy = Union[str, Callable[[Sequence[int]], int]]


def _select(policy: Policy, candidates: list[int]) -> int:
    if policy == "lowest":
        return candidates[0]
    if policy == "highest":
        return candidates[-1]
    if callable(policy):
        choice = policy(candidates)
        if choice not in candidates:
            raise ValueError(f"policy picked {choice}, not among {candidates}")
        return choice
    raise ValueError(f"unknown selection policy {policy!r}")


def laufer_run(q: Matrix, policy: Policy = "lowest",
               step_limit: int = 1_000_000) -> LauferResult:
    """Run the computation sequence on a symmetric negative definite matrix.

    The verdict (and the final cycle in the rational case) does not depend
    on the selection policy; the policy only fixes which eligible vertex is
    incremented, and which witness is reported, when there is a choice.
    """
    q = freeze(q)
    if not is_negative_definite_matrix(q):
        raise NotNegativeDefiniteError(
            "the computation sequence requires a negative definite matrix")
    k = len(q)
    cycle = [1] * k
    for step in range(step_limit + 1):
        pairing = mat_vec(q, cycle)
        high = [j for j, v in enumerate(pairing) if v >= 2]
        if high:
            return LauferResult(LauferVerdict.NOT_RATIONAL, step, tuple(cycle),
                                _select(policy, high))
        ones = [j for j, v in enumerate(pairing) if v == 1]
        if not ones:
            return LauferResult(LauferVerdict.RATIONAL, step, tuple(cycle), None)
        cycle[_select(policy, ones)] += 1
    raise StepLimitError(f"no termination within {step_limit} steps")


def is_lspace(link: MontesinosLink) -> bool:
    """Whether the double branched cover of the link is an L-space.

    Requires nonzero determinant (a rational homology sphere).  The link is
    oriented by ``oriented_graph`` so that eps < 0, which makes the plumbing
    of its negative form negative definite; the L-space property does not
    depend on that orientation choice.
    """
    _, graph = oriented_graph(to_standard_form(link))
    if not is_negative_definite(graph):  # cannot happen when eps < 0
        raise NotNegativeDefiniteError("oriented plumbing is not negative definite")
    result = laufer_run(adjacency_matrix(graph))
    return result.verdict is LauferVerdict.RATIONAL
