"""Quasi-alternating classification and its independent verification.

``classify`` decides quasi-alternating status from the standard-form
parameters alone: with determinant nonzero, the link is quasi-alternating
exactly when

    (1) e < 1, or
    (2) e = 1     and alpha_i/(alpha_i - beta_i) > alpha_j/beta_j for some i != j, or
    (3) e > p - 1, or
    (4) e = p - 1 and alpha_i/(alpha_i - beta_i) < alpha_j/beta_j for some i != j,

with all inequalities strict.  ``_conditions`` is the one place these
four conditions are evaluated: ``classify`` takes its verdict from the
first that holds, and ``explain`` prints its rows from the same pass.
``verify`` re-derives the same answer from
first principles: orient the link so eps < 0, build the negative definite
plumbing, test the L-space property via the singularity computation
sequence, and then hunt for a lattice embedding with surjective transpose.
On every input, classify says QA exactly when verify reaches
PositiveCheck; the acceptance suite drives that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod
from operator import index
from typing import Iterator

from .errors import InternalError, NotNegativeDefiniteError
from .lattice import ObstructionResult, qa_lattice_obstruction
from .laufer import LauferResult, LauferVerdict, laufer_run
from .montesinos import (MontesinosLink, StandardForm, _scaled_epsilon,
                         canonical_form, format_link, reflect, to_negative_form,
                         to_standard_form)
from .plumbing import PlumbingGraph, format_graph, oriented_graph

__all__ = [
    "Status",
    "Reason",
    "Branch",
    "Verdict",
    "Evidence",
    "classify",
    "verify",
    "enumerate_family",
    "explain",
    "render_explain",
]


class Status(str, Enum):
    QA = "QA"
    NOT_QA = "NotQA"


class Reason(str, Enum):
    CONDITION1 = "Condition1"
    CONDITION2 = "Condition2"
    CONDITION3 = "Condition3"
    CONDITION4 = "Condition4"
    DET_ZERO = "DetZero"
    NO_CONDITION = "NoConditionHolds"


class Branch(str, Enum):
    LAUFER_NOT_LSPACE = "LauferNotLSpace"
    LATTICE_OBSTRUCTED = "LatticeObstructed"
    DET_ZERO = "DetZero"
    POSITIVE_CHECK = "PositiveCheck"


@dataclass(frozen=True, init=False)
class Verdict:
    """What ``classify`` decided, with the (N, A) of ``_scaled_epsilon`` it
    read: eps = N/A with A > 0, and det = |N|.

    ``epsilon`` is made from N and A each time it is read, and
    ``epsilon_text`` prints it from the integers, so a verdict that is only
    printed builds no ``Fraction``.  The constructor stores every field in
    one write to the instance ``__dict__``; the class stays frozen.
    """

    status: Status
    reason: Reason
    witness_pair: tuple[int, int] | None  # 0-based tangle indices for (2)/(4)
    normalized: StandardForm
    scaled_epsilon: tuple[int, int]
    det: int = field(init=False)

    def __init__(self, status: Status, reason: Reason,
                 witness_pair: tuple[int, int] | None, normalized: StandardForm,
                 scaled_epsilon: tuple[int, int]):
        object.__setattr__(self, "__dict__", {
            "status": status, "reason": reason, "witness_pair": witness_pair,
            "normalized": normalized, "scaled_epsilon": scaled_epsilon,
            "det": abs(scaled_epsilon[0])})

    @property
    def epsilon(self) -> Fraction:
        """eps = N/A, reduced."""
        return Fraction(*self.scaled_epsilon)

    @property
    def epsilon_text(self) -> str:
        """``numerator/denominator`` of ``epsilon``, read off N and A: A > 0,
        so N/g over A/g with g = gcd(N, A) is the reduced pair, the sign on
        the numerator, and N = 0 gives 0/1."""
        n, a = self.scaled_epsilon
        g = gcd(n, a)
        return f"{n // g}/{a // g}"


@dataclass(frozen=True)
class Evidence:
    """What ``verify`` derived; ``side`` and ``graph`` are None on DetZero."""

    branch: Branch
    reflected: bool
    side: StandardForm | None  # the oriented standard form, eps < 0
    graph: PlumbingGraph | None  # the plumbing of its negative form
    laufer: LauferResult | None
    obstruction: ObstructionResult | None


def _strict_pair(std: StandardForm, bigger_reflected: bool) -> tuple[int, int] | None:
    """First (i, j), i != j, with refl(t_i) > t_j (or < for condition 4).

    In standard form 0 < beta < alpha, so both denominators of
    alpha_i/(alpha_i - beta_i) and alpha_j/beta_j are positive, and
    multiplying through by them keeps the direction of the inequality:
    refl(t_i) > t_j exactly when alpha_i*beta_j > alpha_j*(alpha_i - beta_i).
    Both sides are integers, so the comparison is exact.
    """
    pairs = std.pairs
    for i, (alpha_i, beta_i) in enumerate(pairs):
        for j, (alpha_j, beta_j) in enumerate(pairs):
            if i == j:
                continue
            lhs, rhs = alpha_i * beta_j, alpha_j * (alpha_i - beta_i)
            if (lhs > rhs) if bigger_reflected else (lhs < rhs):
                return (i, j)
    return None


def _conditions(std: StandardForm) -> tuple[tuple[Reason, bool, tuple[int, int] | None], ...]:
    """(reason, holds, witness pair) for conditions (1), (3), (2), (4), in that order.

    (2) and (4) search for a pair only when e sits on their boundary, 1 and
    p - 1, so at most one search runs unless p = 2.
    """
    e, p = std.e, std.p
    pair2 = _strict_pair(std, True) if e == 1 else None
    pair4 = _strict_pair(std, False) if e == p - 1 else None
    return ((Reason.CONDITION1, e < 1, None),
            (Reason.CONDITION3, e > p - 1, None),
            (Reason.CONDITION2, pair2 is not None, pair2),
            (Reason.CONDITION4, pair4 is not None, pair4))


def classify(link: MontesinosLink) -> Verdict:
    """Decide quasi-alternating status from the normalized parameters.

    A zero determinant short-circuits to NotQA.  Otherwise the verdict is
    the first condition of ``_conditions`` that holds; for p = 1 one of (1)
    and (3) always holds, so such links are always QA.
    """
    std = to_standard_form(link)
    scaled = _scaled_epsilon(std)  # eps = N/A and det = |N|, from one pass
    if scaled[0] == 0:
        return Verdict(Status.NOT_QA, Reason.DET_ZERO, None, std, scaled)
    for reason, holds, pair in _conditions(std):
        if holds:
            return Verdict(Status.QA, reason, pair, std, scaled)
    return Verdict(Status.NOT_QA, Reason.NO_CONDITION, None, std, scaled)


def verify(link: MontesinosLink) -> Evidence:
    """Re-derive the verdict from the two obstructions.

    Orient by reflection so eps < 0 and build the (then negative definite)
    plumbing with ``oriented_graph``, which reads the link's scaled eps once
    for both; a zero eps has no such side, and the
    ``NotNegativeDefiniteError`` it raises settles DetZero.  Then run the
    computation sequence; a non-rational singularity means no L-space and
    settles NotQA.  Otherwise search for a lattice embedding with surjective
    transpose: obstructed means NotQA, a witness completes the positive
    check.  The evidence carries the oriented side and its graph, so
    callers such as ``explain`` need not derive them again.

    The plumbing's q is eliminated once per link, by the graph's guard
    ``definite_form``, and both halves take it from there.  eps < 0 makes
    the plumbing negative definite, so a ``NotNegativeDefiniteError`` from
    the guard is a bug, not a bad input, and is raised again as an
    ``InternalError`` naming the link.
    """
    std = to_standard_form(link)
    try:
        side, graph = oriented_graph(std)
    except NotNegativeDefiniteError:  # eps = 0: the determinant is zero
        return Evidence(Branch.DET_ZERO, False, None, None, None, None)
    reflected = side is not std
    try:
        q = graph.definite_form
    except NotNegativeDefiniteError:
        raise InternalError(
            f"the eps < 0 side {format_link(side)} of {format_link(link)} "
            "has a plumbing that is not negative definite") from None
    laufer = laufer_run(q)
    if laufer.verdict is LauferVerdict.NOT_RATIONAL:
        return Evidence(Branch.LAUFER_NOT_LSPACE, reflected, side, graph, laufer, None)
    obstruction = qa_lattice_obstruction(graph)
    branch = Branch.LATTICE_OBSTRUCTED if obstruction.obstructed else Branch.POSITIVE_CHECK
    return Evidence(branch, reflected, side, graph, laufer, obstruction)


def enumerate_family(p_max: int, alpha_max: int, e_min: int, e_max: int,
                     p_min: int = 1) -> Iterator[StandardForm]:
    """Canonical-form links with p in [p_min, p_max], alpha <= alpha_max, e in range.

    Tangle multisets are deduplicated; the order (p ascending, e ascending,
    multisets lexicographic over the descending tangle list) is deterministic.
    Invalid bounds raise ``ValueError`` at the call, before any link is
    produced; so does a bound that is not an integer.

    Each distinct tangle is validated once, as a one-tangle ``StandardForm``;
    every link is then built from those pairs by
    ``StandardForm._from_validated``, which re-checks nothing, so the walk
    builds one ``Fraction`` per distinct tangle, to sort them, and none per
    link.  It is lazy and holds one pair per tangle, never the multisets of
    a p.
    """
    p_max, alpha_max, e_min, e_max, p_min = (
        _integer_bound(name, value) for name, value in
        (("p_max", p_max), ("alpha_max", alpha_max), ("e_min", e_min),
         ("e_max", e_max), ("p_min", p_min)))
    if p_min < 1 or p_max < p_min:
        raise ValueError(f"invalid tangle-count range {p_min}..{p_max}")
    if alpha_max < 2:
        raise ValueError(f"alpha_max must be at least 2, got {alpha_max}")
    if e_min > e_max:
        raise ValueError(f"empty e range {e_min}..{e_max}")
    return _family(p_min, p_max, alpha_max, e_min, e_max)


def _integer_bound(name: str, value) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _family(p_min: int, p_max: int, alpha_max: int, e_min: int,
            e_max: int) -> Iterator[StandardForm]:
    tangles = sorted((Fraction(a, b)
                      for a in range(2, alpha_max + 1)
                      for b in range(1, a) if gcd(a, b) == 1),
                     reverse=True)
    pairs = [StandardForm(0, (t,)).pairs[0] for t in tangles]
    build = StandardForm._from_validated
    for p in range(p_min, p_max + 1):
        for e in range(e_min, e_max + 1):
            for combo in combinations_with_replacement(pairs, p):
                yield build(e, combo)


def _condition_rows(std: StandardForm) -> list[dict]:
    """One row per condition of ``_conditions``, with a detail line."""
    e, p = std.e, std.p
    rows = []
    for reason, holds, pair in _conditions(std):
        if reason is Reason.CONDITION1:
            detail = f"e = {e} < 1: {'yes' if holds else 'no'}"
        elif reason is Reason.CONDITION3:
            detail = f"e = {e} > p - 1 = {p - 1}: {'yes' if holds else 'no'}"
        else:
            detail = _pair_detail(std, reason is Reason.CONDITION2, pair)
        rows.append({"name": reason.value, "holds": holds, "detail": detail})
    return rows


def _pair_detail(std: StandardForm, bigger: bool, pair: tuple[int, int] | None) -> str:
    """Detail of (2) (``bigger``) or (4) given its witness pair, or None."""
    boundary, op = (1, ">") if bigger else (std.p - 1, "<")
    if std.e != boundary:
        return f"e = {std.e} != {boundary}: not applicable"
    reflected = reflect(std).tangles  # alpha_i/(alpha_i - beta_i)
    holds = pair is not None
    if not holds:
        # Report the closest failing pair so the numbers are visible.
        gaps = ((reflected[i] - std.tangles[j] if bigger else std.tangles[j] - reflected[i],
                 i, j) for i in range(std.p) for j in range(std.p) if i != j)
        closest = max(gaps, key=lambda gap: gap[0], default=None)
        if closest is None:
            return f"e = {boundary} but p = 1: no pair i != j"
        pair = closest[1:]
    i, j = pair
    comparison = (f"alpha_{i}/(alpha_{i}-beta_{i}) = {reflected[i]} "
                  f"{op} alpha_{j}/beta_{j} = {std.tangles[j]}")
    if holds:
        return f"e = {boundary} and {comparison}: yes"
    return f"e = {boundary} but {comparison} fails"


def explain(link: MontesinosLink, evidence: Evidence | None = None,
            verdict: Verdict | None = None) -> dict:
    """Structured classification trace; JSON-friendly throughout.

    Given ``evidence``, the result of ``verify(link)``, the report also
    carries the reflection decision, the plumbing graph, a summary of the
    computation sequence, and the embedding search statistics.  A caller
    that already holds ``classify(link)`` passes it as ``verdict``, so the
    link is not classified again.
    """
    if verdict is None:
        verdict = classify(link)
    std = verdict.normalized

    normalization = []
    for idx, (t, (alpha, beta)) in enumerate(zip(link.tangles, link.pairs)):
        shift = ((beta % alpha) - beta) // alpha
        if shift:
            normalization.append(
                f"tangle {idx}: {t} -> {std.tangles[idx]} (e adjusted by {shift})")
    if not normalization:
        normalization.append("already in standard form")

    terms = " - ".join(f"{b}/{a}" for a, b in std.pairs)
    det_computation = f"|{prod(a for a, _ in std.pairs)}({std.e} - {terms})| = {verdict.det}"

    report = {
        "input": format_link(link),
        "standard_form": format_link(std),
        "canonical_form": format_link(canonical_form(std)),
        "normalization": normalization,
        "epsilon": verdict.epsilon_text,
        "det": verdict.det,
        "det_computation": det_computation,
        "conditions": _condition_rows(std),
        "status": verdict.status.value,
        "reason": verdict.reason.value,
        "witness_pair": list(verdict.witness_pair) if verdict.witness_pair else None,
        "verify": None,
    }
    if evidence is not None:
        report["verify"] = _verify_trace(evidence)
    return report


def _verify_trace(evidence: Evidence) -> dict:
    trace: dict = {"branch": evidence.branch.value, "reflected": evidence.reflected}
    if evidence.branch is Branch.DET_ZERO:
        return trace
    trace["oriented_form"] = format_link(evidence.side)
    trace["negative_form"] = format_link(to_negative_form(evidence.side))
    trace["graph"] = format_graph(evidence.graph).strip().splitlines()
    laufer = evidence.laufer
    trace["laufer"] = {
        "verdict": laufer.verdict.value,
        "steps": laufer.steps,
        "cycle": list(laufer.cycle),
        "witness": laufer.witness,
    }
    if evidence.obstruction is not None:
        obstruction = evidence.obstruction
        trace["embedding_search"] = {
            "obstructed": obstruction.obstructed,
            "nodes": obstruction.nodes,
            "leaves": obstruction.leaves,
            "pruned": obstruction.pruned,
            "witness_rank": obstruction.witness_n,
            "witness_rows": ([list(row) for row in obstruction.witness]
                             if obstruction.witness else None),
        }
    return trace


def render_explain(report: dict) -> str:
    """Human-readable rendering of an explain report."""
    lines = [f"link:           {report['input']}",
             f"standard form:  {report['standard_form']}",
             f"canonical form: {report['canonical_form']}"]
    for step in report["normalization"]:
        lines.append(f"  normalize: {step}")
    lines.append(f"epsilon:        {report['epsilon']}")
    lines.append(f"determinant:    {report['det_computation']}")
    for row in report["conditions"]:
        mark = "holds" if row["holds"] else "fails"
        lines.append(f"  {row['name']}: {mark}  ({row['detail']})")
    lines.append(f"verdict:        {report['status']} ({report['reason']})")
    if report["witness_pair"] is not None:
        lines.append(f"witness pair:   {tuple(report['witness_pair'])}")
    trace = report.get("verify")
    if trace:
        lines.append(f"verify branch:  {trace['branch']}"
                     f" (reflected: {'yes' if trace['reflected'] else 'no'})")
        if "negative_form" in trace:
            lines.append(f"  oriented form: {trace['oriented_form']}")
            lines.append(f"  negative form: {trace['negative_form']}")
            lines.append("  graph: " + "; ".join(trace["graph"]))
            laufer = trace["laufer"]
            lines.append(f"  laufer: {laufer['verdict']} after {laufer['steps']} steps,"
                         f" cycle {laufer['cycle']}, witness {laufer['witness']}")
            search = trace.get("embedding_search")
            if search:
                lines.append(f"  search tree: {search['nodes']} columns placed,"
                             f" {search['leaves']} leaves, {search['pruned']} pruned mod p")
                if search["witness_rows"] is not None:
                    lines.append(f"  surjective witness at n={search['witness_rank']}:")
                    for row in search["witness_rows"]:
                        lines.append("    " + " ".join(f"{v:3d}" for v in row))
                else:
                    lines.append("  no embedding has surjective transpose")
    return "\n".join(lines)
