"""The paper's supporting lemmas as checks on embeddings: unit minors,
leg truncation (r + s = 1) and support rigidity.  No program path needs
them: ``verify`` decides through Laufer's sequence and the exhaustive
embedding search.  Acceptance criteria 5-7 and ``tests/test_lattice.py``
hold the embeddings that ``all_embeddings`` yields to them, in its walk
order."""

from __future__ import annotations

from typing import Iterable, Sequence

from qamont.errors import InternalError
from qamont.intmat import Matrix
from references import det, gram_matrix, prefix_r


class TruncationNotFoundError(InternalError):
    """No prefix truncation with r0 + s0 = 1 exists although the precondition held.

    This can only happen if a guaranteed combinatorial invariant fails, so it
    is treated as an internal error, never as a normal result.
    """


def minor_check(emb: Matrix, cols: Iterable[int]) -> int:
    """Determinant of the square minor induced by a supported column subset.

    The selected columns' nonzero entries must lie in exactly as many rows
    as there are columns.  When the transpose of the embedding is
    surjective this determinant is +-1; finding any other value certifies
    an obstruction.
    """
    chosen = list(cols)
    if not chosen:
        raise ValueError("need at least one column")
    k = len(emb[0]) if emb else 0
    if len(set(chosen)) != len(chosen) or not all(0 <= c < k for c in chosen):
        raise ValueError(f"invalid column subset {chosen}")
    rows = sorted(support_set(emb, chosen))
    if len(rows) != len(chosen):
        raise ValueError(
            f"support condition violated: {len(chosen)} columns touch {len(rows)} rows")
    return det(tuple(tuple(emb[r][c] for c in chosen) for r in rows))


def support_set(emb: Matrix, vertices: Iterable[int]) -> frozenset[int]:
    """Coordinates (row indices) touched by the selected columns."""
    chosen = set(vertices)
    return frozenset(r for r in range(len(emb))
                     if any(emb[r][c] for c in chosen))


def truncate_legs(cf1: Sequence[int], cf2: Sequence[int]) -> tuple[int, int]:
    """Prefix lengths (l1, l2) with prefix_r(cf1, l1) + prefix_r(cf2, l2) = 1.

    Requires the full values to satisfy r + s >= 1; a truncation then always
    exists and is found by exhaustive search over prefix pairs (smallest l1,
    then smallest l2).  Legs taken from a plumbing graph are stored with the
    central-adjacent entry first and should be reversed before calling, so
    prefixes count vertices moving in from the far end of the leg.
    """
    r1 = [prefix_r(cf1, l) for l in range(1, len(cf1) + 1)]
    r2 = [prefix_r(cf2, l) for l in range(1, len(cf2) + 1)]
    if r1[-1] + r2[-1] < 1:
        raise ValueError(f"full values give r + s = {r1[-1] + r2[-1]} < 1")
    for l1, a in enumerate(r1, start=1):
        for l2, b in enumerate(r2, start=1):
            if a + b == 1:
                return l1, l2
    raise TruncationNotFoundError(
        "no prefix pair sums to 1; this contradicts a guaranteed invariant")


def rigidity_check(emb: Matrix, psi1: Sequence[int], psi2: Sequence[int]) -> bool:
    """Support rigidity of a two-chain sublattice with r + s = 1.

    ``psi1`` and ``psi2`` are disjoint ordered vertex chains of the embedded
    graph: consecutive vertices pair to 1, all other pairs among them to 0,
    and every weight is <= -2.  Writing -1/r and -1/s for the chain values,
    the check demands r + s = 1 and a shared coordinate between the two
    first vertices; it then reports whether the two chains touch the same
    coordinate set and together touch exactly as many coordinates as they
    have vertices.  Both facts always hold under the stated hypotheses, so
    this is a theorem-shaped test, not a filter.
    """
    chain1 = tuple(psi1)
    chain2 = tuple(psi2)
    if not chain1 or not chain2:
        raise ValueError("both chains must be nonempty")
    indices = chain1 + chain2
    if len(set(indices)) != len(indices):
        raise ValueError("chains must be disjoint and duplicate-free")
    if not all(0 <= v < len(emb[0]) for v in indices):
        raise ValueError("vertex index out of range")

    pair = gram_matrix(emb)
    weights = {}
    for chain in (chain1, chain2):
        for pos, v in enumerate(chain):
            w = pair[v][v]
            if w > -2:
                raise ValueError(f"vertex {v} has weight {w} > -2; not a chain vertex")
            weights[v] = w
            for later_pos in range(pos + 1, len(chain)):
                want = 1 if later_pos == pos + 1 else 0
                got = pair[v][chain[later_pos]]
                if got != want:
                    raise ValueError(
                        f"vertices {v} and {chain[later_pos]} pair to {got}, "
                        f"expected {want}; not a linear chain")
    for u in chain1:
        for v in chain2:
            if pair[u][v] != 0:
                raise ValueError(
                    f"chains are not orthogonal: vertices {u} and {v} pair to {pair[u][v]}")

    r = prefix_r([weights[v] for v in chain1], len(chain1))
    s = prefix_r([weights[v] for v in chain2], len(chain2))
    if r + s != 1:
        raise ValueError(f"chains give r + s = {r + s}; rigidity requires exactly 1")
    if not support_set(emb, (chain1[0],)) & support_set(emb, (chain2[0],)):
        raise ValueError("the first vertices of the two chains share no coordinate")

    u1 = support_set(emb, chain1)
    u2 = support_set(emb, chain2)
    return u1 == u2 and len(u1 | u2) == len(indices)
