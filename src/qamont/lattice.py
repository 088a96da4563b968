"""Embeddings of plumbing lattices into negative diagonal lattices.

An embedding of (Z^k, Q) into (Z^n, -Id) is recorded as an n x k integer
matrix A whose column i is the image of vertex i; the defining Gram
condition is column_i . column_j = -Q[i][j] in the ordinary dot product.
Signed permutations of the coordinates act on the rows, and the
enumeration yields exactly one representative per orbit by orderly
generation: the backtracking search places columns in ascending norm order
(ties by vertex index) and its tree holds exactly one matrix per orbit, the
orbit's lex leader in placement order (rows sign-normalised so their first
nonzero entry is positive, then sorted in decreasing order).  Two rules
make it so:

* a new column may use already-touched coordinates plus a block of fresh
  coordinates whose entries must be positive and non-increasing;
* along each run of rows that agree on every column placed so far, the new
  column's entries must be non-increasing.

Every leaf is a new orbit, so nothing is stored to deduplicate; each leaf is
mapped back to the caller's vertex order and canonicalised the same way.
``enumerate_embeddings`` states the completeness argument.

Rows of yielded embeddings are therefore sorted; coordinates never touched
by any column are not represented, so enumeration at ambient rank n only
yields matrices with no zero row.  ``embeddings_by_rank`` runs the ranks
from k up to the bound that makes the search complete, and states why
that bound loses nothing.  Coordinate and vertex indices are 0-based
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .cfrac import prefix_r
from .errors import NotNegativeDefiniteError, TruncationNotFoundError
from .intmat import (Matrix, det, freeze, invariant_factors,
                     is_negative_definite_matrix)
from .plumbing import PlumbingGraph, adjacency_matrix, is_negative_definite

__all__ = [
    "Embedding",
    "ObstructionResult",
    "gram_matrix",
    "gram_matches",
    "enumerate_embeddings",
    "embeddings_by_rank",
    "transpose_surjective",
    "minor_check",
    "support_set",
    "truncate_legs",
    "rigidity_check",
    "qa_lattice_obstruction",
]


@dataclass(frozen=True)
class Embedding:
    """n x k integer matrix; column i is the image of vertex i."""

    matrix: Matrix

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def k(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(row[i] for row in self.matrix)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(i) for i in range(self.k)]


def gram_matrix(emb: Embedding) -> Matrix:
    """The form -A^T A realised by the embedding."""
    cols = emb.columns()
    return tuple(tuple(-sum(a * b for a, b in zip(ci, cj)) for cj in cols)
                 for ci in cols)


def gram_matches(emb: Embedding, q: Matrix) -> bool:
    return gram_matrix(emb) == freeze(q)


@lru_cache(maxsize=None)
def _square_partitions(total: int, max_len: int,
                       max_val: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Non-increasing positive tuples whose squares sum to ``total``."""
    if total == 0:
        return ((),)
    if max_len <= 0:
        return ()
    top = isqrt(total)
    if max_val is not None and max_val < top:
        top = max_val
    out = []
    for e in range(top, 0, -1):
        for rest in _square_partitions(total - e * e, max_len - 1, e):
            out.append((e,) + rest)
    return tuple(out)


def _suffix_squares(col: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(col) + 1)
    for c in range(len(col) - 1, -1, -1):
        out[c] = out[c + 1] + col[c] * col[c]
    return tuple(out)


def _canonical_rows(cols: Sequence[Sequence[int]], n: int) -> Matrix:
    rows = []
    for r in range(n):
        row = tuple(col[r] for col in cols)
        for v in row:
            if v > 0:
                break
            if v < 0:
                row = tuple(-x for x in row)
                break
        rows.append(row)
    rows.sort(reverse=True)
    return tuple(rows)


def enumerate_embeddings(q: Matrix, n: int) -> Iterator[Embedding]:
    """All embeddings of (Z^k, q) into (Z^n, -Id) touching every coordinate,
    one representative per signed-permutation orbit, in a deterministic
    order.  The stream is empty when no embedding exists.

    Columns are placed in ascending norm order (-q[v][v], ties by vertex
    index): a low-norm vertex has few images, and once placed it constrains
    every later neighbour, so the search tree stays small.  The search runs
    on the permuted form; a fixed vertex permutation is a bijection on
    column assignments that commutes with the action on rows, so it maps
    orbits to orbits.

    The tree is pruned to one matrix per orbit by lex-leader symmetry
    breaking (Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking
    predicates for search problems", KR 1996) applied as orderly generation
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  The
    leader of an orbit of zero-row free n x k matrices, columns in
    placement order, has each row sign-normalised (first nonzero entry
    positive) and the rows sorted in decreasing lexicographic order.

    * Every orbit has exactly one leader: the sign of a nonzero row and the
      sorted order of a multiset of rows are unique.
    * The leader is a leaf of the tree.  Sorted descending, its rows group
      by the column of their first nonzero entry, earliest column first, so
      at column i the rows first touched there form a block right after the
      touched ones, with positive (sign-normalised) and non-increasing
      (sorted) entries: the fresh-block rule.  Rows that agree on every
      earlier column are ordered by their entry in column i, so that entry
      is non-increasing along each run of such rows: the cap on v.  The
      capacity prune and the Cauchy-Schwarz prune are valid bounds on every
      embedding, the leader included.
    * Distinct leaves give distinct leaders.  A leaf's matrix is sign-
      normalised (each row's first nonzero entry is a fresh-block entry,
      hence positive) and sorted (adjacent rows either start in different
      columns, the earlier one first, or agree up to a column where the
      cap makes the lower row's entry no larger), so it is its own orbit's
      leader; distinct paths place distinct column sets.

    So every orbit is reached exactly once and no yield needs a duplicate
    check.  Each leaf is mapped back to the caller's vertex order and
    canonicalised there (rows sign-normalised and sorted), so every ambient
    rank yields the same set of orbits as a search in vertex order would,
    and yielded matrices satisfy the Gram condition against the caller's
    ``q``.  The rank bound of ``embeddings_by_rank`` depends only on the
    norms, so it is untouched.  Only the order of the stream depends on the
    placement order and on the pruning.
    """
    q = freeze(q)
    if not is_negative_definite_matrix(q):
        raise NotNegativeDefiniteError(
            "embedding enumeration requires a negative definite form")
    if n < 1:
        raise ValueError("ambient rank must be positive")
    k = len(q)
    order = sorted(range(k), key=lambda v: (-q[v][v], v))
    slot = {v: i for i, v in enumerate(order)}  # caller vertex -> placement
    q = tuple(tuple(q[u][v] for v in order) for u in order)
    norms = [-q[i][i] for i in range(k)]
    # Column i touches at most norms[i] coordinates, which bounds how many
    # fresh coordinates the remaining columns can still cover.
    remaining_capacity = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        remaining_capacity[i] = remaining_capacity[i + 1] + norms[i]

    cols: list[tuple[int, ...]] = []
    colsq: list[tuple[int, ...]] = []
    # same[c]: row c agrees with row c - 1 on every column placed so far.
    same = [False] * n

    def candidate_columns(i: int, touched: int):
        targets = [-q[i][j] for j in range(i)]
        prefix = [0] * touched

        def walk(c: int, rem: int, dots: list[int]):
            for j in range(i):
                d = targets[j] - dots[j]
                # Cauchy-Schwarz: the remaining coordinates cannot close a
                # dot-product gap larger than sqrt(rem * leftover norm).
                if d * d > rem * colsq[j][c]:
                    return
            if c == touched:
                for part in _square_partitions(rem, n - touched):
                    col = tuple(prefix) + part + (0,) * (n - touched - len(part))
                    yield col, len(part)
                return
            bound = isqrt(rem)
            # rows equal on every placed column keep non-increasing entries
            top = min(bound, prefix[c - 1]) if same[c] else bound
            for v in range(-bound, top + 1):
                prefix[c] = v
                if v == 0:
                    yield from walk(c + 1, rem, dots)
                else:
                    yield from walk(c + 1, rem - v * v,
                                    [dots[j] + v * cols[j][c] for j in range(i)])
            prefix[c] = 0

        yield from walk(0, norms[i], [0] * i)

    def place(i: int, touched: int) -> Iterator[Embedding]:
        if i == k:
            if touched == n:
                yield Embedding(_canonical_rows([cols[slot[v]] for v in range(k)], n))
            return
        if touched + remaining_capacity[i] < n:
            return
        for col, fresh in candidate_columns(i, touched):
            end = touched + fresh
            saved = same[:end]
            # The first fresh row differs from the touched rows above it on
            # an earlier column; later fresh rows are zero there.
            for c in range(1, end):
                same[c] = col[c] == col[c - 1] and (same[c] if c < touched
                                                    else c > touched)
            cols.append(col)
            colsq.append(_suffix_squares(col))
            yield from place(i + 1, end)
            cols.pop()
            colsq.pop()
            same[:end] = saved

    yield from place(0, 0)


def embeddings_by_rank(q: Matrix, n_max: int | None = None
                       ) -> Iterator[tuple[int, Iterator[Embedding]]]:
    """``(n, enumerate_embeddings(q, n))`` for each ambient rank n in turn.

    Ranks run from the vertex count k up to the sum of the vertex norms
    -q[i][i], and that bound makes the search complete.  Deleting a zero
    row of an embedding changes neither the Gram condition nor the
    surjectivity of the transpose, so every embedding has a zero-row free
    counterpart.  Each row of that counterpart holds a nonzero entry, and
    column i holds at most -q[i][i] nonzero entries (each adds at least 1
    to its norm), so it has at most the sum of the norms rows.  No rank
    beyond the bound has an embedding; ``n_max`` stops the ranks earlier.

    Each rank's stream is looked up on this module at call time, so a
    wrapper installed there (``perfbench/tracing.py`` counts ranks that way)
    sees every rank.  Consume a rank's stream before asking for the next.
    """
    high = sum(-q[i][i] for i in range(len(q)))
    if n_max is not None:
        high = min(high, n_max)
    for n in range(len(q), high + 1):
        yield n, enumerate_embeddings(q, n)


def transpose_surjective(emb: Embedding) -> bool:
    """Whether A^T maps Z^n onto Z^k: all k invariant factors equal 1."""
    if emb.n < emb.k:
        return False
    return all(f == 1 for f in invariant_factors(emb.matrix))


def minor_check(emb: Embedding, cols: Iterable[int]) -> int:
    """Determinant of the square minor induced by a supported column subset.

    The selected columns' nonzero entries must lie in exactly as many rows
    as there are columns.  When the transpose of the embedding is
    surjective this determinant is +-1; finding any other value certifies
    an obstruction.
    """
    chosen = list(cols)
    if not chosen:
        raise ValueError("need at least one column")
    if len(set(chosen)) != len(chosen) or not all(0 <= c < emb.k for c in chosen):
        raise ValueError(f"invalid column subset {chosen}")
    rows = [r for r in range(emb.n) if any(emb.matrix[r][c] for c in chosen)]
    if len(rows) != len(chosen):
        raise ValueError(
            f"support condition violated: {len(chosen)} columns touch {len(rows)} rows")
    return det(tuple(tuple(emb.matrix[r][c] for c in chosen) for r in rows))


def support_set(emb: Embedding, vertices: Iterable[int]) -> frozenset[int]:
    """Coordinates (row indices) touched by the selected columns."""
    chosen = set(vertices)
    return frozenset(r for r in range(emb.n)
                     if any(emb.matrix[r][c] for c in chosen))


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


def rigidity_check(emb: Embedding, psi1: Sequence[int], psi2: Sequence[int]) -> bool:
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
    if not all(0 <= v < emb.k for v in indices):
        raise ValueError("vertex index out of range")

    col = {v: emb.column(v) for v in indices}

    def pair(u: int, v: int) -> int:
        return -sum(a * b for a, b in zip(col[u], col[v]))

    weights = {}
    for chain in (chain1, chain2):
        for pos, v in enumerate(chain):
            w = pair(v, v)
            if w > -2:
                raise ValueError(f"vertex {v} has weight {w} > -2; not a chain vertex")
            weights[v] = w
            for later_pos in range(pos + 1, len(chain)):
                want = 1 if later_pos == pos + 1 else 0
                got = pair(v, chain[later_pos])
                if got != want:
                    raise ValueError(
                        f"vertices {v} and {chain[later_pos]} pair to {got}, "
                        f"expected {want}; not a linear chain")
    for u in chain1:
        for v in chain2:
            if pair(u, v) != 0:
                raise ValueError(
                    f"chains are not orthogonal: vertices {u} and {v} pair to {pair(u, v)}")

    r = prefix_r([weights[v] for v in chain1], len(chain1))
    s = prefix_r([weights[v] for v in chain2], len(chain2))
    if r + s != 1:
        raise ValueError(f"chains give r + s = {r + s}; rigidity requires exactly 1")
    if not support_set(emb, (chain1[0],)) & support_set(emb, (chain2[0],)):
        raise ValueError("the first vertices of the two chains share no coordinate")

    u1 = support_set(emb, chain1)
    u2 = support_set(emb, chain2)
    return u1 == u2 and len(u1 | u2) == len(indices)


@dataclass(frozen=True)
class ObstructionResult:
    """Outcome of the exhaustive surjective-transpose embedding search."""

    obstructed: bool
    witness: Embedding | None
    witness_n: int | None
    examined: tuple[tuple[int, int], ...]  # (ambient rank, embeddings inspected)

    @property
    def total_examined(self) -> int:
        return sum(count for _, count in self.examined)


@lru_cache(maxsize=None)
def qa_lattice_obstruction(graph: PlumbingGraph) -> ObstructionResult:
    """Search every ambient rank for an embedding with surjective transpose.

    The ranks are those of ``embeddings_by_rank``, whose docstring shows
    that they make the search complete.  They are searched in increasing
    order, so the witness returned is the first surjective embedding that
    ``enumerate_embeddings`` yields at the minimal ambient rank; the stream
    is deterministic, so the witness is too.  Exhausting every rank without
    one gives the obstructed outcome.
    """
    if not is_negative_definite(graph):
        raise NotNegativeDefiniteError(
            "the embedding obstruction requires a negative definite plumbing")
    examined: list[tuple[int, int]] = []
    for n, embeddings in embeddings_by_rank(adjacency_matrix(graph)):
        count = 0
        for emb in embeddings:
            count += 1
            if transpose_surjective(emb):
                examined.append((n, count))
                return ObstructionResult(False, emb, n, tuple(examined))
        examined.append((n, count))
    return ObstructionResult(True, None, None, tuple(examined))
