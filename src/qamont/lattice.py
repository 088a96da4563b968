"""Embeddings of plumbing lattices into negative diagonal lattices.

An embedding of (Z^k, Q) into (Z^n, -Id) is an n x k ``intmat.Matrix`` A,
one row per coordinate, column i the image of vertex i, with the Gram
condition column_i . column_j = -Q[i][j] in the ordinary dot product.
Signed permutations of the coordinates act on the rows, and the
enumeration yields exactly one representative per orbit by orderly
generation: the backtracking search places columns in one placement order
(``_slots``: ascending norm, ties broken as the caller says) and its
tree holds exactly one matrix per orbit, the orbit's lex leader in
placement order (rows sign-normalised so their first nonzero entry is
positive, then sorted in decreasing order).  One rule makes it so: a new
column's entries are non-increasing along each run of rows that agree on
every column placed so far, and a row's first nonzero entry is positive.
The rows no column touches yet are all zero, so they are one such run,
and on them the rule leaves a block of positive, non-increasing entries
right after the touched rows.

Every leaf is a new orbit, so nothing is stored to deduplicate; each leaf
that is reported is mapped back to the caller's vertex order and
canonicalised the same way, as the walk reaches it, so nothing is stored
between leaves either.  ``_OrderlyTree`` states the completeness
argument.

Rows of yielded embeddings are therefore sorted; coordinates never touched
by any column are not represented, so enumeration at ambient rank n only
yields matrices with no zero row.  ``_rank_bound`` is the rank that makes
the search complete, and states why it loses nothing; ``all_embeddings``
and ``qa_lattice_obstruction`` each walk one tree for all the ranks from k
up to it, and ``all_embeddings`` yields its leaves in that walk's order,
ranks interleaved.  Both keep the placed columns in echelon form mod each
prime whose square divides det q (``_OrderlyTree``): the obstruction search
prunes every column set that is dependent mod one of them, so that every
leaf it reaches has surjective transpose, and ``all_embeddings`` keeps it
and labels each leaf with whether its transpose is surjective.  The
obstruction search runs once per star with its legs sorted, which every leg
order of a star shares, and builds that star's placement form only then.
Coordinate and vertex indices are 0-based throughout.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import isqrt
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import InternalError
from .intmat import Definite, Matrix, freeze
from .plumbing import PlumbingGraph, adjacency_matrix

__all__ = [
    "ObstructionResult",
    "gram_matches",
    "all_embeddings",
    "enumerate_embeddings",
    "transpose_surjective",
    "qa_lattice_obstruction",
]


def gram_matches(emb: Matrix, q: Matrix) -> bool:
    """Whether the embedding A realises q, -A^T A == q: the Gram condition
    that demo 05 checks each embedding it prints against."""
    cols = list(zip(*emb))
    return tuple(tuple(-sum(a * b for a, b in zip(ci, cj)) for cj in cols)
                 for ci in cols) == freeze(q)


def _canonical_rows(slots: Sequence[int], n: int,
                    cols: Sequence[Sequence[int]]) -> Matrix:
    """A leaf's columns ``cols``, in placement order, as an embedding of
    rank n in vertex order, column v being ``cols[slots[v]]``
    (``_slots``), canonicalised: its first n rows, each
    sign-normalised (first nonzero entry positive), sorted descending."""
    rows = []
    for row in islice(zip(*map(cols.__getitem__, slots)), n):
        for v in row:
            if v > 0:
                break
            if v < 0:
                row = tuple(-x for x in row)
                break
        rows.append(row)
    rows.sort(reverse=True)
    return tuple(rows)


_fresh = itemgetter(1)  # a candidate's fresh-block size

# A walk nests one ``_place`` generator per vertex and one ``walk`` frame
# per coordinate on top of its caller's frames, which keep the 1,000 that
# Python's default recursion limit gives them.
_CALLER_FRAMES = 1000
# Resuming a nested generator recurses on the C stack.  With an 8 MB stack
# (Linux, Python 3.11.7) 20,000 nested generators ran and 30,000 crashed the
# interpreter.  A tree needs k + N + _CALLER_FRAMES frames with k <= N, so
# under this cap it nests at most 4,500 generators.
_MAX_RECURSION = 10_000


class _OrderlyTree:
    """The orderly search tree of embeddings of a negative definite (Z^k, q)
    into (Z^n, -Id), the one walk behind both searches of this module.

    A leaf places every column; its rank is the number of coordinates its
    columns touch, always the first ones.  ``leaves`` walks the tree depth
    first and yields the rank of each leaf, with ``cols`` holding the leaf's
    columns in placement order until the walk resumes, so a caller maps a
    leaf before it asks for the next one, or copies it.  ``high`` starts at
    n and may be lowered between leaves: from then on every node and every
    fresh block that would touch more than ``high`` coordinates is pruned.
    ``nodes`` counts the columns placed.  Given ``primes``, the tree keeps
    the placed columns in echelon form mod each of them, and a candidate
    column that would make them dependent mod one of them is dropped, and
    counted in ``pruned``: the leaves are then exactly the surjective ones
    (below).  Given ``label`` as well, such a column is kept, and ``onto``
    says at each leaf whether its transpose is surjective.

    The tree walks the form it is given, placing vertex i as column i;
    ``_slots`` chooses that order, and ``_canonical_rows`` maps the leaves
    back.

    The tree is pruned to one matrix per orbit by lex-leader symmetry
    breaking (Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking
    predicates for search problems", KR 1996) applied as orderly generation
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  The
    leader of an orbit of zero-row free matrices of rank r, columns in
    placement order, has each row sign-normalised (first nonzero entry
    positive) and the rows sorted in decreasing lexicographic order.  For
    every r <= n, the tree's leaves of rank r are exactly the leaders of
    the rank-r orbits:

    * Every orbit has exactly one leader: the sign of a nonzero row and the
      sorted order of a multiset of rows are unique.
    * The leader is a leaf of the tree.  Sorted descending, its rows that
      agree on every earlier column are ordered by their entry in column i,
      so that entry is non-increasing along each run of such rows: the cap
      on v, which ``same`` tracks for every row.  The rows zero on every
      earlier column are one such run, so the rows first touched at column
      i form a block right after the touched ones, with positive
      (sign-normalised) and non-increasing entries: the fresh block is the
      cap on the untouched rows.  The Cauchy-Schwarz prune is a valid bound
      on every embedding, the leader included.
    * Distinct leaves give distinct leaders.  A leaf's matrix is sign-
      normalised (each row's first nonzero entry is a fresh-block entry,
      hence positive) and sorted (adjacent rows agree up to the first
      column where they differ, and there the cap makes the lower row's
      entry the smaller), so it is its own orbit's leader; distinct paths
      place distinct column sets.

    So every orbit is reached exactly once and no leaf needs a duplicate
    check.  Only the order of the leaves depends on the placement order, on
    the order of siblings and on the pruning; none of the arguments above
    reads an order.

    Siblings are met by the size of their fresh block, ascending, and in
    walk order (``_candidates``) among blocks of one size: a child that
    touches fewer coordinates comes first, so the obstruction search tends
    to meet a low-rank leaf, and lower ``high``, before it enters the
    subtrees that leaf would cut.  A node's candidate columns are built
    eagerly, as one list in that order, when the node is entered, so their
    fresh blocks are cut under the ``high`` in force then.  ``_place`` stops
    at the first candidate that touches more than the ``high`` in force when
    its turn comes, since every later one touches at least as many
    coordinates.  That is exactly the set of children, in the same order, of
    a node whose fresh blocks were cut lazily: the walk cut at a lower
    ``high`` emits the candidates of the walk cut at a higher one that touch
    no more than the lower ``high`` coordinates, in the same order, and a
    stable sort by size commutes with dropping every candidate above a
    size: either way the ones kept come by size, then in walk order.

    Given the critical primes of q (the primes p with p^2 | det q), the
    mod-p bases decide which leaves have a transpose that is onto, and no
    leaf is tested.  The same bases prune one search and label the other:
    the obstruction search keeps exactly the onto leaves, in the same
    order, and ``all_embeddings`` (``label``) keeps every leaf and labels
    it:

    * Lemma.  Let A be a leaf's matrix, on the rank rows it touches, and d
      the index in Z^k of the lattice L its rows generate (full rank, since
      det(A^T A) = det(-q) != 0).  A^T is onto exactly when d = 1, that is
      when no prime p divides d, and p | d exactly when the rows span less
      than F_p^k, that is when A's columns are dependent mod p.  By
      Cauchy-Binet det q = +-sum of the squared k x k minors of A, and d
      divides each minor (its rows lie in L), so d^2 | det q.  So only a
      critical prime can divide d: A^T is onto exactly when A's columns
      are independent mod every critical prime.  When det q is square-free
      there is none, and every leaf is onto.
    * The columns placed at a node are columns of every leaf below it, and
      a dependent set of columns stays dependent in every extension.  So a
      candidate that makes the placed columns dependent mod a critical
      prime has no onto leaf below it, and dropping it loses none; a leaf
      that is reached has every column accepted, so it is onto.
    * With ``label`` that candidate is placed all the same, and the path is
      dependent from it down: ``primes`` is emptied for its subtree, so no
      basis grows below it, and ``onto``, which compares ``primes`` with
      the bases, is False at every leaf there and True at every other.
    * ``bases[t]`` holds the columns placed while ``primes`` was full, in
      echelon form mod primes[t], one entry per column, in placement order;
      ``_extend_bases`` appends to each basis when a column is placed and
      ``_place`` pops it when the column is removed, so on an independent
      path a basis always matches ``cols``, a leaf's last column included.
      With no primes the bases cost one truth test per candidate.

    Nothing the walk builds refers to itself (``_candidates`` drops its
    recursive closure before it returns), so a finished or abandoned walk is
    freed by reference counting, not left to the cyclic collector.

    The walk recurses once per vertex and once per coordinate, so a tree
    raises the recursion limit to cover its k + n frames and never lowers
    it; one that would need more than ``_MAX_RECURSION`` raises
    ``InternalError`` before it walks.
    """

    def __init__(self, q: Matrix, n: int, primes: tuple[int, ...] = (),
                 label: bool = False):
        depth = len(q) + n + _CALLER_FRAMES
        if depth > _MAX_RECURSION:
            raise InternalError(f"the search on {len(q)} vertices up to rank {n} needs "
                                f"{depth} frames, above the cap of {_MAX_RECURSION}")
        if depth > sys.getrecursionlimit():
            sys.setrecursionlimit(depth)
        self.q = q
        self.n = n
        self.high = n
        self.cols: list[tuple[int, ...]] = []
        self.nodes = 0
        # support[c]: (j, cols[j][c], the squared norm of cols[j] on the
        # coordinates after c) for each placed column j nonzero at
        # coordinate c, in placement order.
        self.support: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        # same[c]: row c agrees with row c - 1 on every column placed so far;
        # so far every row is zero.
        self.same = [False] + [True] * (n - 1)
        self.primes = primes
        # bases[t]: (pivot, tail) per placed column, the placed columns in
        # echelon form mod primes[t]: each vector is 1 at its pivot, 0 before
        # it and at the pivots before it, and tail lists its nonzero entries
        # (coordinate, value) after the pivot.
        self.bases: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in primes]
        self.label = label
        self.pruned = 0

    def leaves(self) -> Iterator[int]:
        return self._place(0, 0)

    @property
    def onto(self) -> bool:
        """Whether no column in ``cols`` is dependent mod a prime given on
        the columns before it: at a leaf, whether its transpose is onto."""
        return len(self.primes) == len(self.bases)

    def _place(self, i: int, touched: int) -> Iterator[int]:
        if i == len(self.q):
            yield touched
            return
        cols, support, same = self.cols, self.support, self.same
        primes = self.primes
        for col, fresh in self._candidates(i, touched):
            end = touched + fresh
            # ``high`` may have fallen since the candidates were cut; the
            # rest touch at least as many coordinates
            if end > self.high:
                return
            if primes and not self._extend_bases(col, end):
                if not self.label:
                    self.pruned += 1
                    continue
                self.primes = ()  # every extension stays dependent
            # col is zero past end, so same changes at most up to end
            saved = same[:end + 1]
            for c in range(1, min(end + 1, self.n)):
                same[c] = same[c] and col[c] == col[c - 1]
            tail = 0
            nonzero = []
            for c in range(end - 1, -1, -1):
                v = col[c]
                if v:
                    support[c].append((i, v, tail))
                    nonzero.append(c)
                    tail += v * v
            cols.append(col)
            self.nodes += 1
            yield from self._place(i + 1, end)
            for c in nonzero:
                support[c].pop()
            cols.pop()
            same[:end + 1] = saved
            if self.primes:
                for basis in self.bases:
                    basis.pop()
            else:
                self.primes = primes

    def _extend_bases(self, col: tuple[int, ...], end: int) -> bool:
        """Reduce ``col`` (zero from ``end`` on) against the echelon basis
        mod each of ``primes``.  If it reduces to zero mod one of them,
        change nothing and return False.  Else append its reduction, scaled
        to 1 at its pivot, to every basis and return True."""
        reduced = []
        for p, basis in zip(self.primes, self.bases):
            v = [x % p for x in col[:end]]
            for pivot, tail in basis:
                c = v[pivot]
                if c:
                    v[pivot] = 0
                    for t, y in tail:
                        v[t] = (v[t] - c * y) % p
            for pivot, x in enumerate(v):
                if x:
                    break
            else:
                return False
            inverse = pow(x, -1, p)
            reduced.append((pivot, [(t, y * inverse % p)
                                    for t in range(pivot + 1, end) if (y := v[t])]))
        for basis, entry in zip(self.bases, reduced):
            basis.append(entry)
        return True

    def _candidates(self, i: int, touched: int) -> list[tuple[tuple[int, ...], int]]:
        """The columns that may be placed as column i after ``touched``
        coordinates are in use, each with the size of its fresh block, in
        search order: by fresh-block size, ascending, then in walk order,
        coordinate by coordinate: entries on the touched coordinates in
        increasing order, then fresh entries in decreasing order.

        One walk builds the whole column under the orderly cap.  Past
        ``touched`` the rows are zero on every placed column, so ``same``
        holds among them and the cap makes the fresh block non-increasing;
        its entries start their rows, so they are positive.  The walk emits
        the column once the norm is filled there and stops at ``high``.

        ``gap[j]`` is the dot product column j still needs with column i.
        Only the columns nonzero at c (``support[c]``) change their gap
        there, and each is tested value by value against its squared norm
        ``s`` on the coordinates after c: Cauchy-Schwarz cuts a prefix whose
        remaining norm cannot close the gap, gap^2 > rem * s.  That one test
        also makes every gap exact.  At column j's last nonzero coordinate
        s = 0, so the gap must be 0 there, and it stays 0 after, where
        column j is zero.  Every placed column is nonzero somewhere below
        ``touched``, so every gap is 0 at the fresh block, which then only
        has to fill the norm.  A bound that cut a prefix earlier (on the
        columns zero at c, or on whole norms before the walk) would cut
        only prefixes that this test cuts later, so it would change no
        candidate and no order.
        """
        support, same = self.support, self.same
        n, high = self.n, self.high
        gap = [-x for x in self.q[i][:i]]
        out: list[tuple[tuple[int, ...], int]] = []
        prefix = [0] * n

        def walk(c: int, rem: int) -> None:
            if c >= touched and not rem:
                out.append((tuple(prefix), c - touched))
                return
            if c == high:
                return
            bound = isqrt(rem)
            # rows equal on every placed column keep non-increasing entries
            top = min(bound, prefix[c - 1]) if same[c] else bound
            nz = support[c]  # empty past touched
            for v in range(-bound, top + 1) if c < touched else range(top, 0, -1):
                rest = rem - v * v
                for j, a, s in nz:
                    d = gap[j] - v * a
                    if d * d > rest * s:
                        break
                else:
                    prefix[c] = v
                    for j, a, _ in nz:
                        gap[j] -= v * a
                    walk(c + 1, rest)
                    for j, a, _ in nz:
                        gap[j] += v * a
            prefix[c] = 0

        walk(0, -self.q[i][i])
        walk = None  # the closure refers to itself; drop that cycle here
        out.sort(key=_fresh)
        return out


def _slots(weights: Sequence[int], ties: Sequence) -> list[int]:
    """Each vertex's place in placement order, the order in which
    ``_OrderlyTree`` places columns: ascending norm -weights[v], ties by
    ``ties[v]``.

    A low-norm vertex has few images, and once placed it constrains every
    later neighbour, so the search tree stays small.
    """
    order = sorted(range(len(weights)), key=lambda v: (-weights[v], ties[v]))
    slots = [0] * len(order)
    for place, v in enumerate(order):
        slots[v] = place
    return slots


def _placement(q: Matrix, ties: Sequence) -> tuple[Matrix, list[int]]:
    """``q`` permuted into placement order (``_slots`` on its diagonal) and
    ``slots``, each vertex's place in it: ``form[slots[u]][slots[v]] ==
    q[u][v]``.

    A fixed vertex permutation is a bijection on column assignments that
    commutes with the action on rows, so it maps orbits to orbits: a leaf's
    columns taken back in vertex order through ``slots`` and canonicalised,
    both by ``_canonical_rows`` as the walk reaches the leaf, give, at every
    rank, the same set of orbits as a search in vertex order would, and
    satisfy the Gram condition against ``q``.
    The rank bound depends only on the norms, so it is untouched.
    ``all_embeddings`` and a search cache miss break ties by vertex index.
    """
    slots = _slots([row[v] for v, row in enumerate(q)], ties)
    order = [0] * len(slots)
    for v, place in enumerate(slots):
        order[place] = v
    return tuple(tuple(q[u][v] for v in order) for u in order), slots


def enumerate_embeddings(q: Definite, n: int) -> Iterator[Matrix]:
    """All embeddings of (Z^k, q) into (Z^n, -Id) touching every coordinate,
    one representative per signed-permutation orbit, in a deterministic
    order: the matrices of rank n in ``all_embeddings(q, n)``, which takes
    only a ``Definite`` q.  The stream is empty when no embedding exists.

    No program path calls it: ``perfbench/tracing.py`` wraps it by name
    (``INTRA_MODULE``), and it goes once the tracer stops naming it.
    """
    if n < 1:
        raise ValueError("ambient rank must be positive")
    return (emb for rank, emb, _ in all_embeddings(q, n) if rank == n)


def _rank_bound(q: Matrix) -> int:
    """The largest ambient rank with a zero-row free embedding: the sum of
    the vertex norms -q[i][i].

    Deleting a zero row of an embedding changes neither the Gram condition
    nor the surjectivity of the transpose, so every embedding has a
    zero-row free counterpart.  Each row of that counterpart holds a nonzero
    entry, and column i holds at most -q[i][i] nonzero entries (each adds
    at least 1 to its norm), so it has at most the sum of the norms rows.
    Searching the ranks from k up to this bound is therefore complete.
    """
    return sum(-q[i][i] for i in range(len(q)))


def all_embeddings(q: Definite, n_max: int | None = None
                   ) -> Iterator[tuple[int, Matrix, bool]]:
    """``(n, matrix, surjective)`` for every embedding of (Z^k, q) into
    (Z^n, -Id) that touches all n coordinates, for each ambient rank n from
    the vertex count k up to N = ``_rank_bound(q)`` (complete; ``n_max``
    lowers N), one per signed-permutation orbit (``_OrderlyTree``), in the
    walk order of one orderly tree at rank N.  ``surjective`` is whether the
    matrix's transpose is onto, read off the tree's bases mod the critical
    primes of q: the walk keeps each column that is dependent mod one of
    them, and labels every leaf below it not surjective (``_OrderlyTree``,
    ``label``).

    Each leaf is canonicalised by ``_canonical_rows`` and yielded as the
    walk reaches it, so nothing is held between leaves: memory stays flat
    in the number of embeddings, and a caller that stops reading stops the
    walk.  The ranks come interleaved.  The tree's leaves of rank n are the
    rank-n tree's, in the same depth-first order: the walk, the orderly cap
    and the Cauchy-Schwarz prune do not depend on n, except that the walk
    stops at ``high``, so the rank-n candidates are the N tree's that touch
    at most n coordinates, and the stable sort by fresh-block size keeps
    them in the same order; and touched counts only grow along a path, so a
    node cut for touching more than n coordinates has no leaf of rank n.
    So the stream restricted to one rank is that rank's own search.

    ``q`` is a ``Definite``, a graph's ``definite_form``, taken as it is;
    any other matrix, list or tuple rows alike, raises ``TypeError`` on the
    stream's first read, before the rank range is computed.
    """
    if not isinstance(q, Definite):
        raise TypeError("all_embeddings takes a Definite: a graph's definite_form")
    top = _rank_bound(q) if n_max is None else min(_rank_bound(q), n_max)
    if top < len(q):
        return
    form, slots = _placement(q, range(len(q)))
    tree = _OrderlyTree(form, top, _critical_primes(q.det), label=True)
    for n in tree.leaves():
        yield n, _canonical_rows(slots, n, tree.cols), tree.onto


def transpose_surjective(emb: Matrix) -> bool:
    """Whether A^T maps Z^n onto Z^k, that is, whether the rows of A
    generate Z^k.

    Integer row operations (swapping two rows, adding a multiple of one row
    to another) are invertible over Z, so they keep the lattice the rows
    generate.  Reduced to row echelon form, the nonzero rows are a basis of
    that lattice: they are triangular with nonzero pivots.  The lattice is
    Z^k exactly when there are k pivots and each is +-1, since its index in
    Z^k is then the product of their absolute values, and with fewer than k
    pivots its rank is short.  Column t's pivot is the gcd of column t over
    the rows not yet used as pivots, found by Euclid's algorithm on those
    rows, so the test stops at the first column whose pivot is not a unit.
    The answer does not depend on the order or the signs of the rows, nor on
    the order of the columns.
    """
    rows = [row for row in emb if any(row)]
    for t in range(len(emb[0]) if emb else 0):
        hit = [row for row in rows if row[t]]
        rows = [row for row in rows if not row[t]]
        while hit:
            pivot = hit.pop(min(range(len(hit)), key=lambda r: abs(hit[r][t])))
            p = pivot[t]
            if p == 1 or p == -1:
                for row in hit:
                    f = row[t] * p
                    rows.append([x - f * y for x, y in zip(row, pivot)])
                break
            rest = []
            for row in hit:
                f = row[t] // p
                row = [x - f * y for x, y in zip(row, pivot)]
                (rest if row[t] else rows).append(row)
            if not rest:
                return False  # the pivot |p| > 1 divides the whole column
            hit = rest + [pivot]
        else:
            return False  # column t is zero on every remaining row
    return True


def _critical_primes(d: int) -> tuple[int, ...]:
    """The primes p with p^2 | d, ascending; d != 0.

    Trial division takes each p in turn and divides it out of d while
    p^3 <= d.  What is left then has no prime factor below p and is below
    p^3, so it has at most two prime factors: it is 1, a prime, a product
    of two distinct primes or the square of a prime, and only the last
    holds a critical prime.  So it is critical exactly when it is a
    perfect square above 1, tested with ``isqrt``; its root is at least p,
    above every prime found before.
    """
    d = abs(d)
    primes = []
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    root = isqrt(d)
    if root > 1 and root * root == d:
        primes.append(root)
    return tuple(primes)


@dataclass(frozen=True)
class ObstructionResult:
    """Outcome of the exhaustive surjective-transpose embedding search."""

    obstructed: bool
    witness: Matrix | None
    witness_n: int | None
    nodes: int  # columns placed by the search
    leaves: int  # surjective embeddings reached, at any rank
    pruned: int  # candidate columns dropped as dependent mod a critical prime


def qa_lattice_obstruction(graph: PlumbingGraph) -> ObstructionResult:
    """Search every ambient rank for an embedding with surjective transpose.

    The search runs on q in placement order, ties broken by the legs
    themselves: in the vertex order ``plumbing.adjacency_matrix`` lays out,
    the centre has the key () and vertex j of leg i the key (leg i, i, j).
    The keys order the vertices by their position in the star with its legs
    stably sorted, since that sort orders the legs as (leg i, i) does, and
    () comes before every other key.  That position map is a
    weight-preserving isomorphism of the graph onto the sorted star, so the
    caller's q placed by (norm, key) is the sorted star's q placed by
    (norm, index): every leg order of a star gets the sorted star's own
    placement form, the one ``_star_search`` builds.

    So the search is a function of the sorted star, and its result is
    cached under it: ``(central weight, sorted legs)``, with det q, itself
    a function of the sorted star, riding along for the critical primes
    (one bounded cache, ``cache_info`` and ``cache_clear`` as with
    ``lru_cache``).  Only a miss builds the form, and a hit returns what
    the miss would compute, since the form and det q are the same.  Two
    sorted stars with one form (a path read from two centres) only miss
    each other; neither gets a wrong answer.

    A vertex permutation maps the embeddings of one form to those of the
    other, a bijection at each rank that keeps the rows touched and keeps
    surjectivity (A^T changes by an invertible permutation), so
    ``obstructed`` and ``witness_n`` do not depend on the leg order.  The
    witness is the form's first surjective embedding
    (``_obstruction_search``), with its columns mapped back to the caller's
    vertex order and canonicalised on every call, cache hits included,
    through ``slots``, each vertex's place: the sort of the caller's
    vertices by (norm, key), with no permuted matrix.  It satisfies the
    Gram condition against the caller's q.  ``nodes``, ``leaves`` and
    ``pruned`` count the search on the form.

    The graph's guard, ``PlumbingGraph.definite_form``, is read on every
    call, a cache hit included, so a graph that is not negative definite is
    rejected whatever the cache holds; it also gives det q.
    """
    d = graph.definite_form.det
    legs = graph.legs
    cols, witness_n, nodes, leaves, pruned = _cached_search(
        graph.central_weight, tuple(sorted(legs)), d)
    witness = None
    if cols is not None:
        weights = [graph.central_weight, *(w for leg in legs for w in leg)]
        ties = [(), *((leg, i, j) for i, leg in enumerate(legs) for j in range(len(leg)))]
        witness = _canonical_rows(_slots(weights, ties), witness_n, cols)
    return ObstructionResult(cols is None, witness, witness_n, nodes, leaves, pruned)


def _star_search(central_weight: int, legs: tuple[tuple[int, ...], ...], d: int) -> tuple[
        tuple[tuple[int, ...], ...] | None, int | None, int, int, int]:
    """``_obstruction_search`` on the placement form of the star with these
    legs, sorted, and its det q = d: the cached search behind
    ``qa_lattice_obstruction``, which builds the form only here."""
    q = adjacency_matrix(PlumbingGraph(central_weight, legs))
    return _obstruction_search(_placement(q, range(len(q)))[0], d)


def _obstruction_search(q: Matrix, d: int) -> tuple[
        tuple[tuple[int, ...], ...] | None, int | None, int, int, int]:
    """The obstruction search on a placement form ``q`` (``_star_search``),
    negative definite, with d = det q, walked as it is:
    ``(witness columns or None, witness_n, nodes, leaves, pruned)``.

    Its norms ascend, so ``all_embeddings(q)`` places it as it is, and the
    result is that of reading that whole stream and testing each embedding
    with ``transpose_surjective``: the witness is the first surjective leaf
    of minimal rank in the walk order of ``all_embeddings(q)``, and the
    walk is deterministic, so the witness is too.  A stream with no
    surjective leaf gives the obstructed outcome.

    It is computed in one traversal of the orderly tree at the top rank
    N = ``_rank_bound``, where a leaf's rank is the number of coordinates it
    touches, pruned mod the critical primes of q, the primes p with
    p^2 | det q.  Nothing is lost and nothing changes:

    * The rank-n tree is its subtree of rank-n leaves (``all_embeddings``).
    * The mod-p prune cuts exactly the subtrees that hold no surjective
      leaf, and the leaves it keeps are exactly the surjective ones
      (``_OrderlyTree``), met in the same order.  So no leaf is tested.
    * Each leaf reached is the new witness, and from then on every node and
      every fresh block touching its rank w or more coordinates is pruned.
      A pruned leaf has rank at least w, so it is neither a smaller-rank
      witness nor one that precedes the one found at rank w.  No leaf of
      rank below w is cut, since touched counts only grow along a path.

    The order of the walk decides how much is cut, not what is found.
    Siblings are met by fresh-block size, ascending (``_OrderlyTree``), so
    the first leaves the walk meets tend to have low rank, and the subtrees
    they cut are never entered.  It is the walk order of ``all_embeddings``
    too, so the witness is the one stated above.

    So the search is obstructed exactly when it reaches no leaf.  The
    witness's columns, copied when it was found, are returned in placement
    order on the ``witness_n`` coordinates it touches, not yet
    canonicalised.  Nothing here tests definiteness.
    """
    tree = _OrderlyTree(q, _rank_bound(q), _critical_primes(d))
    leaves = 0
    witness_cols, witness_n = None, None
    for rank in tree.leaves():
        leaves += 1
        witness_cols, witness_n = tree.cols[:], rank
        tree.high = rank - 1  # a better witness touches fewer coordinates
    witness = None if witness_cols is None else tuple(
        col[:witness_n] for col in witness_cols)
    return witness, witness_n, tree.nodes, leaves, tree.pruned


# The one cache, keyed on the sorted star and its det q, all that the search
# reads; bounded so that a long enumeration does not keep every search it
# meets.
_cached_search = lru_cache(maxsize=1024)(_star_search)
qa_lattice_obstruction.cache_info = _cached_search.cache_info
qa_lattice_obstruction.cache_clear = _cached_search.cache_clear
