import gc
import hashlib
import inspect
import itertools
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from conftest import random_cf, random_star_graph
from qamont import lattice, plumbing
from qamont.errors import NotNegativeDefiniteError
from qamont.intmat import freeze
from qamont.lattice import (all_embeddings, enumerate_embeddings, gram_matches,
                            qa_lattice_obstruction, transpose_surjective)
from qamont.classifier import Branch, enumerate_family, verify
from qamont.laufer import LauferVerdict, laufer_run
from qamont.montesinos import (MontesinosLink, determinant, parse_link, to_negative_form,
                               to_standard_form)
from qamont.plumbing import PlumbingGraph, adjacency_matrix, build_graph, oriented_graph
from paper_lemmas import minor_check, rigidity_check, support_set, truncate_legs
from references import canonical_rows as canonical_rows_of_columns
from references import (by_rank, definite, det, gram_matrix, is_negative_definite_matrix,
                        negative_definite_det, prefix_r)
from smith_form import invariant_factors

D4_GRAPH = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
D4_Q = D4_GRAPH.definite_form

# Columns (1,1,0,0), (-1,0,1,0), (-1,0,-1,0), (0,-1,0,1): the spec-level
# sample embedding of the D4 form, checked by direct dot products.
D4_SAMPLE = freeze([
    [1, -1, -1, 0],
    [1, 0, 0, -1],
    [0, 1, -1, 0],
    [0, 0, 0, 1],
])


def oriented_graphs(p, alpha_max, e_min, e_max):
    """Distinct oriented plumbings of a family's links with det != 0."""
    graphs = {}
    for link in enumerate_family(p, alpha_max, e_min, e_max, p_min=p):
        std = to_standard_form(link)
        if determinant(std) != 0:
            graphs.setdefault(oriented_graph(std)[1])
    return list(graphs)


def canonical_rows(matrix):
    rows = []
    for row in matrix:
        row = tuple(row)
        for v in row:
            if v > 0:
                break
            if v < 0:
                row = tuple(-x for x in row)
                break
        rows.append(row)
    return tuple(sorted(rows, reverse=True))


class TestEnumerate:
    def test_norm_two_vector_in_rank_two(self):
        found = list(enumerate_embeddings(PlumbingGraph(-2, ()).definite_form, 2))
        assert found == [((1,), (1,))]

    def test_norm_two_vector_needs_two_coordinates(self):
        assert list(enumerate_embeddings(PlumbingGraph(-2, ()).definite_form, 1)) == []

    def test_d4_sample_orbit_is_found(self):
        assert gram_matches(D4_SAMPLE, D4_Q)
        keys = set(enumerate_embeddings(D4_Q, 4))
        assert canonical_rows(D4_SAMPLE) in keys

    def test_gram_soundness_and_no_zero_rows(self):
        graphs = [D4_GRAPH, PlumbingGraph(-3, ((-2, -2), (-4,))),
                  PlumbingGraph(-1, ((-3,), (-2,)))]
        for graph in graphs:
            q = graph.definite_form
            embeddings = [emb for _, emb, _ in all_embeddings(q)]
            assert len(set(embeddings)) == len(embeddings)
            for emb in embeddings:
                assert gram_matches(emb, q)
                assert all(any(row) for row in emb)
                assert emb == canonical_rows(emb)

    def test_all_embeddings_runs_to_the_norm_sum(self):
        # Each rank of the stream, read off one walk, is that rank's own
        # search, from k up to the norm sum (or n_max), empty ranks included;
        # a lower n_max keeps the walk order of the ranks it keeps.
        q = PlumbingGraph(-3, ((-2, -2), (-4,))).definite_form  # k = 4, sum 11
        full = list(all_embeddings(q))
        assert [n for n, _, _ in full] == [4, 7, 6, 8]  # walk order, not rank order
        assert list(all_embeddings(q, 6)) == [item for item in full if item[0] <= 6]
        assert list(all_embeddings(q, 3)) == []
        graphs = oriented_graphs(2, 5, -2, 3) + oriented_graphs(3, 3, -2, 3)
        assert len(set(graphs)) == 296
        for graph in graphs:
            q = graph.definite_form
            for n_max in (None, len(q) + 1):
                top = lattice._rank_bound(q) if n_max is None else n_max
                ranks = by_rank(all_embeddings(q, n_max), len(q), top)
                for n, embeddings in ranks.items():
                    assert [emb for emb, _ in embeddings] == \
                        list(enumerate_embeddings(q, n)), (graph, n)

    def test_all_embeddings_walks_one_tree(self, monkeypatch):
        # One tree for every rank, and no definiteness test: the stream
        # takes the guarded form as it is.
        counts = Counter()

        class CountingTree(lattice._OrderlyTree):
            def __init__(self, *args, **kwargs):
                counts["trees"] += 1
                super().__init__(*args, **kwargs)

        def counting(graph, eliminate=plumbing.tree_det):
            counts["eliminations"] += 1
            return eliminate(graph)

        monkeypatch.setattr(lattice, "_OrderlyTree", CountingTree)
        monkeypatch.setattr(plumbing, "tree_det", counting)
        q = PlumbingGraph(-3, ((-2, -2), (-4,))).definite_form
        assert counts == {"eliminations": 1}
        for n_max in (None, 6):
            counts.clear()
            ranks = {n for n, _, _ in all_embeddings(q, n_max)}
            assert len(ranks) > 1
            assert counts == {"trees": 1}

    def test_each_yielded_leaf_is_canonicalised_exactly_once(self, monkeypatch):
        # A leaf is mapped to its matrix when it is yielded: never twice,
        # and never ahead of the reader.
        calls = Counter()

        def counting_rows(slots, n, cols, rows=lattice._canonical_rows):
            calls[n] += 1
            return rows(slots, n, cols)

        monkeypatch.setattr(lattice, "_canonical_rows", counting_rows)
        q = PlumbingGraph(-3, ((-2, -2), (-4,))).definite_form
        yielded = Counter()
        for n, emb, _ in all_embeddings(q):
            yielded[n] += 1
            assert len(emb) == n and calls == yielded, n
        assert len(yielded) > 1  # several ranks hold leaves

    def test_the_first_embedding_comes_before_the_walk_ends(self, monkeypatch):
        trees = []

        class RecordedTree(lattice._OrderlyTree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trees.append(self)

        monkeypatch.setattr(lattice, "_OrderlyTree", RecordedTree)
        q = PlumbingGraph(-3, ((-2, -2), (-4,))).definite_form
        stream = all_embeddings(q)
        next(stream)
        [tree] = trees
        first = tree.nodes
        assert sum(1 for _ in stream) > 0
        assert first < tree.nodes

    def test_memory_stays_flat_in_the_number_of_embeddings(self):
        # The plumbing of M(-2; 38/25, 5/2, 7/3): 7,247 embeddings, none of
        # them held once the next one is read.  The peak here is about
        # 0.5 MB, much of it in the tuple free list; holding each leaf's
        # columns until the walk ended peaked at 3.4 MB.
        q = PlumbingGraph(-5, ((-3, -13), (-2, -3), (-2, -4))).definite_form
        tracemalloc.start()
        try:
            count = sum(1 for _ in all_embeddings(q))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 7247
        assert peak < 1_000_000

    def test_canonical_rows_match_the_reference(self):
        # Random columns whose leading entries are often negative, and
        # whose rows often tie, on every prefix of the rows.
        rng = random.Random(26)
        for _ in range(2000):
            k, m = rng.randint(1, 5), rng.randint(1, 7)
            rows = [tuple(rng.randint(-3, 2) for _ in range(k)) for _ in range(m)]
            for r in range(1, m):
                if rng.random() < 0.3:
                    rows[r] = rows[rng.randrange(r)]
                if rng.random() < 0.2:
                    rows[r] = tuple(-x for x in rows[r])
            cols = list(zip(*rows))
            # column v of the embedding is cols[slots[v]]
            slots = list(range(k))
            shuffled = rng.sample(slots, k)
            for n in range(m + 1):
                expected = canonical_rows_of_columns(cols, n)
                assert lattice._canonical_rows(slots, n, cols) == expected, (cols, n)
                permuted = canonical_rows_of_columns([cols[s] for s in shuffled], n)
                assert lattice._canonical_rows(shuffled, n, cols) == permuted, \
                    (cols, shuffled, n)

    def test_deterministic_order(self):
        first = list(enumerate_embeddings(D4_Q, 4))
        second = list(enumerate_embeddings(D4_Q, 4))
        assert first == second

    def test_rejects_indefinite(self):
        # An indefinite form has no Definite, so it never reaches a search:
        # a graph's guard and the tests' builder refuse it, and the streams
        # refuse the plain matrix by its type.
        with pytest.raises(NotNegativeDefiniteError):
            list(enumerate_embeddings(PlumbingGraph(1, ()).definite_form, 1))
        with pytest.raises(NotNegativeDefiniteError):
            list(all_embeddings(definite([[-2, 3], [3, -2]])))
        with pytest.raises(TypeError, match="definite_form"):
            list(all_embeddings(freeze([[-2, 3], [3, -2]])))

    def test_rejects_a_bad_form_whatever_its_rank_range(self):
        # Both rank ranges are empty (the norm sum, or n_max, is below k).
        with pytest.raises(TypeError, match="definite_form"):
            list(all_embeddings(((1,),)))
        with pytest.raises(TypeError, match="definite_form"):
            list(all_embeddings(((-2, 1), (0, -2)), 1))

    def test_every_public_entry_guards_a_raw_input(self, monkeypatch):
        # Each entry guards what it is given before any search work, and the
        # obstruction search does so whatever its cache holds: a matrix that
        # is not a Definite is refused by its type, and a graph that is not
        # negative definite by its guard.
        for graph in oriented_graphs(2, 3, -1, 1):
            qa_lattice_obstruction(graph)
        assert qa_lattice_obstruction.cache_info().currsize > 0

        def unreachable(*args):
            raise AssertionError("the search ran on an unguarded input")

        monkeypatch.setattr(lattice, "_OrderlyTree", unreachable)
        monkeypatch.setattr(lattice, "_cached_search", unreachable)
        asymmetric = ((-2, 1), (0, -2))
        indefinite = PlumbingGraph(0, ((-2,),) * 4)
        for run in (laufer_run, lambda q: list(all_embeddings(q))):
            for q in (asymmetric, adjacency_matrix(indefinite)):
                with pytest.raises(TypeError, match="definite_form"):
                    run(q)
        for graph in (indefinite, PlumbingGraph(1, ()), PlumbingGraph(-1, ((-2,),) * 3)):
            with pytest.raises(NotNegativeDefiniteError):
                qa_lattice_obstruction(graph)

    def test_a_guarded_form_is_eliminated_once(self, monkeypatch):
        # A graph's guard runs one tree elimination; its Definite passes
        # laufer_run and all_embeddings as it is, with no elimination, and a
        # plain matrix equal to it is refused.  The graph's guard is
        # memoised on the graph object, so the graphs here are built fresh.
        calls = []

        def counting_tree(graph, eliminate=plumbing.tree_det):
            calls.append(("tree", graph.vertex_count))
            return eliminate(graph)

        monkeypatch.setattr(plumbing, "tree_det", counting_tree)
        graph = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
        form = graph.definite_form
        assert calls == [("tree", 4)] and form == D4_Q and form.det == 4
        calls.clear()
        laufer_run(form)
        assert sum(1 for _ in all_embeddings(form)) == 3
        assert calls == []
        for run in (laufer_run, lambda q: next(all_embeddings(q))):
            with pytest.raises(TypeError, match="definite_form"):
                run(tuple(form))
        fresh = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
        calls.clear()
        laufer_run(fresh.definite_form)
        qa_lattice_obstruction(fresh)
        qa_lattice_obstruction(fresh)
        assert calls == [("tree", 4)]
        equal = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
        assert equal == fresh and hash(equal) == hash(fresh)
        qa_lattice_obstruction(equal)
        assert calls == [("tree", 4)] * 2

    def test_rejects_a_rank_below_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="ambient rank"):
                list(enumerate_embeddings(D4_Q, n))


def brute_force_orbits(q, n, bound=2):
    """All embeddings with entries in [-bound, bound], deduped by orbit."""
    k = len(q)
    by_norm = {}
    for col in itertools.product(range(-bound, bound + 1), repeat=n):
        by_norm.setdefault(sum(v * v for v in col), []).append(col)
    out = set()
    pools = [by_norm.get(-q[i][i], []) for i in range(k)]

    def extend(combo):
        i = len(combo)
        if i == k:
            rows = list(zip(*combo))
            if all(any(row) for row in rows):
                out.add(canonical_rows(rows))
            return
        for col in pools[i]:
            if all(sum(a * b for a, b in zip(col, combo[j])) == -q[i][j]
                   for j in range(i)):
                extend(combo + [col])

    extend([])
    return out


class TestCompleteness:
    def test_matches_brute_force_small(self):
        qs = [definite(((w,),)) for w in (-1, -2, -3, -4)]
        for a in range(-4, 0):
            for b in range(-4, 0):
                for off in (0, 1):
                    q = freeze([[a, off], [off, b]])
                    if is_negative_definite_matrix(q):
                        qs.append(definite(q))
        for q in qs:
            for n in range(1, 5):
                mine = list(enumerate_embeddings(q, n))
                assert len(set(mine)) == len(mine), (q, n)
                assert set(mine) == brute_force_orbits(q, n), (q, n)

    def test_matches_brute_force_on_stars_placed_out_of_index_order(self):
        # Norm order differs from index order on each of these stars, so the
        # search places vertices in a different order than it reports them.
        stars = [PlumbingGraph(-3, ((-2,), (-2,), (-2,))),
                 PlumbingGraph(-2, ((-3,), (-2,))),
                 PlumbingGraph(-2, ((-2,), (-3,), (-2,))),
                 PlumbingGraph(-4, ((-2, -2),))]
        for graph in stars:
            q = graph.definite_form
            found = 0
            for n in range(len(q), 6):
                mine = list(enumerate_embeddings(q, n))
                assert len(set(mine)) == len(mine), (graph, n)
                assert set(mine) == brute_force_orbits(q, n), (graph, n)
                found += len(mine)
            assert found > 0, graph

    def test_only_rows_equal_on_every_placed_column_are_ordered(self):
        # Placed as the legs -3, -3, -4, then the centre.  In each orbit's
        # leader the row first touched by the third column equals the row
        # above it in that column and has the larger entry in the last one;
        # they differ on an earlier column, so no cap may order them.  These
        # are the two orbits brute_force_orbits(q, 5) finds; it takes
        # seconds, so they are pinned.
        q = PlumbingGraph(-6, ((-3,), (-3,), (-4,))).definite_form
        assert set(enumerate_embeddings(q, 5)) == {
            ((2, -1, 0, -1), (1, 1, -1, 0), (1, 0, 0, 1), (0, 1, 1, -1),
             (0, 0, 1, 1)),
            ((2, 0, -1, -1), (1, 0, 0, 1), (1, -1, 1, 0), (0, 1, 1, -1),
             (0, 1, 0, 1))}

    def test_no_rank_yields_a_duplicate(self):
        # The search keeps no set of orbit keys: each leaf is its own orbit's
        # lex leader, so a repeated matrix means the pruning argument broke.
        graphs = oriented_graphs(2, 5, -2, 3)
        assert len(graphs) == 243
        yielded = 0
        for graph in graphs:
            matrices = [emb for _, emb, _ in all_embeddings(graph.definite_form)]
            assert len(set(matrices)) == len(matrices), graph
            yielded += len(matrices)
        assert yielded > 0

    def test_leg_relabelling_permutes_the_orbits(self):
        # Reordering the legs relabels the vertices; each rank's orbits must
        # be the same up to that relabelling, whatever order the search uses.
        stars = [PlumbingGraph(-2, ((-2,), (-3,), (-4,))),
                 PlumbingGraph(-3, ((-2, -2), (-3,), (-2,))),
                 PlumbingGraph(-2, ((-3,), (-2, -2), (-5,))),
                 PlumbingGraph(-3, ((-2,), (-4,), (-2, -2)))]
        for graph in stars:
            base = graph.definite_form
            starts = [1]
            for leg in graph.legs:
                starts.append(starts[-1] + len(leg))
            reference = {n: {emb for emb, _ in embeddings} for n, embeddings
                         in by_rank(all_embeddings(base), len(base),
                                    lattice._rank_bound(base)).items()}
            assert any(reference.values()), graph
            for perm in itertools.permutations(range(len(graph.legs))):
                relabelled = PlumbingGraph(graph.central_weight,
                                           tuple(graph.legs[i] for i in perm))
                # old vertex index of each vertex of the relabelled graph
                source = [0] + [v for i in perm
                                for v in range(starts[i], starts[i + 1])]
                q = relabelled.definite_form
                for n, orbits in reference.items():
                    back = set()
                    for emb in enumerate_embeddings(q, n):
                        cols = [None] * len(source)
                        for col, old in zip(zip(*emb), source):
                            cols[old] = col
                        back.add(canonical_rows(zip(*cols)))
                    assert back == orbits, (relabelled, n)


def is_frozen_matrix(m):
    """Whether m is an intmat.Matrix as ``freeze`` builds it: a tuple of
    tuples of ints."""
    return (type(m) is tuple and all(type(row) is tuple for row in m)
            and all(type(v) is int for row in m for v in row) and freeze(m) == m)


class TestMatrixContract:
    # The lattice API speaks intmat.Matrix: one row per coordinate, column i
    # the image of vertex i, with no wrapper around it.
    @pytest.mark.parametrize("graphs", [
        lambda: [D4_GRAPH, PlumbingGraph(-4, ())],
        lambda: oriented_graphs(3, 4, -3, 4),  # the acceptance family's stars
    ], ids=["D4-and-a-vertex", "acceptance"])
    def test_streams_and_witnesses_are_plain_matrices(self, graphs):
        streamed = witnesses = 0
        for graph in graphs():
            q = graph.definite_form
            for n, emb, surjective in all_embeddings(q):
                assert is_frozen_matrix(emb), (graph, n)
                assert type(surjective) is bool
                assert len(emb) == n and all(len(row) == len(q) for row in emb)
                streamed += 1
            result = qa_lattice_obstruction(graph)
            if result.witness is not None:
                assert is_frozen_matrix(result.witness), graph
                assert len(result.witness) == result.witness_n
                witnesses += 1
        assert streamed > 0
        assert witnesses > 0

    def test_functions_take_a_plain_tuple_matrix(self):
        emb = ((1, -1, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 0, 0, 1))
        assert gram_matrix(emb) == D4_Q
        assert gram_matches(emb, D4_Q)
        assert transpose_surjective(emb) is False
        assert gram_matrix(((1,), (1,))) == ((-2,),)
        assert gram_matches(((1,), (1,)), ((-2,),))
        assert transpose_surjective(((1,), (1,))) is True
        assert transpose_surjective(()) is True  # k = 0: Z^0 is always reached


def rank_mod(matrix, p):
    """Rank of an integer matrix over the field with p elements."""
    rows = [[v % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def primes_with_square_dividing(d):
    """By brute force: each prime p, ascending, with p * p dividing d."""
    return [p for p in range(2, isqrt(abs(d)) + 1)
            if all(p % f for f in range(2, p)) and d % (p * p) == 0]


class TestSurjectivity:
    def test_examples(self):
        assert transpose_surjective(((2,),)) is False
        assert transpose_surjective(((1,), (1,), (1,), (1,))) is True
        assert transpose_surjective(D4_SAMPLE) is False  # determinant +-2

    def test_matches_the_cauchy_binet_oracle(self):
        # |det q| = det(A^T A) is the sum of the squared maximal minors of A
        # (Cauchy-Binet), so a prime dividing all of them has its square
        # dividing det q.  A^T is onto exactly when no prime divides them
        # all, i.e. when A keeps full column rank mod each such prime; with
        # det q square-free every embedding is onto.
        square_free = onto = not_onto = 0
        for graph in oriented_graphs(2, 5, -2, 3):
            q = graph.definite_form
            primes = primes_with_square_dividing(det(q))
            for _, emb, surjective in all_embeddings(q):
                expected = all(rank_mod(emb, p) == len(emb[0]) for p in primes)
                assert transpose_surjective(emb) == surjective == expected, emb
                square_free += not primes
                onto += expected
                not_onto += not expected
        assert (square_free, onto, not_onto) == (556, 826, 75)

    def test_critical_primes_match_brute_force(self):
        for d in range(-2000, 2001):
            if d:
                assert lattice._critical_primes(d) == \
                    tuple(primes_with_square_dividing(d)), d

    def test_critical_primes_on_structured_values(self):
        # Values built from known primes up to 10^4, so the expected primes
        # are known by construction: p^2 q, p q^2, p^3, p^2 q^2, p q and
        # p^5 q, and, for consecutive primes r < s, values whose cofactor
        # left after trial division is a prime square just past the
        # cube-root bound.
        sieve = bytearray([1]) * 10_001
        sieve[:2] = b"\0\0"
        for i in range(2, 101):
            if sieve[i]:
                sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
        primes = [i for i, is_prime in enumerate(sieve) if is_prime]
        rng = random.Random(18)
        cases = []
        for _ in range(100):
            p, q = sorted(rng.sample(primes, 2))
            cases += [(p * p * q, (p,)), (p * q * q, (q,)), (p ** 3, (p,)),
                      (p * p * q * q, (p, q)), (p * q, ()), (p ** 5 * q, (p,))]
        for r, s, t in zip(primes[-20:], primes[-19:], primes[-18:]):
            cases += [(s * s, (s,)), (2 * s * s, (s,)), (r * s * s, (s,)),
                      (r * r * s, (r,)), (r * s * t, ()), (4 * r * s, (2,)),
                      (4 * s * s, (2, s)), (r ** 3 * t * t, (r, t))]
        for d, expected in cases:
            assert lattice._critical_primes(d) == expected, d
            assert lattice._critical_primes(-d) == expected, -d

    def test_square_free_det_makes_every_embedding_onto(self):
        # The Lemma of ``_OrderlyTree``: with no critical prime, nothing
        # can divide the index of the lattice the rows generate, so every
        # embedding at every rank has a surjective transpose.
        rng = random.Random(2026)
        stars = legs = total = 0
        while stars < 40:
            graph = random_star_graph(rng, max_legs=4, max_leg_len=2,
                                      central_range=(-5, -1), leg_range=(-4, -2))
            d = negative_definite_det(adjacency_matrix(graph))
            if d is None or lattice._critical_primes(d):
                continue
            stars += 1
            legs = max(legs, len(graph.legs))
            for _, emb, surjective in all_embeddings(graph.definite_form):
                assert surjective and transpose_surjective(emb), (graph, emb)
                total += 1
        assert legs == 4 and total > 2000

    @pytest.mark.parametrize("family, counts", [
        ((2, 5, -3, 4), (1036, 1460, 118)),
        ((3, 4, -3, 4), (522, 2345, 584)),
    ], ids=["p2-alpha5", "p3-alpha4"])
    def test_onto_exactly_when_independent_mod_the_critical_primes(self, family, counts):
        # The lemma behind the mod-p prune (``_OrderlyTree``), on every
        # embedding at every rank: the tree's own mod-p bases accept every
        # column exactly when the transpose is onto, and agree with the
        # rank over each field.  With det q square-free both always hold.
        square_free = onto = not_onto = 0
        for graph in oriented_graphs(*family):
            q = graph.definite_form
            primes = lattice._critical_primes(det(q))
            for n, emb, surjective in all_embeddings(q):
                tree = lattice._OrderlyTree(q, n, primes)
                independent = all(tree._extend_bases(col, n) for col in zip(*emb))
                assert independent == all(rank_mod(emb, p) == len(emb[0])
                                          for p in primes)
                assert transpose_surjective(emb) == surjective == independent, emb
                square_free += not primes
                onto += independent
                not_onto += not independent
        assert (square_free, onto, not_onto) == counts

    def test_matches_the_smith_form_on_random_matrices(self):
        # smith_form.invariant_factors is the independent reference: A^T is onto
        # exactly when A has k invariant factors and all of them are 1.
        rng = random.Random(80)
        kinds = {"n < k": 0, "zero row": 0, "rank deficient": 0,
                 "non-unit index": 0, "onto": 0}
        for trial in range(800):
            n, k = rng.randint(1, 6), rng.randint(1, 5)
            m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            if trial % 4 == 1:
                m[rng.randrange(n)] = [0] * k
            elif trial % 4 == 2 and k > 1:  # the last column depends on the others
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                for row in m:
                    row[-1] = a * row[0] + b * row[1 % (k - 1)]
            elif trial % 4 == 3:  # scale a column: a full rank index stays > 1
                t, f = rng.randrange(k), rng.choice([2, 3, -2])
                for row in m:
                    row[t] *= f
            m = freeze(m)
            factors = invariant_factors(m)
            expected = n >= k and all(f == 1 for f in factors)
            assert transpose_surjective(m) == expected, m
            if n < k:
                kinds["n < k"] += 1
            elif not expected:
                kinds["rank deficient" if 0 in factors else "non-unit index"] += 1
            else:
                kinds["onto"] += 1
            kinds["zero row"] += not all(any(row) for row in m)
        assert min(kinds.values()) >= 50, kinds

    def test_matches_the_smith_form_on_every_embedding(self):
        checked = 0
        for graph in oriented_graphs(2, 5, -2, 3):
            for _, emb, surjective in all_embeddings(graph.definite_form):
                expected = all(f == 1 for f in invariant_factors(emb))
                assert transpose_surjective(emb) == surjective == expected, emb
                checked += 1
        assert checked == 901

    def test_invariant_under_signed_row_permutations(self, rng):
        embeddings = list(enumerate_embeddings(D4_Q, 4))
        embeddings += list(enumerate_embeddings(
            PlumbingGraph(-1, ((-3,), (-2,))).definite_form, 3))
        for emb in embeddings:
            expected = transpose_surjective(emb)
            for _ in range(10):
                rows = [tuple(rng.choice([1, -1]) * v for v in row)
                        for row in emb]
                rng.shuffle(rows)
                assert transpose_surjective(tuple(rows)) == expected


class TestMinorCheck:
    def test_d4_full_minor(self):
        assert abs(minor_check(D4_SAMPLE, range(4))) == 2

    def test_support_condition_violation(self):
        emb = ((1,), (1,))
        with pytest.raises(ValueError):
            minor_check(emb, [0])

    def test_unit_minors_on_surjective_embeddings(self):
        graph = PlumbingGraph(-1, ((-3,), (-2,)))
        q = graph.definite_form
        checked = 0
        for n in range(3, 7):
            for emb in enumerate_embeddings(q, n):
                if not transpose_surjective(emb):
                    continue
                for size in range(1, len(emb[0]) + 1):
                    for cols in itertools.combinations(range(len(emb[0])), size):
                        rows = support_set(emb, cols)
                        if len(rows) != len(cols):
                            continue
                        assert abs(minor_check(emb, cols)) == 1
                        checked += 1
        assert checked > 0

    def test_disjoint_pair_contrapositive(self):
        # Two -2 vertices with no edge.  When both columns squeeze into two
        # rows the minor is forced to +-2 (B^T B = 2I), so by the unit-minor
        # requirement no such embedding can have a surjective transpose.
        q = definite([[-2, 0], [0, -2]])  # no edge: no graph's form
        squeezed = 0
        for n in range(2, 5):
            for emb in enumerate_embeddings(q, n):
                if len(support_set(emb, (0, 1))) == 2:
                    assert abs(minor_check(emb, (0, 1))) == 2
                    assert not transpose_surjective(emb)
                    squeezed += 1
                elif transpose_surjective(emb):
                    # supported subsets of surjective embeddings stay unit
                    for cols in ((0,), (1,)):
                        if len(support_set(emb, cols)) == 1:
                            assert abs(minor_check(emb, cols)) == 1
        assert squeezed > 0


class TestSupportSet:
    def test_examples(self):
        assert support_set(D4_SAMPLE, {0}) == frozenset({0, 1})
        assert support_set(D4_SAMPLE, ()) == frozenset()
        assert support_set(D4_SAMPLE, range(4)) == frozenset({0, 1, 2, 3})


class TestTruncateLegs:
    def test_examples(self):
        assert truncate_legs((-2,), (-2,)) == (1, 1)
        assert truncate_legs((-3, -2), (-2, -2)) == (1, 2)  # 1/3 + 2/3
        assert truncate_legs((-2, -2, -2), (-2,)) == (1, 1)  # 1/2 + 1/2

    def test_exact_sum(self, rng):
        accepted = 0
        while accepted < 100:
            cf1, cf2 = random_cf(rng), random_cf(rng)
            full = prefix_r(cf1, len(cf1)) + prefix_r(cf2, len(cf2))
            if full < 1:
                continue
            l1, l2 = truncate_legs(cf1, cf2)
            assert prefix_r(cf1, l1) + prefix_r(cf2, l2) == 1
            accepted += 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            truncate_legs((-3,), (-3,))  # 1/3 + 1/3 < 1


class TestRigidity:
    def test_two_single_vertices(self):
        emb = ((1, 1), (1, -1))  # columns (1,1) and (1,-1)
        assert rigidity_check(emb, (0,), (1,)) is True

    def test_enumerated_instances(self):
        # chains [-3] and [-2, -2]: r = 1/3, s = 2/3
        q = definite([[-3, 0, 0], [0, -2, 1], [0, 1, -2]])
        hits = 0
        for n in range(3, 8):
            for emb in enumerate_embeddings(q, n):
                shared = support_set(emb, (0,)) & support_set(emb, (1,))
                if not shared:
                    continue
                assert rigidity_check(emb, (0,), (1, 2)) is True
                hits += 1
        assert hits > 0

    def test_hypothesis_violations_raise(self):
        emb = ((1, 1), (1, -1))
        with pytest.raises(ValueError):
            rigidity_check(emb, (0,), ())  # empty chain
        # r + s != 1: two norm-3 vertices sharing a coordinate
        bad = ((1, 1), (1, -1), (1, 0), (0, 1))
        with pytest.raises(ValueError):
            rigidity_check(bad, (0,), (1,))

    def test_requires_shared_first_coordinate(self):
        emb = ((1, 0), (1, 0), (0, 1), (0, 1))
        with pytest.raises(ValueError):
            rigidity_check(emb, (0,), (1,))


def replay_obstruction(graph):
    """The obstruction search rank by rank, with no mod-p prune: each
    rank's embeddings in turn, in the walk order of a tree cut at that rank,
    stopping at the first one with surjective transpose.  Each label it
    reads is checked against ``transpose_surjective`` first."""
    q = graph.definite_form
    for n in range(len(q), lattice._rank_bound(q) + 1):
        for rank, emb, surjective in all_embeddings(q, n):
            if rank == n:
                assert surjective == transpose_surjective(emb), emb
                if surjective:
                    return False, emb, n
    return True, None, None


def leg_sorted(graph):
    """The star with its legs sorted, and for each vertex of ``graph`` the
    index of the same vertex in that star."""
    starts = [1]
    for leg in graph.legs:
        starts.append(starts[-1] + len(leg))
    order = sorted(range(len(graph.legs)), key=lambda i: graph.legs[i])
    star = PlumbingGraph(graph.central_weight, tuple(graph.legs[i] for i in order))
    # the vertex of ``graph`` at each index of the sorted star
    source = [0] + [v for i in order for v in range(starts[i], starts[i + 1])]
    position = [0] * len(source)
    for index, v in enumerate(source):
        position[v] = index
    return star, position


def relabel(emb, position):
    """An embedding of the sorted star as one of the caller's graph: column
    v is the star's column position[v]; rows canonicalised."""
    cols = list(zip(*emb))
    return canonical_rows(zip(*(cols[i] for i in position)))


def replay_leg_sorted(graph):
    """``replay_obstruction`` of the leg-sorted star, its witness relabelled
    to ``graph``'s vertex order."""
    star, position = leg_sorted(graph)
    q, q_star = adjacency_matrix(graph), adjacency_matrix(star)
    assert all(q[u][v] == q_star[position[u]][position[v]]
               for u in range(len(q)) for v in range(len(q)))
    obstructed, emb, n = replay_obstruction(star)
    return obstructed, None if emb is None else relabel(emb, position), n


def leg_permutations(graph):
    """``graph`` with its legs in every order, the typed order first."""
    return [PlumbingGraph(graph.central_weight, legs)
            for legs in dict.fromkeys(itertools.permutations(graph.legs))]


def random_definite_stars(count, seed):
    """``count`` seeded random negative definite stars with two legs or more."""
    rng = random.Random(seed)
    stars = []
    while len(stars) < count:
        graph = random_star_graph(rng, max_legs=4, max_leg_len=3,
                                  central_range=(-5, -1), leg_range=(-4, -2))
        if len(graph.legs) >= 2 and is_negative_definite_matrix(adjacency_matrix(graph)):
            stars.append(graph)
    return stars


def critical_prime_stars(count, seed):
    """``count`` seeded random negative definite stars whose det q has a
    critical prime."""
    rng = random.Random(seed)
    stars = []
    while len(stars) < count:
        graph = random_star_graph(rng, max_legs=4, max_leg_len=2,
                                  central_range=(-5, -1), leg_range=(-4, -2))
        d = negative_definite_det(adjacency_matrix(graph))
        if d is not None and lattice._critical_primes(d):
            stars.append(graph)
    return stars


def verdict_digest(results):
    """sha256 over (obstructed, witness_n) per search: it does not depend on
    the order in which the search meets its leaves."""
    return hashlib.sha256(repr([(result.obstructed, result.witness_n)
                                for result in results]).encode()).hexdigest()


class TestObstruction:
    def test_single_vertex_minus_four(self):
        result = qa_lattice_obstruction(PlumbingGraph(-4, ()))
        assert not result.obstructed
        assert result.witness_n == 4
        assert result.witness == ((1,), (1,), (1,), (1,))

    def test_single_vertex_minus_two(self):
        result = qa_lattice_obstruction(PlumbingGraph(-2, ()))
        assert not result.obstructed
        assert result.witness == ((1,), (1,))

    def test_d4_is_obstructed(self):
        result = qa_lattice_obstruction(D4_GRAPH)
        assert result.obstructed
        assert result.witness is None
        # det = 4: every leaf of ranks 4 through 8 is cut mod 2
        assert result.leaves == 0 and result.pruned > 0

    def test_rejects_indefinite(self):
        with pytest.raises(NotNegativeDefiniteError):
            qa_lattice_obstruction(PlumbingGraph(0, ((-2,),) * 4))

    @pytest.mark.parametrize("graphs", [
        lambda: oriented_graphs(3, 4, -3, 4),  # the acceptance family
        lambda: oriented_graphs(2, 5, -3, 4),
        lambda: oriented_graphs(4, 4, -3, 4),
        lambda: random_definite_stars(60, 20261018),
    ], ids=["3-4--3-4", "2-5--3-4", "4-4--3-4", "random"])
    def test_one_traversal_matches_a_per_rank_replay(self, graphs, monkeypatch):
        # The search runs on the leg-sorted star's placement form, so its
        # witness is that star's replay witness, relabelled to the caller's
        # legs.  Both searches meet each node's candidates by fresh-block
        # size, ascending, which the early stop in ``_place`` relies on.
        # ``_candidates`` tests only the placed columns nonzero at each
        # coordinate, with no look-ahead on the others, so each column it
        # returns is checked to close every gap and fill its norm exactly,
        # and to touch nothing past its fresh block.  The walk builds that
        # block under the orderly cap, which reads ``same`` on every row, so
        # each block is checked positive, non-increasing and within
        # ``high``, and ``same`` against the placed columns.
        lengths = []

        def checked_candidates(tree, i, touched,
                               candidates=lattice._OrderlyTree._candidates):
            out = candidates(tree, i, touched)
            fresh = [size for _, size in out]
            assert fresh == sorted(fresh)
            assert len(tree.cols) == i
            rows = [tuple(col[r] for col in tree.cols) for r in range(tree.n)]
            assert tree.same[1:] == [rows[c] == rows[c - 1]
                                     for c in range(1, tree.n)]
            for col, size in out:
                for j, placed in enumerate(tree.cols):
                    assert sum(a * b for a, b in zip(col, placed)) == -tree.q[i][j]
                assert sum(a * a for a in col) == -tree.q[i][i]
                assert not any(col[touched + size:])
                block = col[touched:touched + size]
                assert all(v > 0 for v in block)
                assert list(block) == sorted(block, reverse=True)
                assert touched + size <= tree.high
            lengths.append(len(out))
            return out

        monkeypatch.setattr(lattice._OrderlyTree, "_candidates", checked_candidates)
        qa_lattice_obstruction.cache_clear()
        for graph in graphs():
            result = qa_lattice_obstruction(graph)
            got = (result.obstructed, result.witness, result.witness_n)
            assert got == replay_leg_sorted(graph), graph
            assert result.obstructed == (result.leaves == 0)
            assert result.nodes >= result.leaves
        assert any(length > 1 for length in lengths)

    @pytest.mark.parametrize("family", [(3, 4, -3, 4), (2, 5, -3, 4)],
                             ids=["p3-alpha4", "p2-alpha5"])
    def test_the_mod_p_prune_keeps_exactly_the_onto_leaves(self, family):
        # Walked in full (``high`` never lowered), the pruned tree's leaves
        # are the unpruned tree's leaves with surjective transpose, in the
        # same order.
        for graph in oriented_graphs(*family):
            q = adjacency_matrix(graph)
            form, _ = lattice._placement(q, range(len(q)))
            top = lattice._rank_bound(q)
            pruned = lattice._OrderlyTree(form, top, lattice._critical_primes(det(q)))
            full = lattice._OrderlyTree(form, top)
            kept = [(rank, pruned.cols[:]) for rank in pruned.leaves()]
            onto = [(rank, full.cols[:]) for rank in full.leaves()
                    if transpose_surjective(tuple(zip(*full.cols))[:rank])]
            assert kept == onto, graph

    @pytest.mark.parametrize("graphs", [
        lambda: oriented_graphs(3, 4, -3, 4),  # the acceptance family
        lambda: critical_prime_stars(40, 20261036),
    ], ids=["acceptance", "random-critical"])
    def test_labels_are_the_test_and_the_witness_is_the_first_onto_label(self, graphs):
        # Every label all_embeddings reads off the tree's bases is
        # transpose_surjective's verdict, on the graph and on its leg-sorted
        # star; the obstruction search's witness is the star's first
        # embedding labelled surjective at the lowest rank that has one,
        # relabelled to the graph's legs.
        labels = Counter()
        for graph in graphs():
            star, position = leg_sorted(graph)
            first = {}
            for searched in dict.fromkeys((graph, star)):
                for n, emb, surjective in all_embeddings(searched.definite_form):
                    assert surjective == transpose_surjective(emb), (searched, emb)
                    labels[surjective] += 1
                    if surjective and searched == star:
                        first.setdefault(n, emb)
            result = qa_lattice_obstruction(graph)
            assert result.obstructed == (not first), graph
            if first:
                assert result.witness_n == min(first), graph
                assert result.witness == relabel(first[result.witness_n], position), graph
        assert labels[True] and labels[False]

    def test_cache_is_bounded_above_one_family_pass(self):
        # One pass over the 280-link acceptance family must fit in it.
        maxsize = qa_lattice_obstruction.cache_info().maxsize
        assert maxsize is not None and maxsize >= 280

    def test_search_counters(self):
        result = qa_lattice_obstruction(PlumbingGraph(-2, ()))
        # the column (1, 1) at rank 2 is the only leaf; det = -2 is square-free
        assert (result.nodes, result.leaves, result.pruned) == (1, 1, 0)
        result = qa_lattice_obstruction(D4_GRAPH)
        assert result.leaves == 0 and result.pruned > 0

    def test_a_deep_chain_raises_the_recursion_limit_and_never_lowers_it(self):
        # M(0; 61, 2) is a chain of 62 vertices with rank bound 124: its walk
        # nests one generator per vertex and one frame per coordinate, more
        # than 100 frames past its caller's.
        link = parse_link("M(0; 61, 2)")
        limit = sys.getrecursionlimit()
        try:
            for start in (len(inspect.stack(0)) + 100, limit + 5000):
                sys.setrecursionlimit(start)
                qa_lattice_obstruction.cache_clear()
                assert verify(link).branch is Branch.POSITIVE_CHECK
                assert sys.getrecursionlimit() >= start
        finally:
            sys.setrecursionlimit(limit)

    def test_verdicts_are_pinned_on_the_acceptance_family(self):
        # Pinned under another sibling order: no order of the search may
        # move a verdict or a minimal rank.
        results = [qa_lattice_obstruction(graph)
                   for graph in oriented_graphs(3, 4, -3, 4)]
        assert len(results) == 262
        assert verdict_digest(results) == \
            "6f083731e3aed288795b77dabd12cf9afdf5c2ede63b78cd948a4b7e9388350b"

    def test_tree_is_pinned_on_the_acceptance_family(self):
        # Pinned sums and digest of the leg-sorted stars' searches: a change
        # to the tree, to its pruning or to the order of its leaves moves at
        # least one of them.
        results = [qa_lattice_obstruction(graph)
                   for graph in oriented_graphs(3, 4, -3, 4)]
        assert len(results) == 262
        assert sum(result.nodes for result in results) == 1722
        assert sum(result.leaves for result in results) == 258
        assert sum(result.pruned for result in results) == 492
        counters = repr([(result.witness_n, result.nodes, result.leaves, result.pruned)
                         for result in results]).encode()
        assert hashlib.sha256(counters).hexdigest() == \
            "5f672f4800e883832d993c8a2c2b3e3345044dd5aa6cdf4fa93a1b20d981ce10"

    @pytest.mark.slow
    def test_verdicts_are_pinned_on_a_heavy_family(self):
        # The 1,001 leg-sorted stars that ``verify`` searches on p=5,
        # alpha<=4, e in [-6,8], in the order the family first meets them;
        # pinned as on the acceptance family.
        stars = {}
        for link in enumerate_family(5, 4, -6, 8, p_min=5):
            std = to_standard_form(link)
            if determinant(std) == 0:
                continue
            graph = oriented_graph(std)[1]
            laufer = laufer_run(graph.definite_form)
            if laufer.verdict is not LauferVerdict.NOT_RATIONAL:
                stars.setdefault(leg_sorted(graph)[0])
        assert len(stars) == 1001
        assert verdict_digest(map(qa_lattice_obstruction, stars)) == \
            "d665e682b3684a3fa4b8b91ff2c5f65f124fd88a4e208c2d5bcf7aba9d9c4db7"

    def test_searches_leave_no_reference_cycles(self):
        # Reference counting alone must free a finished search and a finished
        # or abandoned stream; a cycle would wait for the cyclic collector.
        graphs = oriented_graphs(2, 4, -2, 3)
        gc.collect()
        gc.disable()
        try:
            for graph in graphs:
                q = graph.definite_form
                form, _ = lattice._placement(q, range(len(q)))
                lattice._obstruction_search(form, q.det)
            assert len(list(enumerate_embeddings(D4_Q, 4))) == 3
            stream = enumerate_embeddings(D4_Q, 4)
            next(stream)
            del stream
            assert sum(1 for _ in all_embeddings(D4_Q)) == 3
            stream = all_embeddings(D4_Q)
            next(stream)
            del stream
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLegOrder:
    def test_placement_permutes_q_and_every_leg_order_gets_one_form(self, monkeypatch):
        # ``_placement`` permutes q into ascending norm, ties ascending, with
        # form[slots[u]][slots[v]] == q[u][v].  The obstruction search builds
        # its form only on a cache miss, from the sorted star: the forms
        # built on misses are recorded, and every leg order of a star makes
        # one miss whose form is the leg-sorted star's placement form, the
        # form its own q placed by the leg keys gives too.  A witness is
        # mapped through the slots of that placement, sorted without it.
        forms = []

        def recording(form, d, search=lattice._obstruction_search):
            forms.append(form)
            return search(form, d)

        monkeypatch.setattr(lattice, "_obstruction_search", recording)
        rng = random.Random(20261019)
        stars = repeated = 0
        while stars < 60:
            graph = random_star_graph(rng, max_legs=3, max_leg_len=3,
                                      central_range=(-5, -1), leg_range=(-4, -2))
            if graph.legs and rng.random() < 0.5:  # equal legs
                graph = PlumbingGraph(graph.central_weight,
                                      graph.legs + (rng.choice(graph.legs),))
            q = adjacency_matrix(graph)
            if not is_negative_definite_matrix(q):
                continue
            stars += 1
            repeated += len(set(graph.legs)) < len(graph.legs)
            k = len(q)
            for ties in (range(k), [rng.randrange(3) for _ in range(k)]):
                form, slots = lattice._placement(q, ties)
                assert sorted(slots) == list(range(k))
                assert all(form[slots[u]][slots[v]] == q[u][v]
                           for u in range(k) for v in range(k)), (graph, ties)
                keys = sorted((-q[v][v], ties[v]) for v in range(k))
                assert [(-q[u][u], ties[u]) for u in sorted(range(k), key=slots.__getitem__)] \
                    == keys
            star, _ = leg_sorted(graph)
            expected = lattice._placement(adjacency_matrix(star), range(k))[0]
            qa_lattice_obstruction.cache_clear()
            forms.clear()
            for typed in leg_permutations(graph):
                qa_lattice_obstruction(typed)
                q_typed = adjacency_matrix(typed)
                weights = [q_typed[v][v] for v in range(k)]
                keys = [(), *((leg, i, j) for i, leg in enumerate(typed.legs)
                              for j in range(len(leg)))]
                form, slots = lattice._placement(q_typed, keys)
                assert form == expected and lattice._slots(weights, keys) == slots, typed
            assert forms == [expected], graph
            assert qa_lattice_obstruction.cache_info().misses == 1
        assert repeated > 10

    def test_forms_are_built_on_misses_only(self, monkeypatch):
        # Over the acceptance family's verify, the forms searched, each
        # built just before, are the cache misses, 170, and a warm pass
        # builds none.  Every leg order of a
        # star maps to one key.
        built = []
        keys = []

        def recording_form(form, d, search=lattice._obstruction_search):
            built.append(form)
            return search(form, d)

        def recording_search(*key, search=lattice._cached_search):
            keys.append(key)
            return search(*key)

        monkeypatch.setattr(lattice, "_obstruction_search", recording_form)
        monkeypatch.setattr(lattice, "_cached_search", recording_search)
        family = list(enumerate_family(3, 4, -3, 4, p_min=3))
        qa_lattice_obstruction.cache_clear()
        graphs = []
        for link in family:
            evidence = verify(link)
            if evidence.obstruction is not None:
                graphs.append(evidence.graph)
        assert len(graphs) == 270
        assert len(built) == qa_lattice_obstruction.cache_info().misses == 170
        built.clear()
        for link in family:
            verify(link)
        assert built == [] and qa_lattice_obstruction.cache_info().misses == 170
        for graph in graphs[::9]:
            keys.clear()
            for typed in leg_permutations(graph):
                qa_lattice_obstruction(typed)
            assert len(set(keys)) == 1 and built == [], graph

    @pytest.mark.parametrize("graphs", [
        lambda: oriented_graphs(3, 4, -3, 4),
        lambda: random_definite_stars(60, 20261018),
    ], ids=["p3-alpha4", "random"])
    def test_every_leg_order_shares_one_search(self, graphs):
        # A leg permutation is an isomorphism of q: every order of a star
        # gets the same verdict, rank and counters from one cached search,
        # and a witness that fits its own form.
        orders = verdicts = 0
        for graph in graphs():
            qa_lattice_obstruction.cache_clear()
            counters = set()
            for index, typed in enumerate(leg_permutations(graph)):
                hits = qa_lattice_obstruction.cache_info().hits
                result = qa_lattice_obstruction(typed)
                assert qa_lattice_obstruction.cache_info().hits == hits + (index > 0)
                counters.add((result.obstructed, result.witness_n, result.nodes,
                              result.leaves, result.pruned))
                if result.witness is not None:
                    assert gram_matches(result.witness, adjacency_matrix(typed)), typed
                    assert transpose_surjective(result.witness), typed
                orders += index > 0
            assert len(counters) == 1, graph
            verdicts |= 1 << counters.pop()[0]
        assert orders > 0 and verdicts == 3  # both verdicts, more than one order


def test_link_pipeline_obstruction_matches_expectation():
    link = MontesinosLink(1, (Fraction(2), Fraction(2), Fraction(2)))
    graph = build_graph(to_negative_form(to_standard_form(link)))
    assert qa_lattice_obstruction(graph).obstructed
