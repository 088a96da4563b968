import itertools
from fractions import Fraction

import pytest

from conftest import random_cf
from qamont.cfrac import prefix_r
from qamont.errors import NotNegativeDefiniteError
from qamont.intmat import freeze, is_negative_definite_matrix
from qamont.lattice import (Embedding, embeddings_by_rank,
                            enumerate_embeddings, gram_matches,
                            minor_check, qa_lattice_obstruction,
                            rigidity_check, support_set, transpose_surjective,
                            truncate_legs)
from qamont.classifier import enumerate_family
from qamont.intmat import det
from qamont.montesinos import (MontesinosLink, determinant, to_negative_form,
                               to_standard_form)
from qamont.plumbing import (PlumbingGraph, adjacency_matrix, build_graph,
                             oriented_graph)

D4_GRAPH = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
D4_Q = adjacency_matrix(D4_GRAPH)

# Columns (1,1,0,0), (-1,0,1,0), (-1,0,-1,0), (0,-1,0,1): the spec-level
# sample embedding of the D4 form, checked by direct dot products.
D4_SAMPLE = Embedding(freeze([
    [1, -1, -1, 0],
    [1, 0, 0, -1],
    [0, 1, -1, 0],
    [0, 0, 0, 1],
]))


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
        found = list(enumerate_embeddings(((-2,),), 2))
        assert [e.matrix for e in found] == [((1,), (1,))]

    def test_norm_two_vector_needs_two_coordinates(self):
        assert list(enumerate_embeddings(((-2,),), 1)) == []

    def test_d4_sample_orbit_is_found(self):
        assert gram_matches(D4_SAMPLE, D4_Q)
        keys = {e.matrix for e in enumerate_embeddings(D4_Q, 4)}
        assert canonical_rows(D4_SAMPLE.matrix) in keys

    def test_gram_soundness_and_no_zero_rows(self):
        graphs = [D4_GRAPH, PlumbingGraph(-3, ((-2, -2), (-4,))),
                  PlumbingGraph(-1, ((-3,), (-2,)))]
        for graph in graphs:
            q = adjacency_matrix(graph)
            for _, embeddings in embeddings_by_rank(q):
                embeddings = list(embeddings)
                assert len({e.matrix for e in embeddings}) == len(embeddings)
                for emb in embeddings:
                    assert gram_matches(emb, q)
                    assert all(any(row) for row in emb.matrix)
                    assert emb.matrix == canonical_rows(emb.matrix)

    def test_embeddings_by_rank_runs_to_the_norm_sum(self):
        q = adjacency_matrix(PlumbingGraph(-3, ((-2, -2), (-4,))))  # k = 4, sum 11
        assert [n for n, _ in embeddings_by_rank(q)] == list(range(4, 12))
        assert [n for n, _ in embeddings_by_rank(q, 6)] == [4, 5, 6]
        assert list(embeddings_by_rank(q, 3)) == []
        for n, embeddings in embeddings_by_rank(q):
            assert [e.matrix for e in embeddings] == \
                [e.matrix for e in enumerate_embeddings(q, n)]

    def test_deterministic_order(self):
        first = [e.matrix for e in enumerate_embeddings(D4_Q, 4)]
        second = [e.matrix for e in enumerate_embeddings(D4_Q, 4)]
        assert first == second

    def test_rejects_indefinite(self):
        with pytest.raises(NotNegativeDefiniteError):
            list(enumerate_embeddings(freeze([[1]]), 1))


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
        qs = [((w,),) for w in (-1, -2, -3, -4)]
        for a in range(-4, 0):
            for b in range(-4, 0):
                for off in (0, 1):
                    q = freeze([[a, off], [off, b]])
                    if is_negative_definite_matrix(q):
                        qs.append(q)
        for q in qs:
            for n in range(1, 5):
                mine = [e.matrix for e in enumerate_embeddings(q, n)]
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
            q = adjacency_matrix(graph)
            found = 0
            for n in range(len(q), 6):
                mine = [e.matrix for e in enumerate_embeddings(q, n)]
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
        q = adjacency_matrix(PlumbingGraph(-6, ((-3,), (-3,), (-4,))))
        assert {e.matrix for e in enumerate_embeddings(q, 5)} == {
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
            for n, embeddings in embeddings_by_rank(adjacency_matrix(graph)):
                matrices = [e.matrix for e in embeddings]
                assert len(set(matrices)) == len(matrices), (graph, n)
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
            base = adjacency_matrix(graph)
            starts = [1]
            for leg in graph.legs:
                starts.append(starts[-1] + len(leg))
            reference = {n: {e.matrix for e in embeddings}
                         for n, embeddings in embeddings_by_rank(base)}
            assert any(reference.values()), graph
            for perm in itertools.permutations(range(len(graph.legs))):
                relabelled = PlumbingGraph(graph.central_weight,
                                           tuple(graph.legs[i] for i in perm))
                # old vertex index of each vertex of the relabelled graph
                source = [0] + [v for i in perm
                                for v in range(starts[i], starts[i + 1])]
                q = adjacency_matrix(relabelled)
                for n, orbits in reference.items():
                    back = set()
                    for emb in enumerate_embeddings(q, n):
                        cols = [None] * len(source)
                        for new, old in enumerate(source):
                            cols[old] = emb.column(new)
                        back.add(canonical_rows(zip(*cols)))
                    assert back == orbits, (relabelled, n)


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
    d = abs(d)
    primes = []
    f = 2
    while f * f <= d:
        power = 0
        while d % f == 0:
            d //= f
            power += 1
        if power >= 2:
            primes.append(f)
        f += 1
    return primes


class TestSurjectivity:
    def test_examples(self):
        assert transpose_surjective(Embedding(((2,),))) is False
        assert transpose_surjective(Embedding(((1,), (1,), (1,), (1,)))) is True
        assert transpose_surjective(D4_SAMPLE) is False  # determinant +-2

    def test_matches_the_cauchy_binet_oracle(self):
        # |det q| = det(A^T A) is the sum of the squared maximal minors of A
        # (Cauchy-Binet), so a prime dividing all of them has its square
        # dividing det q.  A^T is onto exactly when no prime divides them
        # all, i.e. when A keeps full column rank mod each such prime; with
        # det q square-free every embedding is onto.
        square_free = onto = not_onto = 0
        for graph in oriented_graphs(2, 5, -2, 3):
            q = adjacency_matrix(graph)
            primes = primes_with_square_dividing(det(q))
            for _, embeddings in embeddings_by_rank(q):
                for emb in embeddings:
                    expected = all(rank_mod(emb.matrix, p) == emb.k
                                   for p in primes)
                    assert transpose_surjective(emb) == expected, emb
                    square_free += not primes
                    onto += expected
                    not_onto += not expected
        assert (square_free, onto, not_onto) == (556, 826, 75)

    def test_invariant_under_signed_row_permutations(self, rng):
        embeddings = list(enumerate_embeddings(D4_Q, 4))
        embeddings += list(enumerate_embeddings(adjacency_matrix(
            PlumbingGraph(-1, ((-3,), (-2,)))), 3))
        for emb in embeddings:
            expected = transpose_surjective(emb)
            for _ in range(10):
                rows = [tuple(rng.choice([1, -1]) * v for v in row)
                        for row in emb.matrix]
                rng.shuffle(rows)
                assert transpose_surjective(Embedding(tuple(rows))) == expected


class TestMinorCheck:
    def test_d4_full_minor(self):
        assert abs(minor_check(D4_SAMPLE, range(4))) == 2

    def test_support_condition_violation(self):
        emb = Embedding(((1,), (1,)))
        with pytest.raises(ValueError):
            minor_check(emb, [0])

    def test_unit_minors_on_surjective_embeddings(self):
        graph = PlumbingGraph(-1, ((-3,), (-2,)))
        q = adjacency_matrix(graph)
        checked = 0
        for n in range(3, 7):
            for emb in enumerate_embeddings(q, n):
                if not transpose_surjective(emb):
                    continue
                for size in range(1, emb.k + 1):
                    for cols in itertools.combinations(range(emb.k), size):
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
        q = freeze([[-2, 0], [0, -2]])
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
        emb = Embedding(((1, 1), (1, -1)))  # columns (1,1) and (1,-1)
        assert rigidity_check(emb, (0,), (1,)) is True

    def test_enumerated_instances(self):
        # chains [-3] and [-2, -2]: r = 1/3, s = 2/3
        q = freeze([[-3, 0, 0], [0, -2, 1], [0, 1, -2]])
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
        emb = Embedding(((1, 1), (1, -1)))
        with pytest.raises(ValueError):
            rigidity_check(emb, (0,), ())  # empty chain
        # r + s != 1: two norm-3 vertices sharing a coordinate
        bad = Embedding(((1, 1), (1, -1), (1, 0), (0, 1)))
        with pytest.raises(ValueError):
            rigidity_check(bad, (0,), (1,))

    def test_requires_shared_first_coordinate(self):
        emb = Embedding(((1, 0), (1, 0), (0, 1), (0, 1)))
        with pytest.raises(ValueError):
            rigidity_check(emb, (0,), (1,))


def replay_obstruction(graph):
    """The obstruction search rank by rank: each rank's stream in turn,
    stopping at the first embedding with surjective transpose."""
    examined = []
    for n, embeddings in embeddings_by_rank(adjacency_matrix(graph)):
        count = 0
        for emb in embeddings:
            count += 1
            if transpose_surjective(emb):
                examined.append((n, count))
                return False, emb, n, tuple(examined)
        examined.append((n, count))
    return True, None, None, tuple(examined)


class TestObstruction:
    def test_single_vertex_minus_four(self):
        result = qa_lattice_obstruction(PlumbingGraph(-4, ()))
        assert not result.obstructed
        assert result.witness_n == 4
        assert result.witness.matrix == ((1,), (1,), (1,), (1,))

    def test_single_vertex_minus_two(self):
        result = qa_lattice_obstruction(PlumbingGraph(-2, ()))
        assert not result.obstructed
        assert result.witness.matrix == ((1,), (1,))

    def test_d4_is_obstructed(self):
        result = qa_lattice_obstruction(D4_GRAPH)
        assert result.obstructed
        assert result.witness is None
        # ranks 4 through 8 were all exhausted
        assert [n for n, _ in result.examined] == [4, 5, 6, 7, 8]

    def test_rejects_indefinite(self):
        with pytest.raises(NotNegativeDefiniteError):
            qa_lattice_obstruction(PlumbingGraph(0, ((-2,),) * 4))

    @pytest.mark.parametrize("p, alpha_max, e_min, e_max", [
        (3, 4, -3, 4),  # the acceptance family
        (2, 5, -3, 4),
    ])
    def test_one_traversal_matches_a_per_rank_replay(self, p, alpha_max, e_min, e_max):
        for graph in oriented_graphs(p, alpha_max, e_min, e_max):
            result = qa_lattice_obstruction(graph)
            got = (result.obstructed, result.witness, result.witness_n, result.examined)
            assert got == replay_obstruction(graph), graph
            assert result.leaves >= result.total_examined
            assert result.nodes >= result.leaves

    def test_search_counters(self):
        result = qa_lattice_obstruction(PlumbingGraph(-2, ()))
        # the column (1, 1) at rank 2 is the only leaf
        assert (result.nodes, result.leaves) == (1, 1)
        result = qa_lattice_obstruction(D4_GRAPH)
        assert result.leaves == result.total_examined  # obstructed: every rank counts


def test_link_pipeline_obstruction_matches_expectation():
    link = MontesinosLink(1, (Fraction(2), Fraction(2), Fraction(2)))
    graph = build_graph(to_negative_form(to_standard_form(link)))
    assert qa_lattice_obstruction(graph).obstructed
