import itertools
import random
from math import gcd

import pytest

from conftest import random_star_graph
from qamont.errors import NotNegativeDefiniteError
from qamont.intmat import Definite, freeze, negative_definite_det
from qamont.lattice import all_embeddings
from qamont.laufer import LauferVerdict, laufer_run
from qamont.plumbing import PlumbingGraph, adjacency_matrix
from references import by_rank, det, is_symmetric
from smith_form import invariant_factors, matmul, transpose


def det_by_permutations(m):
    """Independent oracle: Leibniz expansion over all permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def factors_by_minor_gcds(m):
    """Independent oracle: d-th factor is gcd(d-minors) / gcd((d-1)-minors)."""
    nrows, ncols = len(m), len(m[0])
    size = min(nrows, ncols)
    out = []
    prev = 1
    for d in range(1, size + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), d):
            for cols in itertools.combinations(range(ncols), d):
                sub = tuple(tuple(m[r][c] for c in cols) for r in rows)
                g = gcd(g, det_by_permutations(sub))
        if g == 0:
            out.extend([0] * (size - d + 1))
            return out
        out.append(g // prev)
        prev = g
    return out


def random_matrix(rng, nrows, ncols, bound=4):
    return freeze([[rng.randint(-bound, bound) for _ in range(ncols)]
                   for _ in range(nrows)])


def test_det_against_permutation_expansion():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det(m) == det_by_permutations(m)


def test_det_known_values():
    assert det(()) == 1
    assert det(((7,),)) == 7
    assert det(((0, 1), (1, 0))) == -1  # needs the row pivot
    assert det(((-2, 1), (1, -2))) == 3


def negative_definite_by_leading_dets(m):
    """Reference: the j-th leading block's determinant has sign (-1)^j."""
    for j in range(1, len(m) + 1):
        minor = det(tuple(row[:j] for row in m[:j]))
        if (minor < 0) if j % 2 else (minor > 0):
            continue
        return False
    return True


def random_symmetric(rng, n):
    if rng.random() < 0.5:
        # -B^T B is negative semidefinite, and definite when B has full rank.
        b = random_matrix(rng, rng.randint(1, n + 1), n, bound=2)
        return freeze([[-v for v in row] for row in matmul(transpose(b), b)])
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
        m[i][i] -= rng.randint(0, 4)
    return freeze(m)


def test_negative_definite_matches_leading_minor_signs():
    rng = random.Random(14)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        m = random_symmetric(rng, rng.randint(1, 6))
        expected = negative_definite_by_leading_dets(m)
        assert negative_definite_det(m) == (det(m) if expected else None)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 500


@pytest.mark.parametrize("rows", [
    [[-2, 1], [1, -2]], [[-2, 1, 0], [1, -2, 1], [0, 1, -2]], []])
def test_definite_carries_the_determinant(rows):
    form = Definite(rows)
    assert type(form) is Definite
    assert form == freeze(rows) and form.det == det(freeze(rows))
    assert Definite(form) is form  # passed through, not eliminated again


def test_definite_freezes_list_rows():
    # The constructor is the one guard, so it freezes what it is given: list
    # rows come out a hashable Matrix, equal to the tuple of tuples.
    form = Definite([[-2, 1], [1, -2]])
    assert all(type(row) is tuple for row in form)
    assert form == ((-2, 1), (1, -2)) and form.det == 3
    assert hash(form) == hash(((-2, 1), (1, -2)))
    # The guarded entries take list rows through the same constructor.
    assert laufer_run([[-2, 1], [1, -2]]).verdict is LauferVerdict.RATIONAL
    ranks = by_rank(all_embeddings([[-2, 1], [1, -2]]), 2, 4)
    assert {n: len(embs) for n, embs in ranks.items()} == {2: 0, 3: 1, 4: 0}


@pytest.mark.parametrize("rows", [
    [[-2, 1], [1, 0]],
    [[-1, 1], [1, -1]],  # zero determinant is only semidefinite
    # a zero leading minor in the middle is rejected before any division by it
    [[-1, 1, 0], [1, -1, 0], [0, 0, -1]],
    [[0, 1], [1, -1]],
])
def test_definite_rejects_a_form_that_is_not_negative_definite(rows):
    with pytest.raises(NotNegativeDefiniteError):
        Definite(rows)
    with pytest.raises(NotNegativeDefiniteError):
        Definite(freeze(rows))


@pytest.mark.parametrize("rows", [[[0, 1], [2, 0]], [[-2, 1, 0], [1, -2, 0]]])
def test_definite_rejects_a_matrix_that_is_not_symmetric(rows):
    with pytest.raises(ValueError, match="symmetric"):
        Definite(rows)
    with pytest.raises(ValueError, match="symmetric"):
        Definite(freeze(rows))


def test_the_constructor_proves_the_form(rng):
    # Every Definite has passed the test: the constructor keeps exactly the
    # forms the leading-minor reference calls negative definite, E8 and
    # random stars among them, with their determinant.
    e8 = adjacency_matrix(PlumbingGraph(-2, ((-2,), (-2, -2), (-2, -2, -2, -2))))
    assert Definite(e8).det == det(e8) == 1
    kept = 0
    for _ in range(300):
        q = adjacency_matrix(random_star_graph(rng, central_range=(-4, 0)))
        if not negative_definite_by_leading_dets(q):
            with pytest.raises(NotNegativeDefiniteError):
                Definite(q)
            continue
        form = Definite(q)
        assert form == q and form.det == det(q)
        assert Definite(form) is form
        kept += 1
    assert 50 < kept < 250


@pytest.mark.parametrize("rows", [[[-2.9, 1], [1, -2]], [[-2, "1"], [1, -2]]],
                         ids=["float", "string"])
def test_freeze_rejects_non_integer_entries(rows):
    with pytest.raises(ValueError, match="integers"):
        freeze(rows)
    with pytest.raises(ValueError, match="integers"):
        Definite(rows)


def test_invariant_factors_known():
    assert invariant_factors(freeze([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(freeze([[1, 0], [0, 1]])) == [1, 1]
    assert invariant_factors(freeze([[0, 0], [0, 0]])) == [0, 0]
    assert invariant_factors(freeze([[4]])) == [4]
    assert invariant_factors(freeze([[2, 4], [4, 8]])) == [2, 0]


def test_invariant_factors_against_minor_gcds():
    rng = random.Random(12)
    for _ in range(150):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = random_matrix(rng, nrows, ncols, bound=5)
        assert invariant_factors(m) == factors_by_minor_gcds(m)


def test_invariant_factors_divisibility_chain():
    rng = random.Random(13)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=9)
        factors = invariant_factors(m)
        for a, b in zip(factors, factors[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_transpose_and_matmul():
    a = freeze([[1, 2], [3, 4], [5, 6]])
    assert transpose(a) == freeze([[1, 3, 5], [2, 4, 6]])
    assert matmul(transpose(a), a) == freeze([[35, 44], [44, 56]])
    assert is_symmetric(matmul(transpose(a), a))
