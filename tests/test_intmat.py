import itertools
import random
from math import gcd

import pytest

from qamont.intmat import (freeze, is_negative_definite_matrix, is_symmetric,
                           negative_definite_det)
from references import det
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
        assert is_negative_definite_matrix(m) == expected
        assert negative_definite_det(m) == (det(m) if expected else None)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 500


def test_negative_definite_matrix():
    assert is_negative_definite_matrix(freeze([[-2, 1], [1, -2]]))
    assert is_negative_definite_matrix(freeze([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]))
    assert is_negative_definite_matrix(())
    assert not is_negative_definite_matrix(freeze([[-2, 1], [1, 0]]))
    # zero determinant is only semidefinite
    assert not is_negative_definite_matrix(freeze([[-1, 1], [1, -1]]))
    # a zero leading minor in the middle is rejected before any division by it
    assert not is_negative_definite_matrix(freeze([[-1, 1, 0], [1, -1, 0], [0, 0, -1]]))
    assert not is_negative_definite_matrix(freeze([[0, 1], [1, -1]]))
    with pytest.raises(ValueError):
        is_negative_definite_matrix(freeze([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        is_negative_definite_matrix(freeze([[-2, 1, 0], [1, -2, 0]]))


@pytest.mark.parametrize("rows", [[[-2.9, 1], [1, -2]], [[-2, "1"], [1, -2]]],
                         ids=["float", "string"])
def test_freeze_rejects_non_integer_entries(rows):
    with pytest.raises(ValueError, match="integers"):
        freeze(rows)


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
