"""Reference matrix algebra for the tests: the Smith form, transpose and
product.  No program path needs them: ``lattice.transpose_surjective``
decides surjectivity by one integer row echelon, and the tests hold it to
the invariant factors computed here (A^T is onto exactly when A has k
invariant factors and all of them are 1)."""

from __future__ import annotations

from qamont.intmat import Matrix


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def invariant_factors(m: Matrix) -> list[int]:
    """Diagonal of the integer normal form: d1 | d2 | ..., nonnegative.

    Returns min(rows, cols) values; trailing zeros signal rank deficiency.
    The form comes from an elementary reduction to diagonal form with the
    divisibility chain enforced.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    a = [list(row) for row in m]
    size = min(nrows, ncols)
    factors: list[int] = []

    for t in range(size):
        while True:
            # Smallest-magnitude nonzero entry of the trailing block as pivot.
            piv = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    v = a[i][j]
                    if v != 0 and (piv is None or abs(v) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                factors.extend([0] * (size - t))
                return factors
            pi, pj = piv
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            p = a[t][t]

            clean = True
            for i in range(t + 1, nrows):
                q, r = divmod(a[i][t], p)
                if q:
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                if r:
                    clean = False
            for j in range(t + 1, ncols):
                q, r = divmod(a[t][j], p)
                if q:
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                if r:
                    clean = False
            if not clean:
                continue

            # Row and column are clear; force the divisibility chain.
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                factors.append(abs(p))
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]

    return factors
