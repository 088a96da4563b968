import random
from fractions import Fraction
from math import gcd

import pytest

from qamont.cfrac import cf_expand
from references import cf_eval, prefix_r


def test_expand_examples():
    assert cf_expand(Fraction(-2)) == (-2,)
    # -3 - 1/(-2 - 1/(-2)) = -3 + 2/3 = -7/3, checked by hand
    assert cf_expand(Fraction(-7, 3)) == (-3, -2, -2)
    # chain identity: n copies of -2 evaluate to -(n+1)/n
    assert cf_expand(Fraction(-5, 4)) == (-2, -2, -2, -2)


def test_eval_examples():
    assert cf_eval([-2]) == Fraction(-2)
    assert cf_eval([-3, -2, -2]) == Fraction(-7, 3)
    assert cf_eval([-2, -2, -2]) == Fraction(-4, 3)


def test_chain_identity():
    for n in range(1, 13):
        assert cf_eval([-2] * n) == Fraction(-(n + 1), n)
        assert cf_expand(Fraction(-(n + 1), n)) == (-2,) * n


def test_prefix_examples():
    assert prefix_r([-2], 1) == Fraction(1, 2)
    assert prefix_r([-3, -2], 1) == Fraction(1, 3)
    assert prefix_r([-3, -2], 2) == Fraction(2, 5)  # cf_eval gives -5/2


def test_roundtrip_exhaustive():
    # every reduced rational t < -1 with |num|, den <= 200
    for den in range(1, 201):
        for num in range(-200, -den, 1):
            if gcd(-num, den) != 1:
                continue
            t = Fraction(num, den)
            coeffs = cf_expand(t)
            assert all(a <= -2 for a in coeffs)
            assert cf_eval(coeffs) == t


def test_uniqueness_random():
    rng = random.Random(7)
    for _ in range(2000):
        coeffs = tuple(rng.randint(-6, -2) for _ in range(rng.randint(1, 8)))
        assert cf_expand(cf_eval(coeffs)) == coeffs


def test_prefixes_stay_in_unit_interval():
    rng = random.Random(8)
    for _ in range(500):
        coeffs = tuple(rng.randint(-6, -2) for _ in range(rng.randint(1, 8)))
        for length in range(1, len(coeffs) + 1):
            r = prefix_r(coeffs, length)
            assert 0 < r < 1


@pytest.mark.parametrize("bad", [Fraction(-1), Fraction(0), Fraction(-1, 2), Fraction(5, 3)])
def test_expand_rejects_values_at_or_above_minus_one(bad):
    with pytest.raises(ValueError):
        cf_expand(bad)


@pytest.mark.parametrize("bad", [-2.5, -3.0, "-7/3"])
def test_expand_rejects_anything_but_an_int_or_a_fraction(bad):
    # a float is not exact: -2.5 once expanded to (-3, -2), the value -5/2
    with pytest.raises(ValueError, match="int or a Fraction"):
        cf_expand(bad)


def test_expand_takes_an_int():
    assert cf_expand(-4) == (-4,)


def test_eval_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        cf_eval([])
    with pytest.raises(ValueError):
        cf_eval([-2, -1])
    with pytest.raises(ValueError):
        cf_eval([-2, 0, -3])


def test_prefix_rejects_bad_length():
    with pytest.raises(ValueError):
        prefix_r([-2, -2], 0)
    with pytest.raises(ValueError):
        prefix_r([-2, -2], 3)
