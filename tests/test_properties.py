"""Property tests: exact invariants over random links.

Examples are derandomized, so every run tests the same links and the
suite stays deterministic.
"""

import re
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qamont.classifier import classify, enumerate_family, explain, verify
from qamont.montesinos import (MontesinosLink, StandardForm, determinant,
                               epsilon, parse_link, reflect, slide,
                               to_standard_form)
from references import tangle_alpha_beta

SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def tangles(draw, alpha_max):
    """alpha/beta with 2 <= alpha <= alpha_max and beta coprime to it, any sign."""
    alpha = draw(st.integers(2, alpha_max))
    beta = draw(st.integers(-3 * alpha, 3 * alpha)
                .filter(lambda b: b != 0 and gcd(alpha, b) == 1))
    return Fraction(alpha, beta)


@st.composite
def links(draw, p_max=6, alpha_max=50):
    p = draw(st.integers(1, p_max))
    return MontesinosLink(draw(st.integers(-10, 10)),
                          tuple(draw(tangles(alpha_max)) for _ in range(p)))


@st.composite
def standard_forms(draw, p_max, alpha_max):
    """Standard forms with e in [-1, p + 1], so both boundaries of (2) and (4) occur."""
    p = draw(st.integers(1, p_max))
    tangle = st.sampled_from([Fraction(a, b) for a in range(2, alpha_max + 1)
                              for b in range(1, a) if gcd(a, b) == 1])
    return StandardForm(draw(st.integers(-1, p + 1)),
                        tuple(draw(tangle) for _ in range(p)))


def moved(link, order, counts):
    """``link`` with its tangles in ``order`` (indices past p dropped) and
    tangle i of the result slid ``counts[i]`` times."""
    moved = MontesinosLink(link.e, tuple(link.tangles[i] for i in order if i < link.p))
    for index, count in enumerate(counts[:moved.p]):
        moved = slide(moved, index, count)
    return moved


@st.composite
def moves(draw, p_max):
    """An order of range(p_max) and p_max slide counts; ``moved`` cuts both to p."""
    return (draw(st.permutations(range(p_max))),
            draw(st.lists(st.integers(-3, 3), min_size=p_max, max_size=p_max)))


def reference_epsilon(link):
    return Fraction(link.e) - sum(Fraction(beta, alpha) for alpha, beta
                                  in map(tangle_alpha_beta, link.tangles))


@SETTINGS
@given(links())
def test_epsilon_and_determinant_match_fraction_reference(link):
    eps = reference_epsilon(link)
    scaled = eps * prod(tangle_alpha_beta(t)[0] for t in link.tangles)
    assert epsilon(link) == eps
    assert scaled.denominator == 1
    assert determinant(link) == abs(scaled.numerator)


@settings(SETTINGS, max_examples=300)
@given(standard_forms(p_max=5, alpha_max=12), moves(5))
@example(to_standard_form(parse_link("M(1; 4/3, 5/4, 5/4)")),
         ([4, 2, 0, 1, 3], [2, -1, 0, 3, -3]))  # Condition2
@example(to_standard_form(parse_link("M(2; 5/2, 2, 4/3)")),
         ([1, 0, 2, 3, 4], [-2, 0, 1, 0, 0]))  # Condition4
@example(to_standard_form(parse_link("M(2; 3/2, 3/2, 3/2)")),
         ([2, 1, 0, 3, 4], [1, 1, -1, 0, 0]))  # DetZero
def test_classify_invariant_under_slides_and_permutation(std, move):
    order, counts = move
    other = moved(std, order, counts)
    a, b = classify(std), classify(other)
    assert (a.status, a.reason, a.det, a.scaled_epsilon, a.epsilon_text) == \
        (b.status, b.reason, b.det, b.scaled_epsilon, b.epsilon_text)


# The witness indices of a holding (2)/(4) row: alpha_i/(alpha_i-beta_i) vs alpha_j/beta_j.
_PAIR_RE = re.compile(r"alpha_(\d+)/\(alpha_\d+-beta_\d+\) = \S+ [<>] alpha_(\d+)/beta_")


@pytest.mark.parametrize("p, alpha_max, e_min, e_max", [
    (1, 5, -4, 4), (2, 7, -2, 3), (3, 4, -3, 4), (4, 3, -2, 5)])
def test_first_holding_row_is_the_verdict(p, alpha_max, e_min, e_max):
    for link in enumerate_family(p, alpha_max, e_min, e_max, p_min=p):
        report = explain(link)
        if report["det"] == 0:
            continue
        holding = [row for row in report["conditions"] if row["holds"]]
        if not holding:
            assert report["reason"] == "NoConditionHolds"
            assert report["witness_pair"] is None
            continue
        first = holding[0]
        assert report["reason"] == first["name"], report["input"]
        match = _PAIR_RE.search(first["detail"])
        pair = [int(match[1]), int(match[2])] if match else None
        assert report["witness_pair"] == pair, report["input"]


# Every standard form with p <= 3, alpha <= 4 and e in [-3, 4], up to order.
SMALL_FAMILY = list(enumerate_family(3, 4, -3, 4))


@settings(SETTINGS, max_examples=100)
@given(st.sampled_from(SMALL_FAMILY), moves(3))
@example(to_standard_form(parse_link("M(1; 4, 4, 4)")), ([2, 0, 1], [1, -2, 0]))    # LauferNotLSpace
@example(to_standard_form(parse_link("M(1; 4, 4, 3/2)")), ([1, 2, 0], [0, 3, -1]))  # LatticeObstructed
@example(to_standard_form(parse_link("M(1; 3, 3/2)")), ([1, 0, 2], [-1, 2, 3]))     # DetZero
def test_verify_branch_invariant_under_slides_permutation_and_reflection(std, move):
    order, counts = move
    branch = verify(std).branch
    assert verify(moved(std, order, counts)).branch is branch
    if determinant(std):
        assert verify(reflect(std)).branch is branch
