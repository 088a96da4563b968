import random
from fractions import Fraction
from math import gcd

import pytest

from qamont.montesinos import MontesinosLink, _scaled_epsilon, to_standard_form
from qamont.plumbing import PlumbingGraph


@pytest.fixture
def rng():
    return random.Random(20260810)


def random_star_graph(rng, max_legs=4, max_leg_len=4,
                      central_range=(-7, -1), leg_range=(-7, -2)):
    """Random star graph with leg weights <= -2 (central weight unrestricted)."""
    legs = tuple(
        tuple(rng.randint(*leg_range) for _ in range(rng.randint(1, max_leg_len)))
        for _ in range(rng.randint(0, max_legs)))
    return PlumbingGraph(rng.randint(*central_range), legs)


def random_cf(rng, max_len=5, low=-5):
    return tuple(rng.randint(low, -2) for _ in range(rng.randint(1, max_len)))


def random_raw_links(rng, count, p_max=4):
    """Raw links as a user types them: each tangle a reduced alpha/beta,
    beta of either sign and standard or not, with alpha <= 6, so that a few
    hundred links hit eps = 0, p = 1 and alphas that share a factor."""
    links = []
    for _ in range(count):
        tangles = []
        for _ in range(rng.randint(1, p_max)):
            alpha = rng.randint(2, 6)
            beta = rng.choice([b for b in range(-8, 9) if b and Fraction(alpha, b).numerator
                               not in (-1, 1)])
            tangles.append(Fraction(alpha, beta))
        links.append(MontesinosLink(rng.randint(-4, 4), tuple(tangles)))
    return links


# The cases a test of eps printed as num/den must cover.
EPSILON_CASES = {"N < 0", "N = 0", "N > 0", "p = 1", "N and A share a factor"}


def epsilon_cases(link):
    """The cases of ``EPSILON_CASES`` that a link falls in, eps = N/A."""
    n, a = _scaled_epsilon(to_standard_form(link))
    cases = {("N < 0", "N = 0", "N > 0")[(n > 0) - (n < 0) + 1]}
    if link.p == 1:
        cases.add("p = 1")
    if n and gcd(n, a) > 1:
        cases.add("N and A share a factor")
    return cases
