"""QA certificates (``tests/qa_certificates.py``) against ``classify`` and
``verify``.

A certificate shows that a link is quasi-alternating, step by step from
the definition.  A link without one is not thereby shown to be non-QA:
the search tries only crossings of standard Montesinos diagrams.  So the
family tests below show the "if" direction of the classification on
those families, and that no NotQA link is certified; they prove nothing
about the links the search leaves without a certificate.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from qa_certificates import (ConnectedSum, Crossing, TwoBridge, check_certificate,
                             farey_parents, find_certificate, resolve, scaled_det)
from qamont.classifier import Branch, Status, classify, enumerate_family, verify
from qamont.montesinos import StandardForm, determinant, format_link


def S(e, *tangles):
    return StandardForm(e, tuple(Fraction(t) for t in tangles))


def _kinds(cert):
    """The kinds of step in ``cert``: a crossing of a tangle or of the
    integer region, or a base case."""
    if not isinstance(cert, Crossing):
        return {type(cert).__name__}
    kind = "integer" if cert.region is None else "tangle"
    return {kind}.union(*map(_kinds, cert.resolutions))


def test_farey_parents_split_each_pair():
    for alpha in range(2, 40):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            (a1, b1), (a2, b2) = farey_parents(alpha, beta)
            assert (a1 + a2, b1 + b2) == (alpha, beta)
            assert a1 * b2 - a2 * b1 == 1
            for a, b in ((a1, b1), (a2, b2)):
                # each parent is standard, or an integer tangle 0 or 1
                assert 0 < b < a or (a, b) in ((1, 0), (1, 1))


def test_certificate_of_a_small_link():
    # M(0; 2, 2, 2): the crossing of the first tangle 2/1 splits it into the
    # integer tangles 1/0 and 1/1, which merge into e: M(0; 2, 2) with
    # det 4 and M(-1; 2, 2) with det 8, and 4 + 8 = 12.
    cert = find_certificate(S(0, 2, 2, 2))
    assert cert == Crossing(S(0, 2, 2, 2), 0, ((1, 0), (1, 1)),
                            (TwoBridge(S(0, 2, 2)), TwoBridge(S(-1, 2, 2))))
    assert check_certificate(cert) == 12


def test_a_link_with_zero_determinant_has_no_certificate():
    assert determinant(S(1, 3, Fraction(3, 2))) == 0
    assert find_certificate(S(1, 3, Fraction(3, 2))) is None
    assert find_certificate(S(1, 3, 3, Fraction(3, 2))) is None


FAMILY = list(enumerate_family(3, 4, -3, 4, p_min=3))


def test_acceptance_family_certificates_are_exactly_positive_check():
    memo, checked = {}, {}
    certified = Counter()
    kinds = set()
    for link in FAMILY:
        cert = find_certificate(link, memo)
        positive = verify(link).branch is Branch.POSITIVE_CHECK
        assert (cert is not None) == positive, format_link(link)
        certified[positive] += 1
        if cert is not None:
            assert check_certificate(cert, checked) == determinant(link)
            kinds |= _kinds(cert)
    assert certified == {True: 252, False: 28}
    # both kinds of crossing and both base cases take part
    assert kinds == {"tangle", "integer", "TwoBridge", "ConnectedSum"}


@pytest.mark.parametrize("tamper", ["swap parents", "not Farey", "other e"])
def test_checker_rejects_a_tampered_step(tamper):
    cert = find_certificate(S(1, Fraction(3, 2), Fraction(3, 2), Fraction(3, 2)))
    assert cert.region == 0 and cert.parents == ((2, 1), (1, 1))
    check_certificate(cert)
    if tamper == "swap parents":
        bad = cert._replace(parents=cert.parents[::-1])
    elif tamper == "not Farey":
        bad = cert._replace(parents=((1, 0), (2, 2)))
    else:
        bad = cert._replace(link=S(2, Fraction(3, 2), Fraction(3, 2), Fraction(3, 2)))
    with pytest.raises(AssertionError):
        check_certificate(bad)


def test_checker_rejects_a_crossing_whose_determinants_do_not_add():
    # A crossing of a NotQA link whose two resolutions are certified but
    # whose determinants have opposite signs N' and N'': every other part of
    # the step is right, so only the det L = det L0 + det L1 test rejects it.
    memo = {}
    rejected = 0
    for link in FAMILY:
        if classify(link).status is Status.QA or determinant(link) == 0:
            continue
        for i, pair in enumerate(link.pairs):
            parents = farey_parents(*pair)
            sides = [resolve(link.e, link.pairs, i, parent) for parent in parents]
            certs = [find_certificate(S(e, *(Fraction(a, b) for a, b in pairs)), memo)
                     for e, pairs in sides]
            if None in certs:
                continue
            assert scaled_det(*sides[0]) * scaled_det(*sides[1]) < 0
            with pytest.raises(AssertionError):
                check_certificate(Crossing(link, i, parents, tuple(certs)))
            rejected += 1
    assert rejected > 0


def test_connected_sum_base_has_the_product_determinant():
    assert check_certificate(ConnectedSum(((5, 2), (3, 1), (7, 3)))) == 105


@pytest.mark.slow
def test_largest_family_certificates_are_exactly_qa():
    # p = 4, alpha <= 7, e in [-2, 5]: 38,760 links, about 10 s.  classify
    # agrees with verify on this family (test_equivalence_on_the_largest_family).
    memo, checked = {}, {}
    counts = Counter()
    for link in enumerate_family(4, 7, -2, 5, p_min=4):
        cert = find_certificate(link, memo)
        qa = classify(link).status is Status.QA
        counts[qa, cert is not None] += 1
        if cert is not None:
            assert check_certificate(cert, checked) == determinant(link)
    assert counts == {(True, True): 32265, (False, False): 6495}
