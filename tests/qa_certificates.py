"""Quasi-alternating certificates for Montesinos links: a constructive
check of the "if" direction of the classification.  No program path needs
them; ``tests/test_qa_certificates.py`` holds ``classify`` and ``verify``
to them.

Definition (Ozsvath-Szabo, "On the Heegaard Floer homology of branched
double-covers", Adv. Math. 2005): a link L is quasi-alternating (QA) if it
is the unknot, or if it has a crossing whose two resolutions L0 and L1 are
QA, with det L0, det L1 >= 1 and det L = det L0 + det L1.  A two-bridge
link with nonzero determinant is alternating and non-split, hence QA; so
is a connected sum of such links.  These are the only base cases.

Resolution model.  A link is taken in standard form M(e; alpha_i/beta_i)
and N = e*A - sum(beta_i * A/alpha_i), A = alpha_1 ... alpha_p, so
det = |N|.  N is linear in each tangle's pair (alpha_i, beta_i) and in
the pair (e, 1) of the integer region.

* A crossing in the outer twist region of tangle i resolves into two
  rational tangles whose pairs are the Farey parents of (alpha_i, beta_i):
  they sum to it and |alpha' beta'' - alpha'' beta'| = 1.  So N = N' + N'',
  and the crossing is a QA crossing exactly when N' and N'' are nonzero
  and of one sign.  A parent with alpha = 1 is an integer tangle and
  merges into e (e -= beta), which lowers p.
* A crossing of the integer region, when e != 0 and s is the sign of e,
  splits (e, 1) into (e - s, 1) and (s, 0).  The first resolution is
  M(e - s; ...); the second is the connected sum of the two-bridge
  closures of the tangles, with N'' = s*A.

Twisting along such crossings is the argument of Champanerkar-Kofman,
"Twisting quasi-alternating links", Proc. AMS 2009; the QA proofs of
Qazaqzeh-Chbili-Qublan and Champanerkar-Ording use crossings of this
kind.  The search reads none of the four inequalities of ``classify``.
It covers only these crossings of standard Montesinos diagrams, so a link
without a certificate is not thereby shown to be non-QA.

``check_certificate`` checks every step on its own: the split pairs, the
resolved links, and det L, det L0, det L1, each recomputed as
``h1_order`` of a plumbing (a determinant of the intersection form, not
the formula for N).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple, Union

from qamont.cfrac import cf_expand
from qamont.montesinos import StandardForm
from qamont.plumbing import PlumbingGraph, oriented_graph
from references import h1_order

Pair = tuple[int, int]


class TwoBridge(NamedTuple):
    """Base case: a link with p <= 2 and nonzero determinant."""

    link: StandardForm


class ConnectedSum(NamedTuple):
    """Base case: the connected sum of the two-bridge closures of tangles
    with these pairs, each of determinant alpha >= 2."""

    pairs: tuple[Pair, ...]


class Crossing(NamedTuple):
    """A QA crossing of ``link`` in tangle ``region`` (None: the integer
    region), whose pair splits into ``parents``; ``resolutions`` certify
    the resolved links in the same order."""

    link: StandardForm
    region: int | None
    parents: tuple[Pair, Pair]
    resolutions: tuple[Certificate, Certificate]


Certificate = Union[TwoBridge, ConnectedSum, Crossing]


def farey_parents(alpha: int, beta: int) -> tuple[Pair, Pair]:
    """The pairs (alpha', beta'), (alpha'', beta'') of the Farey parents of
    beta/alpha, 0 < beta < alpha coprime: the left parent has
    beta*alpha' - alpha*beta' = 1, so alpha' is the inverse of beta mod alpha."""
    a1 = pow(beta, -1, alpha)
    b1 = (beta * a1 - 1) // alpha
    return (a1, b1), (alpha - a1, beta - b1)


def scaled_det(e: int, pairs: tuple[Pair, ...]) -> int:
    """The signed N = e*A - sum(beta_i * A/alpha_i)."""
    a = prod(alpha for alpha, _ in pairs)
    return e * a - sum(beta * (a // alpha) for alpha, beta in pairs)


def resolve(e: int, pairs: tuple[Pair, ...], i: int, parent: Pair) -> tuple[int, tuple[Pair, ...]]:
    """(e, pairs) with pair i replaced by ``parent``, merged into e when its
    alpha is 1."""
    alpha, beta = parent
    if alpha == 1:
        return e - beta, pairs[:i] + pairs[i + 1:]
    return e, pairs[:i] + (parent,) + pairs[i + 1:]


def _link(e: int, pairs: tuple[Pair, ...]) -> StandardForm:
    return StandardForm(e, tuple(Fraction(alpha, beta) for alpha, beta in pairs))


def find_certificate(link: StandardForm, memo: dict | None = None) -> Certificate | None:
    """A certificate that ``link`` is QA, or None when the search finds none.

    The search tries the crossing of the integer region first, then the
    outer crossing of each tangle in order, and takes the first that is a
    QA crossing with both resolutions certified.  ``memo`` maps (e, pairs)
    to its result and may be shared across calls.  Every step lowers |e| + sum(alpha_i): a parent's alpha is smaller, a
    merged one takes alpha_i >= 2 away and moves e by at most 1, and the
    integer region lowers |e|.  So the search ends.
    """
    return _search(link.e, link.pairs, {} if memo is None else memo)


def _search(e: int, pairs: tuple[Pair, ...], memo: dict) -> Certificate | None:
    key = (e, pairs)
    if key in memo:
        return memo[key]
    n = scaled_det(e, pairs)
    cert = None
    if n and len(pairs) <= 2:
        cert = TwoBridge(_link(e, pairs))
    elif n:
        cert = _integer_crossing(e, pairs, memo) or _tangle_crossing(e, pairs, memo)
    memo[key] = cert
    return cert


def _tangle_crossing(e, pairs, memo) -> Crossing | None:
    for i, (alpha, beta) in enumerate(pairs):
        parents = farey_parents(alpha, beta)
        sides = [resolve(e, pairs, i, parent) for parent in parents]
        n0, n1 = (scaled_det(*side) for side in sides)
        if n0 * n1 <= 0:
            continue
        first = _search(*sides[0], memo)
        second = first and _search(*sides[1], memo)
        if second:
            return Crossing(_link(e, pairs), i, parents, (first, second))
    return None


def _integer_crossing(e, pairs, memo) -> Crossing | None:
    if e == 0:
        return None
    s = 1 if e > 0 else -1
    if scaled_det(e - s, pairs) * s <= 0:
        return None
    first = _search(e - s, pairs, memo)
    if first is None:
        return None
    return Crossing(_link(e, pairs), None, ((e - s, 1), (s, 0)),
                    (first, ConnectedSum(pairs)))


def _lens_space_order(alpha: int, beta: int) -> int:
    """|H1| of the linear plumbing of -alpha/beta: the double branched
    cover of a tangle's two-bridge closure, of order alpha."""
    central, *rest = cf_expand(Fraction(-alpha, beta))
    return h1_order(PlumbingGraph(central, (tuple(rest),) if rest else ()))


def _plumbed_det(link: StandardForm) -> int:
    return h1_order(oriented_graph(link)[1])


def check_certificate(cert: Certificate, checked: dict | None = None) -> int:
    """Check every step of ``cert`` on its own and return the determinant
    of its link; raise AssertionError at the first step that fails.

    ``checked`` maps id(node) to its determinant, so a node shared by many
    certificates is checked once; the nodes must stay alive meanwhile.
    """
    checked = {} if checked is None else checked
    if id(cert) in checked:
        return checked[id(cert)]
    if isinstance(cert, TwoBridge):
        assert cert.link.p <= 2, cert
        d = _plumbed_det(cert.link)
    elif isinstance(cert, ConnectedSum):
        d = prod(_lens_space_order(alpha, beta) for alpha, beta in cert.pairs)
        assert d == prod(alpha for alpha, _ in cert.pairs), cert
    else:
        d = _check_crossing(cert, checked)
    assert d >= 1, cert
    checked[id(cert)] = d
    return d


def _check_crossing(cert: Crossing, checked: dict) -> int:
    link, i, (first, second) = cert.link, cert.region, cert.parents
    whole = (link.e, 1) if i is None else link.pairs[i]
    assert (first[0] + second[0], first[1] + second[1]) == whole, cert.parents
    assert abs(first[0] * second[1] - second[0] * first[1]) == 1, cert.parents
    res0, res1 = cert.resolutions
    if i is None:
        assert isinstance(res1, ConnectedSum) and res1.pairs == link.pairs
        expected = (first[0], link.pairs)
    else:
        expected = resolve(link.e, link.pairs, i, first)
        assert _resolved_link(res1) == resolve(link.e, link.pairs, i, second)
    assert _resolved_link(res0) == expected
    d = _plumbed_det(link)
    assert d == check_certificate(res0, checked) + check_certificate(res1, checked), cert
    return d


def _resolved_link(cert: Certificate) -> tuple[int, tuple[Pair, ...]]:
    assert not isinstance(cert, ConnectedSum), cert
    return cert.link.e, cert.link.pairs
