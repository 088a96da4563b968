import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from qamont.errors import ParseError
from qamont.montesinos import (_TANGLE_ORDER, MontesinosLink, StandardForm,
                               _compare_tangles, _reduced_pair, canonical_form,
                               determinant, epsilon, format_link, parse_link,
                               reflect, slide, to_negative_form, to_standard_form)
from qamont.plumbing import build_graph
from references import (format_link_by_fractions, h1_order, sorted_by_fractions,
                        tangle_alpha_beta)


def M(e, *tangles):
    return MontesinosLink(e, tuple(Fraction(t) for t in tangles))


def random_link(rng, p_max=4):
    p = rng.randint(1, p_max)
    tangles = []
    while len(tangles) < p:
        alpha = rng.randint(2, 9)
        beta = rng.randint(-12, 12)
        if beta == 0 or Fraction(alpha, beta).numerator in (-1, 1):
            continue
        tangles.append(Fraction(alpha, beta))
    return MontesinosLink(rng.randint(-5, 5), tuple(tangles))


class TestConstruction:
    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            M(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            M(0, Fraction(-1, 3))

    @pytest.mark.parametrize("tangles", [(2.1, 3), (Fraction(5, 2), 3.0), ("5/2",)])
    def test_rejects_tangles_that_are_not_ints_or_fractions(self, tangles):
        # Fraction(2.1) has alpha = 4,728,779,608,739,021; verify on such a
        # link did not finish
        with pytest.raises(ValueError, match="int or a Fraction"):
            MontesinosLink(0, tangles)

    @pytest.mark.parametrize("e", [1.0, 1.5, "1", None])
    def test_rejects_a_half_twist_count_that_is_not_an_integer(self, e):
        with pytest.raises(ValueError, match="must be an integer"):
            MontesinosLink(e, (Fraction(5, 2), 3))

    def test_bool_half_twist_count_is_stored_as_int(self):
        link = MontesinosLink(True, (Fraction(5, 2), 3))
        assert type(link.e) is int
        assert format_link(link) == "M(1; 5/2, 3)"
        assert parse_link(format_link(link)) == link

    def test_int_tangles_become_fractions(self):
        assert MontesinosLink(0, (2, -3)).tangles == (Fraction(2), Fraction(-3))

    def test_rejects_empty_tangle_list(self):
        with pytest.raises(ValueError):
            MontesinosLink(0, ())

    def test_rejects_zero_tangle(self):
        with pytest.raises(ValueError):
            M(0, 0)

    def test_standard_form_rejects_small_tangles(self):
        with pytest.raises(ValueError):
            StandardForm(0, (Fraction(-7, 3),))

    def test_value_equality_across_classes(self):
        assert StandardForm(1, (Fraction(2),)) == MontesinosLink(1, (Fraction(2),))

    def test_error_messages(self):
        with pytest.raises(ValueError) as err:
            M(0, 5, Fraction(-1, 3))
        assert str(err.value) == "tangle -1/3 has alpha = 1; tangles must have alpha >= 2"
        with pytest.raises(ValueError) as err:
            M(0, 0)
        assert str(err.value) == "tangle 0 has alpha = 0; tangles must have alpha >= 2"
        with pytest.raises(ValueError) as err:
            StandardForm(0, (Fraction(5, 2), Fraction(-7, 3)))
        assert str(err.value) == "tangle -7/3 is not > 1; not in standard form"
        with pytest.raises(ValueError) as err:
            StandardForm(0, (Fraction(2, 3),))
        assert str(err.value) == "tangle 2/3 is not > 1; not in standard form"


class TestPairs:
    """``pairs``: each tangle's (alpha, beta), the representation a link
    stores; its ``tangles`` are built from them on every read."""

    def test_pairs_are_tangle_alpha_beta(self, rng):
        for _ in range(300):
            link = random_link(rng)
            assert link.pairs == tuple(map(tangle_alpha_beta, link.tangles))
            std = to_standard_form(link)
            assert std.pairs == tuple(map(tangle_alpha_beta, std.tangles))
            assert all(0 < beta < alpha for alpha, beta in std.pairs)

    def test_int_tangles_have_pairs(self):
        assert MontesinosLink(0, (2, -3)).pairs == ((2, 1), (3, -1))

    def test_pairs_is_the_stored_field_and_no_init_argument(self):
        for cls in (MontesinosLink, StandardForm):
            assert [f.name for f in dataclasses.fields(cls)] == ["e", "pairs"]
        with pytest.raises(TypeError):
            MontesinosLink(0, (Fraction(5, 2),), ((5, 2),))
        link = M(1, Fraction(5, 2), 3)
        assert vars(link) == {"e": 1, "pairs": ((5, 2), (3, 1))}
        tangles = link.tangles  # built on each read and kept nowhere
        assert tangles == (Fraction(5, 2), Fraction(3))
        assert vars(link) == {"e": 1, "pairs": ((5, 2), (3, 1))}
        assert link.tangles == tangles and link.tangles is not tangles
        for name in ("e", "pairs", "tangles"):
            with pytest.raises(AttributeError):
                setattr(link, name, None)

    def test_equality_and_hash_read_pairs_and_repr_reads_tangles(self, rng):
        link = M(1, Fraction(5, 2), 3)
        other = M(1, Fraction(5, 2), 3)
        assert link == other and hash(link) == hash(other) == hash((1, ((5, 2), (3, 1))))
        assert repr(link) == "MontesinosLink(e=1, tangles=(Fraction(5, 2), Fraction(3, 1)))"
        assert vars(link) == {"e": 1, "pairs": ((5, 2), (3, 1))}  # repr read tangles
        assert repr(StandardForm(1, (Fraction(5, 2),))) == \
            "StandardForm(e=1, tangles=(Fraction(5, 2),))"
        object.__setattr__(other, "pairs", ((7, 1), (7, 1)))
        assert link != other
        # tangles and repr follow the pairs: nothing read before is kept
        assert other.tangles == (Fraction(7), Fraction(7))
        assert repr(other) == "MontesinosLink(e=1, tangles=(Fraction(7, 1), Fraction(7, 1)))"
        assert vars(other) == {"e": 1, "pairs": ((7, 1), (7, 1))}
        # (e, pairs) equality is value equality of e and the tangles, since
        # tangle_alpha_beta is a bijection; links drawn from a small range
        # are often equal.
        links = [MontesinosLink(rng.randint(0, 1), tuple(
            Fraction(rng.choice([2, 3]), rng.choice([-1, 1])) for _ in range(2)))
            for _ in range(60)]
        equal = 0
        for a, b in itertools.product(links, repeat=2):
            same = (a.e, a.tangles) == (b.e, b.tangles)
            assert (a == b) == same and (a != b) != same
            assert not same or hash(a) == hash(b)
            equal += same and a is not b
        assert equal > 100

    def test_tangles_are_the_fractions_of_the_pairs(self, rng):
        for _ in range(300):
            link = random_link(rng)
            std = to_standard_form(link)
            for form in (link, std, reflect(std), to_negative_form(std),
                         parse_link(format_link(link)), slide(link, 0, 2)):
                assert form.tangles == tuple(Fraction(a, b) for a, b in form.pairs)
                assert all(type(t) is Fraction for t in form.tangles)

    def test_integer_pairs_match_the_fraction_pairs(self):
        # parse_link reduces its integers to pairs with no Fraction
        for num in range(-30, 31):
            for den in range(-12, 13):
                if den:
                    assert _reduced_pair(num, den) == tangle_alpha_beta(Fraction(num, den)), \
                        (num, den)

    def test_pickle_round_trip(self, rng):
        for _ in range(50):
            for link in (random_link(rng), to_standard_form(random_link(rng))):
                copy = pickle.loads(pickle.dumps(link))
                assert type(copy) is type(link)
                assert vars(copy) == vars(link) == {"e": link.e, "pairs": link.pairs}
                assert copy == link and hash(copy) == hash(link) and repr(copy) == repr(link)


def link_fields(link):
    """Every stored field of a link, each with the type of its values, and
    its tangles as read, so that two links compare field for field."""
    stored = sorted(vars(link))
    return (type(link), stored, link.e, type(link.e), link.pairs,
            [type(x) for pair in link.pairs for x in pair],
            link.tangles, [type(t) for t in link.tangles])


class TestStandardForm:
    def test_built_forms_equal_the_validating_constructor(self, rng):
        # to_standard_form, reflect and canonical_form build through
        # StandardForm._from_validated, which checks nothing, and
        # to_negative_form and slide through the check on pairs; each
        # stores e and its pairs alone, as both checked constructors do.
        for _ in range(500):
            link = random_link(rng, p_max=5)
            std = to_standard_form(link)
            built = [(std, StandardForm), (reflect(std), StandardForm),
                     (canonical_form(link), StandardForm),
                     (canonical_form(reflect(std)), StandardForm),
                     (to_negative_form(std), MontesinosLink),
                     (slide(link, 0, -1), MontesinosLink)]
            for form, cls in built:
                fields = link_fields(form)
                assert fields[1] == ["e", "pairs"], form
                assert fields == link_fields(cls(form.e, form.tangles)), form
                assert fields == link_fields(cls._from_pairs(form.e, form.pairs)), form

    def test_examples(self):
        assert to_standard_form(M(0, Fraction(-7, 3))) == M(1, Fraction(7, 4))
        assert to_standard_form(M(1, Fraction(3, 2), 3)) == M(1, Fraction(3, 2), 3)
        assert to_standard_form(M(2, Fraction(5, 7))) == M(1, Fraction(5, 2))

    def test_preserves_epsilon(self, rng):
        for _ in range(200):
            link = random_link(rng)
            assert epsilon(to_standard_form(link)) == epsilon(link)


class TestReflect:
    def test_examples(self):
        assert reflect(to_standard_form(M(1, 2, 2, 2))) == M(2, 2, 2, 2)
        assert reflect(to_standard_form(M(0, Fraction(3, 2)))) == M(1, 3)
        assert reflect(to_standard_form(M(2, 3, 3, 3))) == M(1, *([Fraction(3, 2)] * 3))

    def test_involution_and_symmetries(self, rng):
        for _ in range(200):
            std = to_standard_form(random_link(rng))
            assert reflect(reflect(std)) == std
            assert canonical_form(reflect(reflect(std))) == canonical_form(std)
            assert epsilon(reflect(std)) == -epsilon(std)
            assert determinant(reflect(std)) == determinant(std)

    def test_requires_standard_form(self):
        with pytest.raises(ValueError):
            reflect(M(0, Fraction(-7, 3)))


class TestEpsilonAndDeterminant:
    def test_epsilon_examples(self):
        assert epsilon(M(1, 2, 2, 2)) == Fraction(-1, 2)
        assert epsilon(M(0, 2)) == Fraction(-1, 2)
        assert epsilon(M(3, 2, 2, 2, 2, 2)) == Fraction(1, 2)

    def test_determinant_examples(self):
        assert determinant(M(1, Fraction(3, 2), 3)) == 0
        assert determinant(M(0, 2)) == 1
        assert determinant(M(1, 2, 2, 2)) == 4

    def test_determinant_against_plumbing_order(self):
        # |det Q| of the plumbing built from the negative form
        for link in (M(0, 2), M(1, 2, 2, 2)):
            std = to_standard_form(link)
            graph = build_graph(to_negative_form(std))
            assert h1_order(graph) == determinant(link)

    def test_integrality(self, rng):
        for _ in range(300):
            link = random_link(rng)
            value = epsilon(link) * prod(alpha for alpha, _ in link.pairs)
            assert value.denominator == 1

    def test_det_zero_iff_epsilon_zero(self, rng):
        assert epsilon(M(1, 2, 2)) == 0 and determinant(M(1, 2, 2)) == 0
        for _ in range(300):
            link = random_link(rng)
            assert (determinant(link) == 0) == (epsilon(link) == 0)


class TestNegativeForm:
    def test_examples(self):
        assert to_negative_form(to_standard_form(M(1, 2, 2, 2))) == M(-2, -2, -2, -2)
        assert to_negative_form(to_standard_form(M(1, Fraction(3, 2)))) == M(0, -3)
        assert to_negative_form(to_standard_form(M(0, 2))) == M(-1, -2)

    def test_all_tangles_below_minus_one(self, rng):
        for _ in range(200):
            std = to_standard_form(random_link(rng))
            neg = to_negative_form(std)
            assert all(t < -1 for t in neg.tangles)
            assert epsilon(neg) == epsilon(std)


class TestCanonicalFormAndSlides:
    def test_examples(self):
        assert canonical_form(M(0, Fraction(-7, 3))) == canonical_form(M(1, Fraction(7, 4)))
        assert canonical_form(M(1, 2)) == M(1, 2)
        assert canonical_form(M(1, Fraction(3, 2), 2)) == M(1, 2, Fraction(3, 2))

    def test_unsorted_standard_form_is_sorted(self):
        std = StandardForm(1, (Fraction(5, 2), Fraction(2), Fraction(3, 2)))
        unsorted = StandardForm(1, (Fraction(3, 2), Fraction(5, 2), Fraction(2)))
        canonical = canonical_form(unsorted)
        assert canonical is not unsorted
        assert isinstance(canonical, StandardForm)
        assert canonical.e == 1
        assert canonical.tangles == std.tangles

    def test_matches_a_sort_of_the_standard_form(self, rng):
        # Typed links in random order, slid and signed, so that some standard
        # forms come out sorted and some do not; an enumerated link is sorted.
        sorted_before = 0
        for _ in range(300):
            link = random_link(rng)
            tangles = list(link.tangles)
            rng.shuffle(tangles)
            typed = MontesinosLink(link.e, tuple(tangles))
            for _ in range(rng.randint(0, 6)):
                typed = slide(typed, rng.randrange(typed.p), rng.randint(-3, 3))
            std = to_standard_form(typed)
            expected = tuple(sorted(std.tangles, reverse=True))
            assert canonical_form(typed).tangles == expected
            sorted_before += std.tangles == expected
        assert 0 < sorted_before < 300

    def test_slide_invariance(self, rng):
        for _ in range(200):
            link = random_link(rng)
            slid = link
            for _ in range(rng.randint(0, 10)):
                slid = slide(slid, rng.randrange(slid.p), rng.choice([-1, 1]))
            assert epsilon(slid) == epsilon(link)
            assert determinant(slid) == determinant(link)
            assert canonical_form(slid) == canonical_form(link)


# Every standard pair (alpha, beta), 0 < beta < alpha <= 40, gcd 1.
STANDARD_PAIRS = [(a, b) for a in range(2, 41) for b in range(1, a) if gcd(a, b) == 1]


class TestTangleOrder:
    """``_TANGLE_ORDER``, the one tangle order of canonical forms and the
    family walk, against the order of the tangles as ``Fraction`` values."""

    def test_sorting_matches_the_fraction_sort(self):
        assert len(STANDARD_PAIRS) == 489
        expected = sorted_by_fractions(STANDARD_PAIRS)
        for seed in range(5):
            pairs = list(STANDARD_PAIRS)
            random.Random(seed).shuffle(pairs)
            assert sorted(pairs, key=_TANGLE_ORDER, reverse=True) == expected
            assert sorted(pairs, key=_TANGLE_ORDER) == expected[::-1]

    def test_comparator_is_the_sign_of_the_difference(self):
        small = [pair for pair in STANDARD_PAIRS if pair[0] <= 16]
        for x, y in itertools.product(small, repeat=2):
            difference = Fraction(*x) - Fraction(*y)
            assert _compare_tangles(x, y) == (difference > 0) - (difference < 0), (x, y)


class TestGrammar:
    @pytest.mark.parametrize("text", [
        "M(0; 5/2, 7/3)",
        "M(-2;-2,-2,-2)",
        "  M( 3 ; 2 , 3 / 2 )  ",
        "M(1; 2, 2, 2)",
    ])
    def test_round_trip(self, text):
        link = parse_link(text)
        assert parse_link(format_link(link)) == link

    def test_printing_reduces(self):
        assert format_link(MontesinosLink(0, (Fraction(4, 6),))) == "M(0; 2/3)"
        assert format_link(M(1, 3)) == "M(1; 3)"

    def test_text_from_pairs_matches_the_fraction_reference(self, rng):
        # format_link reads each tangle's (alpha, beta); the reference prints
        # its Fraction.  Every sign of beta, integer tangles (beta = +-1) and
        # unreduced input occur, on raw links and on the standard forms that
        # the program prints.
        examples = [M(0, 2, -2), M(-3, Fraction(-7, 2), -5, 3), M(4, Fraction(9, -4)),
                    M(0, Fraction(-4, 6), Fraction(10, 4), Fraction(-8, -2))]
        for _ in range(300):
            tangles = []
            for _ in range(rng.randint(1, 5)):
                alpha = rng.randint(2, 40)
                beta = rng.choice([1, -1, rng.randint(-3 * alpha, 3 * alpha)])
                if beta and gcd(alpha, beta) == 1:
                    tangles.append(Fraction(alpha, beta))
            if tangles:
                examples.append(MontesinosLink(rng.randint(-9, 9), tuple(tangles)))
        signs = set()
        for link in examples:
            std = to_standard_form(link)
            for form in (link, std, reflect(std), canonical_form(link),
                         to_negative_form(std)):
                assert format_link(form) == format_link_by_fractions(form), form
                signs.update((beta > 0, abs(beta) == 1) for _, beta in form.pairs)
        assert signs == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("text,fragment", [
        ("M(0)", "grammar"),
        ("M(x; 2)", "grammar"),
        ("M(0; )", "no tangles"),
        ("M(0; 2, boo)", "'boo'"),
        ("M(0; 2/0)", "zero denominator"),
        ("M(0; 1/2)", "alpha"),
    ])
    def test_errors_name_the_token(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_link(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text,fragment", [
        ("M(\u0663; 5/2)", "grammar"),  # Arabic-Indic three as e
        ("M(0; \uff15/2, 7/3)", "'\uff15/2'"),  # fullwidth five
        ("M(0; 5/\u0662)", "'5/\u0662'"),  # Arabic-Indic two as a denominator
        ("M(0; 5_0/3)", "'5_0/3'"),
    ])
    def test_digits_are_ascii(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_link(text)
        assert fragment in str(err.value)
