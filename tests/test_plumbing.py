from fractions import Fraction
from math import gcd

import pytest

from conftest import random_star_graph
from qamont.classifier import enumerate_family
from qamont.errors import NotNegativeDefiniteError, ParseError
from qamont import intmat, plumbing
from qamont.intmat import freeze
from qamont.montesinos import (MontesinosLink, StandardForm, determinant, epsilon,
                               reflect, to_negative_form)
from qamont.plumbing import (PlumbingGraph, adjacency_matrix, build_graph,
                             format_graph, negative_definite_by_sign,
                             oriented_graph, parse_graph)
from references import (cf_eval, det, h1_order, is_negative_definite_matrix,
                        seifert_euler_number)


def M(e, *tangles):
    return MontesinosLink(e, tuple(Fraction(t) for t in tangles))


def negative_definite_by_matrix(graph):
    return is_negative_definite_matrix(adjacency_matrix(graph))


class TestBuildGraph:
    def test_examples(self):
        assert build_graph(M(-2, -2, -2, -2)) == PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
        assert build_graph(M(-1, -2, -3, -7)) == PlumbingGraph(-1, ((-2,), (-3,), (-7,)))
        assert build_graph(M(-2, *[Fraction(-3, 2)] * 3)) == \
            PlumbingGraph(-2, ((-2, -2),) * 3)

    def test_rejects_tangles_at_or_above_minus_one(self):
        for tangle in (2, Fraction(3, 2), Fraction(2, 5), Fraction(-2, 3)):
            with pytest.raises(ValueError, match="value must be < -1"):
                build_graph(M(0, -2, tangle))

    def test_legs_evaluate_to_the_tangles_and_build_no_fraction(self, monkeypatch):
        # Over the negative forms of the 280 acceptance-family links: each
        # leg, evaluated back through Fractions, is its tangle, and the
        # expansion itself builds none.
        negatives = [to_negative_form(link)
                     for link in enumerate_family(3, 4, -3, 4, p_min=3)]
        made = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        graphs = [build_graph(link) for link in negatives]
        monkeypatch.undo()
        assert len(graphs) == 280 and made == []
        for link, graph in zip(negatives, graphs):
            assert graph.central_weight == link.e
            assert tuple(map(cf_eval, graph.legs)) == link.tangles, link

    def test_legs_must_be_nonempty(self):
        with pytest.raises(ValueError):
            PlumbingGraph(-2, ((),))

    def test_leg_weights_must_be_integers(self):
        with pytest.raises(ValueError, match="integers"):
            PlumbingGraph(-2, ((-2.7,),))

    def test_central_weight_must_be_an_integer(self):
        with pytest.raises(ValueError, match="integer"):
            PlumbingGraph(-2.0, ((-2,),))


class TestOrientedGraph:
    def test_integer_legs_match_the_negative_form(self):
        # oriented_graph builds its legs from the standard pairs; build_graph
        # of the negative form, from the negative pairs, must agree, and each
        # leg evaluates back to its negative-form tangle
        checked = zero = 0
        for std in enumerate_family(3, 5, -3, 5):
            if determinant(std) == 0:
                with pytest.raises(ValueError, match="determinant zero"):
                    oriented_graph(std)
                zero += 1
                continue
            side, graph = oriented_graph(std)
            assert side == (reflect(std) if epsilon(std) > 0 else std)
            negative = to_negative_form(side)
            assert graph == build_graph(negative)
            assert tuple(map(cf_eval, graph.legs)) == negative.tangles
            checked += 1
        assert (checked, zero) == (1958, 13)


def graph_fields(graph):
    """Every stored field of a graph, each with the type of its values."""
    return (type(graph), sorted(vars(graph)), graph.central_weight,
            type(graph.central_weight), graph.legs, [type(leg) for leg in graph.legs],
            [type(w) for leg in graph.legs for w in leg])


def random_standard_form(rng):
    tangles = []
    for _ in range(rng.randint(1, 5)):
        alpha = rng.randint(2, 40)
        beta = rng.choice([b for b in range(1, alpha) if gcd(alpha, b) == 1])
        tangles.append(Fraction(alpha, beta))
    return StandardForm(rng.randint(-6, 6), tuple(tangles))


class TestBuiltFromValidatedParts:
    """``oriented_graph`` builds its graph on integers from the side's pairs,
    through the one ``PlumbingGraph`` constructor, and ``adjacency_matrix``
    does not ``freeze``; each equals what the validating constructors build
    from the same weights."""

    def test_graphs_equal_the_validating_constructor(self, rng):
        checked = 0
        for _ in range(500):
            std = random_standard_form(rng)
            if determinant(std) == 0:
                continue
            _, graph = oriented_graph(std)
            assert graph_fields(graph) == \
                graph_fields(PlumbingGraph(graph.central_weight, graph.legs)), std
            q = adjacency_matrix(graph)
            assert type(q) is tuple and all(type(row) is tuple for row in q)
            assert q == freeze(q)
            checked += 1
        assert checked > 450


class TestAdjacency:
    def test_single_vertex(self):
        assert adjacency_matrix(PlumbingGraph(-4, ())) == ((-4,),)

    def test_one_leg(self):
        assert adjacency_matrix(PlumbingGraph(-2, ((-2,),))) == ((-2, 1), (1, -2))

    def test_three_legs(self):
        m = adjacency_matrix(PlumbingGraph(-2, ((-2,), (-2,), (-2,))))
        assert m == ((-2, 1, 1, 1), (1, -2, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2))

    def test_distinct_legs_do_not_touch(self, rng):
        for _ in range(50):
            graph = random_star_graph(rng)
            m = adjacency_matrix(graph)
            start = 1
            spans = []
            for leg in graph.legs:
                spans.append(range(start, start + len(leg)))
                start += len(leg)
            for a, span_a in enumerate(spans):
                for b, span_b in enumerate(spans):
                    if a != b:
                        assert all(m[i][j] == 0 for i in span_a for j in span_b)


class TestDefiniteness:
    def test_examples(self):
        assert PlumbingGraph(-1, ((-2,), (-3,), (-7,))).definite_form.det == 1
        assert PlumbingGraph(-2, ((-2,), (-2,), (-2,))).definite_form.det == 4
        with pytest.raises(NotNegativeDefiniteError):
            PlumbingGraph(0, ((-2,),) * 4).definite_form

    @pytest.mark.parametrize("graph,definite", [
        (PlumbingGraph(-2, ((-2,), (-2, -2), (-2, -2, -2, -2))), True),  # E8
        (PlumbingGraph(-9, ((-1,),)), True),  # a leg above -2: no sign test
        (PlumbingGraph(0, ((-2,),) * 4), False),
    ], ids=["e8", "leg-above-minus-2", "indefinite"])
    def test_the_guard_does_each_step_once(self, monkeypatch, graph, definite):
        # One scan of the legs (inside the sign test), one freeze of q's list
        # rows (the only tuple copy before the elimination), one elimination.
        graph = PlumbingGraph(graph.central_weight, graph.legs)  # no memo yet
        counts = {"legs": 0, "eliminations": 0}
        frozen = []
        scan, freeze_rows = plumbing._legs_are_continued_fractions, intmat.freeze
        eliminate = intmat.negative_definite_det

        def counting_scan(g):
            counts["legs"] += 1
            return scan(g)

        def counting_freeze(rows):
            frozen.append(type(rows[0]) if rows else None)
            return freeze_rows(rows)

        def counting_elimination(m):
            counts["eliminations"] += 1
            return eliminate(m)

        monkeypatch.setattr(plumbing, "_legs_are_continued_fractions", counting_scan)
        monkeypatch.setattr(intmat, "freeze", counting_freeze)
        monkeypatch.setattr(intmat, "negative_definite_det", counting_elimination)
        for _ in range(2):
            if definite:
                assert graph.definite_form == adjacency_matrix(graph)
            else:
                with pytest.raises(NotNegativeDefiniteError):
                    graph.definite_form
        reads = 1 if definite else 2  # a read that raises stores nothing
        assert counts == {"legs": reads, "eliminations": reads}
        assert frozen == [list] * reads

    def test_the_memo_is_an_instance_entry(self):
        # No cached_property, whose first read takes a class-wide lock on
        # Python 3.11: a plain property reads and fills the instance dict.
        assert type(vars(PlumbingGraph)["definite_form"]) is property
        graph = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
        fields = dict(vars(graph))
        form = graph.definite_form
        assert graph.definite_form is form
        assert vars(graph) == {**fields, "_definite_form": form}
        assert graph == PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
        assert hash(graph) == hash(PlumbingGraph(-2, ((-2,), (-2,), (-2,))))

    def test_euler_number_values(self):
        graph = PlumbingGraph(-1, ((-2,), (-3,), (-7,)))
        assert seifert_euler_number(graph) == Fraction(-1, 42)
        assert seifert_euler_number(PlumbingGraph(-2, ((-2,), (-2,), (-2,)))) == \
            Fraction(-1, 2)

    def test_sign_test_needs_cf_legs(self):
        with pytest.raises(ValueError):
            negative_definite_by_sign(PlumbingGraph(-9, ((-1,),)))
        # ... but the matrix test still decides it
        assert negative_definite_by_matrix(PlumbingGraph(-9, ((-1,),)))

    def test_methods_agree_on_random_graphs(self, rng):
        for _ in range(500):
            graph = random_star_graph(rng, max_legs=4, max_leg_len=4,
                                      central_range=(-7, -1))
            definite = negative_definite_by_matrix(graph)
            assert negative_definite_by_sign(graph) == definite
            if definite:
                assert graph.definite_form.det == det(adjacency_matrix(graph))
            else:
                with pytest.raises(NotNegativeDefiniteError):
                    graph.definite_form

    def test_sign_test_matches_the_euler_number_on_random_stars(self, rng):
        # the integer sign test against the Fraction reference, on central
        # weights that make the Euler number negative, zero and positive
        signs = set()
        for _ in range(2000):
            graph = random_star_graph(rng, max_legs=5, max_leg_len=4,
                                      central_range=(-4, 2), leg_range=(-4, -2))
            euler = seifert_euler_number(graph)
            signs.add((euler > 0) - (euler < 0))
            assert negative_definite_by_sign(graph) == (euler < 0), graph
        assert signs == {-1, 0, 1}

    @pytest.mark.parametrize("graph", [
        PlumbingGraph(-1, ((-3,),) * 3),
        PlumbingGraph(-1, ((-2,),) * 2),
        PlumbingGraph(-1, ((-3,), (-2, -2))),
    ], ids=["three-legs-of-3", "two-legs-of-2", "3-and-2-2"])
    def test_zero_euler_number_is_not_definite(self, graph):
        # num = 0 with a denominator of either sign: not negative, and the
        # two definiteness checks in definite_form agree (det Q = 0)
        assert seifert_euler_number(graph) == 0
        assert not negative_definite_by_sign(graph)
        with pytest.raises(NotNegativeDefiniteError):
            graph.definite_form
        assert det(adjacency_matrix(graph)) == 0

    def test_methods_agree_on_family_graphs(self):
        for link in enumerate_family(3, 4, -2, 3):
            if determinant(link) != 0 and epsilon(link) < 0:
                graph = build_graph(to_negative_form(link))
                assert negative_definite_by_sign(graph)
                assert negative_definite_by_matrix(graph)


class TestH1Order:
    def test_examples(self):
        assert h1_order(PlumbingGraph(-4, ())) == 4
        assert h1_order(PlumbingGraph(-2, ((-2,), (-2,), (-2,)))) == 4
        assert h1_order(PlumbingGraph(-1, ((-2,), (-3,), (-7,)))) == 1

    def test_matches_link_determinant(self):
        for link in enumerate_family(2, 4, -2, 2):
            if determinant(link) != 0 and epsilon(link) < 0:
                graph = build_graph(to_negative_form(link))
                assert h1_order(graph) == determinant(link) == abs(graph.definite_form.det)


class TestGraphFiles:
    def test_round_trip(self, rng):
        for _ in range(20):
            graph = random_star_graph(rng)
            assert parse_graph(format_graph(graph)) == graph

    def test_bool_central_weight_round_trips(self):
        graph = PlumbingGraph(True, ((-2,),))
        assert type(graph.central_weight) is int
        assert format_graph(graph) == "central: 1\nleg: -2\n"
        assert parse_graph(format_graph(graph)) == graph

    def test_parses_comments_and_blanks(self):
        text = "# a comment\n\ncentral: -2\nleg: -2 -2\n"
        assert parse_graph(text) == PlumbingGraph(-2, ((-2, -2),))

    @pytest.mark.parametrize("text,fragment", [
        ("leg: -2\n", "no central"),
        ("central: -2\ncentral: -3\n", "duplicate"),
        ("central: -2 -3\n", "exactly one"),
        ("central: x\n", "non-integer"),
        ("central: -2\nleg:\n", "at least one"),
        ("central: -2\nspoke: -2\n", "'spoke'"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text,token", [
        ("central: -2_0\n", "'-2_0'"),
        ("central: -2\nleg: -\u0662\n", "'-\u0662'"),  # Arabic-Indic two
        ("central: -2\nleg: -2 \uff0d3\n", "'\uff0d3'"),  # fullwidth minus
        ("central: \uff0d\uff12\n", "'\uff0d\uff12'"),  # fullwidth -2
        ("central: -2\nleg: -\U0001d7d0\n", "'-\U0001d7d0'"),  # bold two
    ])
    def test_weights_are_ascii_integers(self, text, token):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert token in str(err.value)
