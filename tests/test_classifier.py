import itertools
import pickle
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from conftest import EPSILON_CASES, epsilon_cases, random_raw_links

from qamont import classifier, intmat, montesinos, plumbing
from qamont.classifier import (Branch, Reason, Status, _strict_pair, classify,
                               enumerate_family, explain, render_explain,
                               verify)
from qamont.lattice import gram_matches, qa_lattice_obstruction
from qamont.montesinos import (MontesinosLink, StandardForm, canonical_form,
                               _scaled_epsilon, _tangle_pair, determinant, epsilon,
                               format_link, reflect, slide, to_standard_form)
from qamont.plumbing import PlumbingGraph, adjacency_matrix
from references import epsilon_text_by_fraction, family_by_fractions, tangle_alpha_beta

# The acceptance family: p = 3, tangles from {2, 3, 3/2, 4, 4/3}, e in [-3, 4].
FAMILY = list(enumerate_family(3, 4, -3, 4, p_min=3))


def M(e, *tangles):
    return MontesinosLink(e, tuple(Fraction(t) for t in tangles))


class TestClassify:
    def test_condition1(self):
        verdict = classify(M(0, Fraction(5, 2), Fraction(7, 3)))
        assert (verdict.status, verdict.reason) == (Status.QA, Reason.CONDITION1)

    def test_det_zero(self):
        verdict = classify(M(1, Fraction(3, 2), 3))
        assert (verdict.status, verdict.reason) == (Status.NOT_QA, Reason.DET_ZERO)
        assert verdict.det == 0

    def test_no_condition(self):
        verdict = classify(M(1, 2, 2, 2))
        assert (verdict.status, verdict.reason) == (Status.NOT_QA, Reason.NO_CONDITION)

    def test_condition4_with_witness(self):
        verdict = classify(M(2, 3, 3, 3))
        assert (verdict.status, verdict.reason) == (Status.QA, Reason.CONDITION4)
        i, j = verdict.witness_pair
        assert i != j

    def test_condition2(self):
        # refl(3/2) = 3 > 2
        verdict = classify(M(1, Fraction(3, 2), 2))
        assert verdict.reason is Reason.CONDITION2
        assert verdict.witness_pair is not None

    def test_condition3(self):
        assert classify(M(3, 2, 2, 2)).reason is Reason.CONDITION3

    def test_normalizes_first(self):
        # M(0; -7/3) normalizes to M(1; 7/4): p = 1, e = 1 > p - 1 = 0
        verdict = classify(M(0, Fraction(-7, 3)))
        assert verdict.normalized == M(1, Fraction(7, 4))
        assert verdict.status is Status.QA

    def test_p_equals_one_always_qa(self):
        for link in enumerate_family(1, 5, -4, 4):
            assert classify(link).status is Status.QA

    def test_p_equals_two_sanity(self):
        # NotQA happens exactly at e = 1 with refl(t1) = t2, i.e. det = 0
        for link in enumerate_family(2, 5, -2, 3, p_min=2):
            verdict = classify(link)
            if verdict.status is Status.NOT_QA:
                assert verdict.reason is Reason.DET_ZERO
                assert link.e == 1
            else:
                assert determinant(link) != 0

    def test_conditions_imply_nonzero_det(self):
        for link in enumerate_family(3, 4, -2, 3):
            verdict = classify(link)
            if verdict.reason in (Reason.CONDITION1, Reason.CONDITION2,
                                  Reason.CONDITION3, Reason.CONDITION4):
                assert verdict.det >= 1

    def test_reflection_invariance_of_status(self):
        for link in enumerate_family(3, 3, -2, 4):
            assert classify(link).status is classify(reflect(link)).status

    def test_slide_invariance_of_full_verdict(self):
        rng = random.Random(5)
        links = list(enumerate_family(3, 4, -1, 3, p_min=2))
        for _ in range(300):
            link = rng.choice(links)
            slid = link
            for _ in range(rng.randint(1, 10)):
                slid = slide(slid, rng.randrange(slid.p), rng.choice([-1, 1]))
            assert classify(slid) == classify(link)


class TestEpsilon:
    """A verdict keeps eps as the scaled pair (N, A), and ``epsilon_text``
    prints it from integers; both match ``Fraction``."""

    def test_epsilon_and_its_text_match_the_fraction_reference(self, rng):
        covered = set()
        for link in random_raw_links(rng, 300):
            verdict = classify(link)
            assert verdict.scaled_epsilon == _scaled_epsilon(to_standard_form(link))
            assert Fraction(*verdict.scaled_epsilon) == epsilon(link)
            assert verdict.epsilon_text == epsilon_text_by_fraction(link)
            if verdict.reason is Reason.DET_ZERO:
                assert verdict.epsilon_text == "0/1"
            covered |= epsilon_cases(link)
        assert covered == EPSILON_CASES

    def test_verdict_stays_frozen(self):
        verdict = classify(M(0, Fraction(5, 2), Fraction(7, 3)))
        for name in ("status", "reason", "witness_pair", "normalized", "scaled_epsilon",
                     "det", "epsilon_text"):
            with pytest.raises(AttributeError):
                setattr(verdict, name, None)
        assert (verdict.scaled_epsilon, verdict.epsilon_text, verdict.det) == \
            ((-29, 35), "-29/35", 29)
        assert not hasattr(verdict, "epsilon")  # eps as a value is montesinos.epsilon


class TestVerify:
    def test_laufer_branch(self):
        evidence = verify(M(2, 2, 2, 2, 2, 2))
        assert evidence.branch is Branch.LAUFER_NOT_LSPACE
        assert evidence.laufer.steps == 0
        assert evidence.laufer.witness == 0

    def test_lattice_branch(self):
        evidence = verify(M(1, 2, 2, 2))
        assert evidence.branch is Branch.LATTICE_OBSTRUCTED
        assert not evidence.reflected
        assert evidence.obstruction.obstructed

    def test_positive_branch(self):
        evidence = verify(M(0, Fraction(3, 2)))
        assert evidence.branch is Branch.POSITIVE_CHECK
        assert evidence.laufer.verdict.value == "Rational"
        assert evidence.obstruction.witness is not None

    def test_det_zero_branch(self):
        evidence = verify(M(1, Fraction(3, 2), 3))
        assert evidence.branch is Branch.DET_ZERO
        assert evidence.side is None and evidence.graph is None

    def test_witness_matches_the_carried_graph(self):
        positive = 0
        for link in FAMILY:
            evidence = verify(link)
            if evidence.branch is Branch.POSITIVE_CHECK:
                positive += 1
                witness = evidence.obstruction.witness
                assert gram_matches(witness, adjacency_matrix(evidence.graph))
        assert positive > 0

    def test_one_elimination_per_link(self, monkeypatch):
        # One cross-checked elimination of q guards both halves, Laufer's
        # sequence and the search, on a cache miss as on a hit.
        calls = Counter()

        def counting(m, eliminate=intmat.negative_definite_det):
            calls["eliminations"] += 1
            return eliminate(m)

        monkeypatch.setattr(intmat, "negative_definite_det", counting)
        qa_lattice_obstruction.cache_clear()
        for warm in (False, True):
            misses = searched = 0
            for link in FAMILY:
                calls.clear()
                before = qa_lattice_obstruction.cache_info().misses
                evidence = verify(link)
                misses += qa_lattice_obstruction.cache_info().misses - before
                searched += evidence.obstruction is not None
                assert calls["eliminations"] == (evidence.graph is not None), link
            assert searched == 270
            assert misses == (0 if warm else 170)

    def test_one_graph_and_one_matrix_per_link(self, monkeypatch):
        # A cold verify builds the oriented plumbing and its q once, and the
        # search reads that q: a cache miss builds no second matrix, and a
        # cache hit builds neither a graph nor a matrix.  Every graph goes
        # through __post_init__, the one constructor.  Every matrix is laid
        # out by _adjacency_rows, which definite_form calls and
        # adjacency_matrix wraps, and every module that binds either is
        # counted.
        counts = Counter()
        post_init = PlumbingGraph.__post_init__
        rows = plumbing._adjacency_rows

        def checked(graph):
            counts["graphs"] += 1
            post_init(graph)

        def counting_rows(graph):
            counts["matrices"] += 1
            return rows(graph)

        def counting_matrix(graph):
            return tuple(map(tuple, counting_rows(graph)))

        monkeypatch.setattr(PlumbingGraph, "__post_init__", checked)
        for name, counting in (("_adjacency_rows", counting_rows),
                               ("adjacency_matrix", counting_matrix)):
            real = getattr(plumbing, name)
            bindings = [module for module_name, module in list(sys.modules.items())
                        if module_name.split(".")[0] == "qamont"
                        and getattr(module, name, None) is real]
            assert plumbing in bindings
            for module in bindings:
                monkeypatch.setattr(module, name, counting)
        qa_lattice_obstruction.cache_clear()
        graphs = []
        for link in FAMILY:
            counts.clear()
            evidence = verify(link)
            built = evidence.graph is not None
            assert (counts["graphs"], counts["matrices"]) == (built, built), link
            if evidence.obstruction is not None:
                graphs.append(evidence.graph)
        assert qa_lattice_obstruction.cache_info().misses == 170
        counts.clear()
        for graph in graphs:
            hits = qa_lattice_obstruction.cache_info().hits
            qa_lattice_obstruction(graph)
            assert qa_lattice_obstruction.cache_info().hits == hits + 1
        assert len(graphs) == 270 and not counts

    def test_one_scaled_epsilon_per_classify_and_per_verify(self, monkeypatch):
        # classify reads N and A once; verify reads N once, in oriented_graph,
        # whose rejection of eps = 0 is its determinant test.  Every module
        # that binds _scaled_epsilon is counted.
        real = montesinos._scaled_epsilon
        calls = []

        def counting(link):
            calls.append(link)
            return real(link)

        bindings = [module for name, module in list(sys.modules.items())
                    if name.split(".")[0] == "qamont"
                    and getattr(module, "_scaled_epsilon", None) is real]
        assert {classifier, montesinos, plumbing} <= set(bindings)
        for module in bindings:
            monkeypatch.setattr(module, "_scaled_epsilon", counting)
        rng = random.Random(27)
        branches = Counter()
        for link in FAMILY:
            typed = MontesinosLink(link.e, tuple(rng.sample(link.tangles, link.p)))
            typed = slide(typed, 0, rng.randint(-2, 2))
            calls.clear()
            classify(typed)
            assert len(calls) == 1
            branches[verify(typed).branch] += 1
            assert len(calls) == 2, typed
        assert branches[Branch.DET_ZERO] == 4 and len(branches) == 4

    def test_parse_classify_and_verify_build_no_fraction(self, monkeypatch):
        # The family typed as the benchmark types it, tangles shuffled and
        # slid off standard form, then parsed, classified and verified on
        # a cold search cache: no step builds a Fraction.  The reflection
        # flag, read as ``side is not std``, is the comparison of values.
        rng = random.Random(34)
        texts = []
        for link in FAMILY:
            typed = MontesinosLink(link.e, tuple(rng.sample(link.tangles, link.p)))
            for index in range(typed.p):
                typed = slide(typed, index, rng.randint(-2, 2))
            texts.append(format_link(typed))
        made = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        qa_lattice_obstruction.cache_clear()
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        outcomes = [(link, classify(link), verify(link))
                    for link in map(montesinos.parse_link, texts)]
        monkeypatch.undo()
        assert made == []
        branches = Counter(evidence.branch for _, _, evidence in outcomes)
        assert len(outcomes) == 280 and set(branches) == set(Branch)
        reflected = 0
        for link, verdict, evidence in outcomes:
            assert (verdict.status is Status.QA) == (evidence.branch is Branch.POSITIVE_CHECK)
            if evidence.side is not None:
                assert evidence.reflected == (evidence.side != to_standard_form(link))
                reflected += evidence.reflected
        assert 0 < reflected < 276

    def test_never_consults_the_classifier_inequalities(self, monkeypatch):
        # verify re-derives every verdict without classify's conditions, so
        # with them made to raise it still reaches every branch, with the
        # same evidence as an unpatched run.
        expected = [verify(link).branch for link in FAMILY]

        def forbidden(*args, **kwargs):
            raise AssertionError("verify consulted the classifier's inequalities")

        for name in ("classify", "_conditions", "_strict_pair"):
            monkeypatch.setattr(classifier, name, forbidden)
        qa_lattice_obstruction.cache_clear()
        branches = [verify(link).branch for link in FAMILY]
        assert branches == expected
        assert set(branches) == set(Branch)

    def test_equivalence_on_small_family(self):
        for link in enumerate_family(2, 4, -2, 3):
            qa = classify(link).status is Status.QA
            positive = verify(link).branch is Branch.POSITIVE_CHECK
            assert qa == positive, format_link(link)

    @pytest.mark.parametrize("p, alpha_max, e_min, e_max, size", [
        (2, 5, -3, 4, 360),
        (4, 3, -2, 5, 120),
        (4, 4, -2, 5, 560),
        (3, 5, -3, 4, 1320),
        pytest.param(4, 5, -1, 4, 2970, marks=pytest.mark.slow),
        pytest.param(5, 4, -6, 8, 1890, marks=pytest.mark.slow),
    ])
    def test_equivalence_on_wider_families(self, p, alpha_max, e_min, e_max, size):
        family = list(enumerate_family(p, alpha_max, e_min, e_max, p_min=p))
        assert len(family) == size
        mismatches = [format_link(link) for link in family
                      if (classify(link).status is Status.QA)
                      != (verify(link).branch is Branch.POSITIVE_CHECK)]
        assert mismatches == []

    @pytest.mark.slow
    def test_equivalence_on_the_largest_family(self):
        # Every link of p = 4, alpha <= 7, e in [-2, 5]: about 100 s.
        branches = Counter()
        mismatches = []
        for link in enumerate_family(4, 7, -2, 5, p_min=4):
            branch = verify(link).branch
            branches[branch] += 1
            if (classify(link).status is Status.QA) != (branch is Branch.POSITIVE_CHECK):
                mismatches.append(format_link(link))
        assert mismatches == []
        assert branches == {Branch.POSITIVE_CHECK: 32265,
                            Branch.LAUFER_NOT_LSPACE: 5704,
                            Branch.LATTICE_OBSTRUCTED: 718,
                            Branch.DET_ZERO: 73}

    def test_equivalence_on_typed_orders(self):
        # The 560 links of p = 4, alpha <= 4, e in [-2, 5], each typed with
        # its tangles in a seeded order and slid off standard form, so the
        # plumbing legs, and with them the embedding search, come in
        # another order than the canonical one.
        rng = random.Random(11)
        family = list(enumerate_family(4, 4, -2, 5, p_min=4))
        assert len(family) == 560
        mismatches = []
        for link in family:
            typed = MontesinosLink(link.e, tuple(rng.sample(link.tangles, link.p)))
            for index in range(typed.p):
                typed = slide(typed, index, rng.randint(-2, 2))
            verdict = classify(typed)
            assert verdict.status is classify(link).status, format_link(typed)
            if (verdict.status is Status.QA) != (verify(typed).branch is Branch.POSITIVE_CHECK):
                mismatches.append(format_link(typed))
        assert mismatches == []


# Every standard tangle alpha/beta, 0 < beta < alpha <= 9, gcd 1: 27 of them.
STANDARD_TANGLES = [Fraction(a, b) for a in range(2, 10) for b in range(1, a)
                    if gcd(a, b) == 1]


def fraction_strict_pair(std, bigger_reflected):
    """``_strict_pair`` by its Fraction definition."""
    for i, t_i in enumerate(std.tangles):
        alpha, beta = tangle_alpha_beta(t_i)
        reflected = Fraction(alpha, alpha - beta)
        for j, t_j in enumerate(std.tangles):
            if i != j and ((reflected > t_j) if bigger_reflected else (reflected < t_j)):
                return (i, j)
    return None


class TestIntegerForms:
    """The integer comparisons of the classify path against their Fraction
    definitions, on every standard tangle with alpha <= 9 and every ordered
    pair and triple of them."""

    def test_tangle_alpha_beta(self):
        # the constructor's reducer, on Fraction and int tangles
        assert len(STANDARD_TANGLES) == 27
        for t in STANDARD_TANGLES:
            for shifted in (t + k for k in range(-4, 4)):
                for u in (shifted, -shifted):
                    assert _tangle_pair(u) == tangle_alpha_beta(u), u
                    if u.denominator == 1:
                        assert _tangle_pair(int(u)) == tangle_alpha_beta(u), u

    def test_strict_pair_and_canonical_form(self):
        for p in (2, 3):
            for tangles in itertools.product(STANDARD_TANGLES, repeat=p):
                std = StandardForm(1, tangles)
                for bigger in (True, False):
                    assert _strict_pair(std, bigger) == fraction_strict_pair(std, bigger), \
                        (tangles, bigger)
                expected = tuple(sorted(tangles, reverse=True))
                canonical = canonical_form(std)
                assert canonical.tangles == expected and canonical.e == 1


class TestEnumerateFamily:
    def test_single_option(self):
        assert list(enumerate_family(1, 2, 0, 0)) == [M(0, 2)]

    def test_three_tangles_alpha_three(self):
        family = set(enumerate_family(1, 3, 1, 1))
        assert family == {M(1, 2), M(1, 3), M(1, Fraction(3, 2))}

    def test_multiset_count(self):
        family = [link for link in enumerate_family(3, 3, 1, 1, p_min=3)]
        assert len(family) == 10  # multisets of size 3 from {2, 3, 3/2}
        assert len(set(family)) == 10

    def test_canonical_and_deterministic(self):
        first = list(enumerate_family(3, 4, -1, 2))
        second = list(enumerate_family(3, 4, -1, 2))
        assert first == second
        for link in first:
            assert link == canonical_form(link)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_family(0, 4, 0, 1))
        with pytest.raises(ValueError):
            list(enumerate_family(2, 1, 0, 1))
        with pytest.raises(ValueError):
            list(enumerate_family(2, 4, 2, 1))

    @pytest.mark.parametrize("bounds, name", [
        ((3, 4.5, 0, 1), "alpha_max"),
        ((3, 4, 0.5, 1), "e_min"),
        ((3, 4, 0, 1.0), "e_max"),
        ((2.0, 4, 0, 1), "p_max"),
        ((3, 4, 0, 1, "1"), "p_min"),
    ])
    def test_a_bound_that_is_not_an_integer_raises_at_the_call(self, bounds, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            enumerate_family(*bounds)  # no next(): the call itself raises

    @pytest.mark.parametrize("p_min, p_max, alpha_max, e_min, e_max", [
        (1, 1, 6, -2, 2),   # p = 1
        (1, 3, 4, -1, 2),   # p_min < p_max
        (2, 4, 3, 0, 1),
        (3, 3, 5, -3, 4),
        # the order of the walk against the Fraction sort, tangle by tangle
        *((1, 2, alpha_max, 0, 1) for alpha_max in range(2, 13)),
    ])
    def test_links_equal_validated_standard_forms(self, p_min, p_max, alpha_max,
                                                   e_min, e_max):
        reference = family_by_fractions(p_min, p_max, alpha_max, e_min, e_max)
        family = list(enumerate_family(p_max, alpha_max, e_min, e_max, p_min=p_min))
        assert len(family) == len(reference)
        for link, expected in zip(family, reference):
            assert type(link) is StandardForm
            assert type(link.e) is int
            assert link == expected and hash(link) == hash(expected)
            assert repr(link) == repr(expected)
            assert link.tangles == expected.tangles
            assert link.pairs == expected.pairs
            copy = pickle.loads(pickle.dumps(link))  # as the --jobs pool sends it
            assert type(copy) is StandardForm
            assert copy == expected and copy.pairs == expected.pairs

    def test_runs_no_check_and_builds_no_fraction(self, monkeypatch):
        # The distinct tangles are standard by construction, so the walk
        # runs no constructor check and builds no Fraction; each of the 17
        # tangles of alpha <= 7 is one pair object, shared by every link.
        calls = []

        def counting(real):
            def check(self, e, pairs):
                calls.append(e)
                real(self, e, pairs)
            return check

        for cls in (MontesinosLink, StandardForm):
            monkeypatch.setattr(cls, "_init_checked", counting(cls.__dict__["_init_checked"]))
        made = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        family = list(enumerate_family(4, 7, -2, 5, p_min=4))
        monkeypatch.undo()
        assert len(family) == 38760
        assert calls == [] and made == []
        assert len({id(pair) for link in family for pair in link.pairs}) == 17

    def test_walk_holds_no_multisets(self):
        # p = 4 over the 199 tangles of alpha <= 25 gives over 6 * 10**7
        # multisets; drawing the first 1,000 must not build them.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            family = enumerate_family(4, 25, 0, 0, p_min=4)
            for _ in itertools.islice(family, 1000):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestExplain:
    def test_det_computation_string(self):
        report = explain(M(1, Fraction(3, 2), 3))
        assert "9(1 - 2/3 - 1/3)" in report["det_computation"]
        assert report["det_computation"].endswith("= 0")

    def test_condition1_without_verify(self):
        report = explain(M(0, 2))
        assert report["status"] == "QA"
        assert report["conditions"][0]["holds"] is True
        assert report["verify"] is None  # no obstruction run needed

    def test_all_conditions_false_with_numbers(self):
        report = explain(M(1, 2, 2, 2))
        assert all(not row["holds"] for row in report["conditions"])
        condition2 = next(r for r in report["conditions"] if r["name"] == "Condition2")
        assert "2 > " in condition2["detail"] and "= 2" in condition2["detail"]

    def test_verify_trace(self):
        link = M(1, 2, 2, 2)
        report = explain(link, verify(link))
        trace = report["verify"]
        assert trace["branch"] == "LatticeObstructed"
        assert trace["laufer"]["verdict"] == "Rational"
        search = trace["embedding_search"]
        assert search["obstructed"] is True
        assert search["nodes"] > 0
        assert search["leaves"] == 0 < search["pruned"]  # obstructed: det = 4
        text = render_explain(report)
        assert "no embedding has surjective transpose" in text
        assert (f"search tree: {search['nodes']} columns placed, 0 leaves,"
                f" {search['pruned']} pruned mod p") in text

    def test_trace_reads_the_oriented_side_from_the_evidence(self):
        for link in FAMILY:
            evidence = verify(link)
            trace = explain(link, evidence)["verify"]
            if evidence.side is None:
                assert "oriented_form" not in trace
                continue
            assert trace["oriented_form"] == format_link(evidence.side)
            assert epsilon(evidence.side) < 0
            assert evidence.side == (reflect(link) if evidence.reflected else link)

    def test_render_is_text(self):
        text = render_explain(explain(M(0, Fraction(5, 2), Fraction(7, 3))))
        assert "Condition1: holds" in text
