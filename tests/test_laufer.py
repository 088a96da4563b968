import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_star_graph
from qamont import laufer
from qamont.classifier import Branch, enumerate_family, verify
from qamont.errors import NotNegativeDefiniteError, StepLimitError
from qamont.intmat import freeze
from qamont.laufer import LauferResult, LauferVerdict, laufer_run
from qamont.montesinos import (MontesinosLink, determinant, epsilon, reflect,
                               to_negative_form)
from qamont.plumbing import PlumbingGraph, adjacency_matrix, build_graph, oriented_graph
from references import is_negative_definite_matrix, mat_vec

E8 = PlumbingGraph(-2, ((-2,), (-2, -2), (-2, -2, -2, -2)))
SIGMA_2_3_7 = PlumbingGraph(-1, ((-2,), (-3,), (-7,)))
D4 = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))


def M(e, *tangles):
    return MontesinosLink(e, tuple(Fraction(t) for t in tangles))


def reference_sequence(q, pick):
    """The computation sequence from scratch: Q * K by ``mat_vec`` at every
    step, incrementing the vertex ``pick`` chooses among those with pairing
    1, and reporting the lowest vertex with pairing >= 2."""
    cycle = [1] * len(q)
    for step in itertools.count():
        pairing = mat_vec(q, cycle)
        high = [j for j, v in enumerate(pairing) if v >= 2]
        if high:
            return LauferResult(LauferVerdict.NOT_RATIONAL, step, tuple(cycle), high[0])
        ones = [j for j, v in enumerate(pairing) if v == 1]
        if not ones:
            return LauferResult(LauferVerdict.RATIONAL, step, tuple(cycle), None)
        cycle[pick(ones)] += 1


def oriented_forms():
    """Q of every oriented form of p=3 alpha<=4 e in [-3, 4] and p=4
    alpha<=5 e in [-2, 5]: 4,215 links with nonzero determinant."""
    for p, alpha_max, e_min, e_max in ((3, 4, -3, 4), (4, 5, -2, 5)):
        for link in enumerate_family(p, alpha_max, e_min, e_max, p_min=p):
            if determinant(link) != 0:
                yield oriented_graph(link)[1].definite_form


class TestRun:
    def test_e8_is_rational_with_the_known_fundamental_cycle(self):
        result = laufer_run(E8.definite_form)
        assert result.verdict is LauferVerdict.RATIONAL
        # highest-root coefficients: 6 at the branch vertex, then the legs
        assert result.cycle == (6, 3, 4, 2, 5, 4, 3, 2)
        # independent re-check: terminal pairings are all nonpositive
        assert all(v <= 0 for v in mat_vec(adjacency_matrix(E8), list(result.cycle)))

    def test_sigma_2_3_7_stops_immediately(self):
        q = SIGMA_2_3_7.definite_form
        assert mat_vec(q, [1, 1, 1, 1])[0] == 2  # central pairing w + deg
        result = laufer_run(q)
        assert result.verdict is LauferVerdict.NOT_RATIONAL
        assert result.steps == 0
        assert result.witness == 0
        assert result.cycle == (1, 1, 1, 1)

    def test_single_vertex(self):
        result = laufer_run(PlumbingGraph(-2, ()).definite_form)
        assert result.verdict is LauferVerdict.RATIONAL
        assert result.steps == 0
        assert result.cycle == (1,)

    def test_steps_count_increments(self, rng):
        for _ in range(50):
            graph = random_star_graph(rng)
            if not is_negative_definite_matrix(adjacency_matrix(graph)):
                continue
            result = laufer_run(graph.definite_form)
            if result.verdict is LauferVerdict.RATIONAL:
                assert result.steps == sum(result.cycle) - len(result.cycle)
                assert all(c >= 1 for c in result.cycle)

    def test_policy_independence(self, rng):
        graphs = [build_graph(to_negative_form(link))
                  for link in enumerate_family(2, 4, -2, 2)
                  if determinant(link) != 0 and epsilon(link) < 0]
        found = 0
        while found < 20:
            graph = random_star_graph(rng)
            if is_negative_definite_matrix(adjacency_matrix(graph)):
                graphs.append(graph)
                found += 1
        seeded = random.Random(99)
        for graph in graphs:
            q = graph.definite_form
            low = laufer_run(q)
            for pick in (max, seeded.choice):
                other = reference_sequence(q, pick)
                assert other.verdict is low.verdict
                if other.verdict is LauferVerdict.RATIONAL:
                    assert other.cycle == low.cycle

    def test_matches_the_sequence_from_scratch_field_for_field(self, rng):
        # The kept pairing vector against Q * K recomputed at every step,
        # under the same rule (lowest vertex with pairing 1): verdict,
        # steps, cycle and witness all agree.
        forms = list(oriented_forms())
        assert len(forms) == 4215
        stars = []
        while len(stars) < 200:
            graph = random_star_graph(rng)
            if is_negative_definite_matrix(adjacency_matrix(graph)):
                stars.append(graph.definite_form)
        verdicts = set()
        for q in forms + stars + [E8.definite_form]:
            result = laufer_run(q)
            assert result == reference_sequence(q, min), q
            verdicts.add(result.verdict)
        assert verdicts == set(LauferVerdict)

    def test_linear_chains_are_rational(self):
        # length <= 3 smoke here; the acceptance suite covers length <= 6
        def chains(length):
            if length == 0:
                yield ()
            else:
                for rest in chains(length - 1):
                    for w in range(-5, -1):
                        yield (w,) + rest
        for length in range(1, 4):
            for weights in chains(length):
                graph = PlumbingGraph(weights[0], (weights[1:],) if weights[1:] else ())
                result = laufer_run(graph.definite_form)
                assert result.verdict is LauferVerdict.RATIONAL

    def test_rejects_asymmetric(self):
        # An asymmetric matrix is no graph's form, so it cannot be a
        # Definite: the run refuses it by type.
        with pytest.raises(TypeError, match="definite_form"):
            laufer_run(freeze([[-2, 1], [0, -2]]))

    def test_rejects_indefinite(self):
        # The graph's guard refuses an indefinite plumbing, so its q never
        # reaches the run.
        with pytest.raises(NotNegativeDefiniteError):
            laufer_run(PlumbingGraph(0, ((-2,),) * 4).definite_form)

    def test_step_guard(self, monkeypatch):
        monkeypatch.setattr(laufer, "STEP_LIMIT", 0)
        with pytest.raises(StepLimitError):
            laufer_run(D4.definite_form)


class TestIsLspace:
    """The L-space test the program runs: ``verify``'s Laufer branch on the
    plumbing of the link's oriented side."""

    def test_examples(self):
        assert verify(M(1, 2, 2, 2)).laufer.verdict is LauferVerdict.RATIONAL
        assert verify(M(2, 2, 2, 2, 2, 2)).branch is Branch.LAUFER_NOT_LSPACE
        assert verify(M(0, Fraction(3, 2))).laufer.verdict is LauferVerdict.RATIONAL

    def test_lemma_pattern_small_family(self):
        # eps > 0 with 1 <= e <= p - 2 forces an immediate central witness
        for link in enumerate_family(4, 3, -1, 4, p_min=3):
            if determinant(link) == 0:
                continue
            pos = link if epsilon(link) > 0 else reflect(link)
            if not 1 <= pos.e <= pos.p - 2:
                continue
            graph = build_graph(to_negative_form(reflect(pos)))
            q = graph.definite_form
            assert mat_vec(q, [1] * len(q))[0] == pos.p - pos.e >= 2
            result = laufer_run(q)
            assert result.verdict is LauferVerdict.NOT_RATIONAL
            assert result.steps == 0 and result.witness == 0
            assert verify(pos).branch is Branch.LAUFER_NOT_LSPACE
