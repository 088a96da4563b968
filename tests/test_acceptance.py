"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The shared family is exhaustive over p = 3,
tangles from {2, 3, 3/2, 4, 4/3} as multisets, and e in [-3, 4]:
280 canonical links.
"""

import itertools
import random
from fractions import Fraction

from conftest import random_cf
from paper_lemmas import minor_check, rigidity_check, support_set, truncate_legs
from qamont.classifier import Branch, Status, classify, enumerate_family, verify
from qamont.cli import main
from qamont.intmat import freeze, mat_vec
from qamont.lattice import embeddings_by_rank, transpose_surjective
from qamont.laufer import LauferVerdict, laufer_run
from qamont.montesinos import (MontesinosLink, canonical_form, determinant,
                               epsilon, format_link, reflect, slide,
                               to_negative_form)
from qamont.plumbing import (PlumbingGraph, adjacency_matrix, build_graph,
                             definite_det, oriented_graph)
from references import h1_order, prefix_r

FAMILY = list(enumerate_family(3, 4, -3, 4, p_min=3))


def report(number: int, ok: bool, summary: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, summary


def test_criterion_1_theorem_obstruction_equivalence():
    assert len(FAMILY) == 280
    mismatches = []
    for link in FAMILY:
        qa = classify(link).status is Status.QA
        positive = verify(link).branch is Branch.POSITIVE_CHECK
        if qa != positive:
            mismatches.append(format_link(link))
    report(1, not mismatches,
           f"classify = QA <=> verify = PositiveCheck on {len(FAMILY)} links "
           f"({len(mismatches)} exceptions)")


def test_criterion_2_determinant_consistency():
    checked = 0
    bad = []
    for link in FAMILY:
        for side in (link, reflect(link)):
            if determinant(side) == 0 or epsilon(side) >= 0:
                continue
            graph = build_graph(to_negative_form(side))
            checked += 1
            if definite_det(graph) is None or h1_order(graph) != determinant(side):
                bad.append(format_link(side))
    report(2, checked > 0 and not bad,
           f"det(L) = |det Q| exactly on {checked} oriented links "
           f"({len(bad)} violations)")


def test_criterion_3_immediate_laufer_witness():
    checked = 0
    bad = []
    for link in FAMILY:
        if determinant(link) == 0:
            continue
        pos = link if epsilon(link) > 0 else reflect(link)
        if not 1 <= pos.e <= pos.p - 2:
            continue
        checked += 1
        graph = build_graph(to_negative_form(reflect(pos)))
        q = adjacency_matrix(graph)
        pairing = mat_vec(q, [1] * len(q))
        result = laufer_run(q)
        ok = (pairing[0] == pos.p - pos.e and pairing[0] >= 2
              and result.verdict is LauferVerdict.NOT_RATIONAL
              and result.steps == 0 and result.witness == 0
              and verify(pos).branch is Branch.LAUFER_NOT_LSPACE)
        if not ok:
            bad.append(format_link(pos))
    report(3, checked > 0 and not bad,
           f"step-0 central witness with pairing p - e on {checked} links "
           f"({len(bad)} violations)")


def test_criterion_4_singularity_anchors():
    e8 = PlumbingGraph(-2, ((-2,), (-2, -2), (-2, -2, -2, -2)))
    sigma = PlumbingGraph(-1, ((-2,), (-3,), (-7,)))
    ok = laufer_run(adjacency_matrix(e8)).verdict is LauferVerdict.RATIONAL
    ok = ok and laufer_run(adjacency_matrix(sigma)).verdict is LauferVerdict.NOT_RATIONAL
    chains = 0
    for length in range(1, 7):
        for weights in itertools.product(range(-5, -1), repeat=length):
            graph = PlumbingGraph(weights[0],
                                  (weights[1:],) if weights[1:] else ())
            verdict = laufer_run(adjacency_matrix(graph)).verdict
            chains += 1
            if verdict is not LauferVerdict.RATIONAL:
                ok = False
    report(4, ok, f"E8 rational, (-1;-2,-3,-7) not rational, "
                  f"{chains} linear chains all rational")


def test_criterion_5_unit_minors_whenever_surjective():
    surjective_seen = 0
    subsets_checked = 0
    violations = 0

    def inspect(emb):
        nonlocal surjective_seen, subsets_checked, violations
        surjective_seen += 1
        for size in range(1, emb.k + 1):
            for cols in itertools.combinations(range(emb.k), size):
                if len(support_set(emb, cols)) != size:
                    continue
                subsets_checked += 1
                if abs(minor_check(emb, cols)) != 1:
                    violations += 1

    # Replay the family's obstruction searches, inspecting every examined
    # embedding.  The minimal-rank witnesses of connected three-leg graphs
    # never split off a supported column subset (a supported chain would
    # force a minor of size alpha >= 2, which surjectivity forbids), so the
    # family contributes surjective embeddings but no supported subsets.
    for link in FAMILY:
        if determinant(link) == 0:
            continue
        _, graph = oriented_graph(link)
        q = adjacency_matrix(graph)
        if laufer_run(q).verdict is not LauferVerdict.RATIONAL:
            continue
        for _, embeddings in embeddings_by_rank(q):
            witness = next(filter(transpose_surjective, embeddings), None)
            if witness is not None:
                inspect(witness)
                break  # the pipeline stops at the first witness

    # Supplementary sweep where supported subsets do occur: every embedding
    # of every one-tangle (lens space) graph, across the full rank range.
    for link in enumerate_family(1, 5, -2, 2):
        if determinant(link) == 0:
            continue
        _, graph = oriented_graph(link)
        q = adjacency_matrix(graph)
        for _, embeddings in embeddings_by_rank(q):
            for emb in filter(transpose_surjective, embeddings):
                inspect(emb)

    report(5, surjective_seen > 0 and subsets_checked > 0 and violations == 0,
           f"{subsets_checked} supported minors on {surjective_seen} surjective "
           f"embeddings, {violations} violations")


def test_criterion_6_truncation_property():
    rng = random.Random(1006)
    accepted = 0
    while accepted < 1000:
        cf1, cf2 = random_cf(rng), random_cf(rng)
        if prefix_r(cf1, len(cf1)) + prefix_r(cf2, len(cf2)) < 1:
            continue
        l1, l2 = truncate_legs(cf1, cf2)  # raises on failure
        assert prefix_r(cf1, l1) + prefix_r(cf2, l2) == 1
        accepted += 1
    report(6, accepted == 1000,
           "1000 random truncations all reached r0 + s0 = 1 exactly")


def test_criterion_7_rigidity_property():
    rng = random.Random(1007)
    instances = 0
    embeddings_checked = 0
    failures = 0
    while instances < 100:
        cf1, cf2 = random_cf(rng), random_cf(rng)
        if prefix_r(cf1, len(cf1)) + prefix_r(cf2, len(cf2)) < 1:
            continue
        l1, l2 = truncate_legs(cf1, cf2)
        chain1, chain2 = cf1[:l1], cf2[:l2]
        total_weight = -sum(chain1) - sum(chain2)
        if total_weight > 18:  # keep each search quick
            continue
        instances += 1
        k1, k2 = len(chain1), len(chain2)
        q = [[0] * (k1 + k2) for _ in range(k1 + k2)]
        for offset, chain in ((0, chain1), (k1, chain2)):
            for pos, w in enumerate(chain):
                q[offset + pos][offset + pos] = w
                if pos + 1 < len(chain):
                    q[offset + pos][offset + pos + 1] = 1
                    q[offset + pos + 1][offset + pos] = 1
        q = freeze(q)
        psi1 = tuple(range(k1))
        psi2 = tuple(range(k1, k1 + k2))
        for _, embeddings in embeddings_by_rank(q):
            for emb in embeddings:
                if not (support_set(emb, (psi1[0],)) & support_set(emb, (psi2[0],))):
                    continue
                embeddings_checked += 1
                if rigidity_check(emb, psi1, psi2) is not True:
                    failures += 1
    report(7, embeddings_checked > 0 and failures == 0,
           f"rigidity held on {embeddings_checked} hypothesis-satisfying "
           f"embeddings across {instances} instances")


def test_criterion_8_specific_verdicts():
    from qamont.montesinos import parse_link

    cases = [
        ("M(1; 2, 2, 2)", Status.NOT_QA, Branch.LATTICE_OBSTRUCTED),
        ("M(2; 2, 2, 2, 2, 2)", Status.NOT_QA, Branch.LAUFER_NOT_LSPACE),
        ("M(1; 3/2, 3)", Status.NOT_QA, Branch.DET_ZERO),
        ("M(2; 3, 3, 3)", Status.QA, Branch.POSITIVE_CHECK),
    ]
    ok = True
    for text, want_status, want_branch in cases:
        link = parse_link(text)
        if (classify(link).status, verify(link).branch) != (want_status, want_branch):
            ok = False
    reason4 = classify(MontesinosLink(2, (Fraction(3),) * 3)).reason.value
    ok = ok and reason4 == "Condition4"
    report(8, ok, "four pinned verdicts match exactly")


def test_criterion_9_determinism_and_invariance(capsys):
    args = ["enumerate", "--p", "3", "--alpha-max", "2",
            "--e-min", "-1", "--e-max", "2", "--verify"]
    outputs = []
    for extra in ([], [], ["--jobs", "2"]):
        assert main(args + extra) == 0
        outputs.append(capsys.readouterr().out)
    byte_identical = outputs[0] == outputs[1] == outputs[2]

    rng = random.Random(1009)
    slide_ok = True
    for _ in range(1000):
        link = rng.choice(FAMILY)
        slid = link
        for _ in range(rng.randint(1, 8)):
            slid = slide(slid, rng.randrange(slid.p), rng.choice([-1, 1]))
        if classify(slid) != classify(link):
            slide_ok = False
            break

    reflect_ok = True
    for link in FAMILY:
        mirrored = reflect(link)
        if reflect(mirrored) != link:
            reflect_ok = False
        if canonical_form(reflect(mirrored)) != canonical_form(link):
            reflect_ok = False
        if classify(link).status is not classify(mirrored).status:
            reflect_ok = False

    with capsys.disabled():
        report(9, byte_identical and slide_ok and reflect_ok,
               f"byte-identical output across runs and worker counts: {byte_identical}; "
               f"slide invariance: {slide_ok}; reflection symmetry: {reflect_ok}")
