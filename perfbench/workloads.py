"""Workload inputs, requests and correctness gates.

Each workload has three parts:

* ``prepare(seed, pass_index, work_dir, smoke)`` makes the inputs of one
  pass (set-up time);
* ``run(item)`` is one timed request;
* ``check(item, outcome, refs)`` lists the mismatches of one request
  against the references in ``refs/``, which were made on the seed commit.

Passes come in pairs.  Pass ``2j`` draws a random tangle (or leg) order
for every input from ``(seed, j)``; pass ``2j + 1`` types the same inputs
in the reversed order, or rotated by one where the reverse is the same
order.  Search cost depends strongly on the order, so the pair takes in
both ends of it and a run varies much less with the seed than a single
random order would.

The benchmark calls the program only through public functions, looked up
on their modules at call time so the traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

import qamont.classifier as classifier
import qamont.cli as cli
import qamont.montesinos as montesinos
from qamont.classifier import Branch, Status, enumerate_family
from qamont.lattice import gram_matches, transpose_surjective
from qamont.montesinos import (MontesinosLink, canonical_form, determinant,
                               epsilon, format_link, reflect, slide,
                               to_negative_form, to_standard_form)
from qamont.plumbing import (PlumbingGraph, adjacency_matrix, build_graph,
                             format_graph)

REFS = Path(__file__).resolve().parent / "refs"

# (p, alpha_max, e_min, e_max) of each family; smoke mode uses sub-families
# whose references are contained in the full ones.
VERIFY_FAMILY = (3, 4, -3, 4)
VERIFY_SMOKE = (3, 3, 0, 1)
EMBED_FAMILIES = ((2, 5, -2, 3), (3, 3, -2, 3))
EMBED_SMOKE = ((2, 3, -1, 1),)
ENUMERATE_ARGS = ["enumerate", "--p", "4", "--alpha-max", "7", "--e-min", "-2", "--e-max", "5"]
ENUMERATE_SMOKE = ["enumerate", "--p", "3", "--alpha-max", "4", "--e-min", "0", "--e-max", "1"]


def load_refs() -> dict:
    return {path.stem: json.loads(path.read_text()) for path in REFS.glob("*.json")}


def _pair_rng(name: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{pass_index // 2}")


def _ordered(values, rng: random.Random, pass_index: int) -> list:
    """A random order; in the second pass of a pair, that order reversed,
    or rotated by one where reversing would give the same order."""
    order = list(values)
    rng.shuffle(order)
    if pass_index % 2:
        partner = order[::-1]
        order = partner if partner != order else order[1:] + order[:1]
    return order


def _family(spec: tuple[int, int, int, int]):
    p, alpha_max, e_min, e_max = spec
    return enumerate_family(p, alpha_max, e_min, e_max, p_min=p)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- verify-family ----------------------------------------------------------


def prepare_verify(seed: int, pass_index: int, work_dir: Path, smoke: bool) -> list:
    """(canonical key, typed link) per family member, in a seeded order."""
    rng = _pair_rng("verify-family", seed, pass_index)
    items = []
    for link in _family(VERIFY_SMOKE if smoke else VERIFY_FAMILY):
        typed = MontesinosLink(link.e, tuple(_ordered(link.tangles, rng, pass_index)))
        for index in range(typed.p):
            typed = slide(typed, index, rng.randint(-2, 2))
        items.append((format_link(link), format_link(typed)))
    rng.shuffle(items)
    return items


def run_verify(item):
    link = montesinos.parse_link(item[1])
    return link, classifier.classify(link), classifier.verify(link)


def check_verify(item, outcome, refs) -> list[str]:
    key = item[0]
    link, verdict, evidence = outcome
    ref = refs["verify_family"]["links"].get(key)
    if ref is None:
        return [f"{key}: no reference"]
    obstruction = evidence.obstruction
    got = {"status": verdict.status.value, "reason": verdict.reason.value,
           "branch": evidence.branch.value,
           "witness_rank": obstruction.witness_n if obstruction else None}
    bad = [f"{key}: {name} {got[name]!r} != {ref[name]!r}"
           for name in got if got[name] != ref[name]]
    if format_link(canonical_form(link)) != key:
        bad.append(f"{key}: typed as {item[1]} parses to another link")
    if (verdict.status is Status.QA) != (evidence.branch is Branch.POSITIVE_CHECK):
        bad.append(f"{key}: classify and verify disagree")
    if evidence.branch is Branch.POSITIVE_CHECK:
        std = to_standard_form(link)
        side = reflect(std) if evidence.reflected else std
        q = adjacency_matrix(build_graph(to_negative_form(side)))
        witness = obstruction.witness
        if not (gram_matches(witness, q) and transpose_surjective(witness)):
            bad.append(f"{key}: witness fails the Gram or surjectivity test")
    return bad


# -- enumerate-bulk ---------------------------------------------------------


def prepare_enumerate(seed: int, pass_index: int, work_dir: Path, smoke: bool) -> list:
    """One classify-only enumerate call; the family is exhaustive, so the
    seed plays no part."""
    return [ENUMERATE_SMOKE if smoke else ENUMERATE_ARGS]


def check_enumerate(item, outcome, refs) -> list[str]:
    code, text = outcome
    ref = refs["enumerate_bulk"]["smoke" if item == ENUMERATE_SMOKE else "full"]
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if text.count("\n") != ref["records"]:
        bad.append(f"{text.count(chr(10))} records, expected {ref['records']}")
    if hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
        bad.append("sha256 of the jsonl output differs from the reference")
    return bad


# -- embed-exhaustive -------------------------------------------------------


def oriented_graphs(specs) -> list[PlumbingGraph]:
    """Distinct negative definite graphs of the links in the families."""
    seen: dict[PlumbingGraph, None] = {}
    for spec in specs:
        for link in _family(spec):
            if determinant(link) == 0:
                continue
            side = reflect(link) if epsilon(link) > 0 else link
            seen.setdefault(build_graph(to_negative_form(side)))
    return list(seen)


def graph_key(central: int, legs) -> str:
    """Leg-order-free key: embedding counts do not depend on leg order."""
    return f"{central}|" + ";".join(" ".join(map(str, leg)) for leg in sorted(legs))


def gram_form(central: int, legs) -> list[list[int]]:
    """Intersection form of a star graph, central vertex first, each leg
    outward; independent of qamont.plumbing.adjacency_matrix."""
    weights = [central]
    edges = []
    for leg in legs:
        prev = 0
        for w in leg:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    q = [[0] * len(weights) for _ in weights]
    for i, w in enumerate(weights):
        q[i][i] = w
    for a, b in edges:
        q[a][b] = q[b][a] = 1
    return q


def prepare_embed(seed: int, pass_index: int, work_dir: Path, smoke: bool) -> list:
    """One graph file per oriented graph, legs in a seeded order."""
    rng = _pair_rng("embed-exhaustive", seed, pass_index)
    items = []
    for graph in oriented_graphs(EMBED_SMOKE if smoke else EMBED_FAMILIES):
        legs = tuple(_ordered(graph.legs, rng, pass_index))
        items.append((graph.central_weight, legs))
    rng.shuffle(items)
    work_dir.mkdir(parents=True, exist_ok=True)
    prepared = []
    for index, (central, legs) in enumerate(items):
        path = work_dir / f"g{index:03d}.graph"
        path.write_text(format_graph(PlumbingGraph(central, legs)))
        prepared.append((graph_key(central, legs), str(path), gram_form(central, legs)))
    return prepared


def run_embed(item):
    return _run_cli(["embed", item[1], "--all"])


def parse_embed_output(text: str) -> tuple[list[tuple[int, bool, list[list[int]]]], int | None]:
    """(rank, surjective, rows) per printed embedding, and the printed total."""
    embeddings = []
    total = None
    for block in text.split("\n\n"):
        lines = block.strip().splitlines()
        if not lines:
            continue
        if lines[0].startswith("total: "):
            total = int(lines[0].split()[1])
            continue
        head = dict(field.split("=") for field in lines[0].split()[1:])
        rows = [[int(v) for v in line.split()] for line in lines[1:]]
        embeddings.append((int(head["n"]), head["surjective"] == "true", rows))
    return embeddings, total


def check_embed(item, outcome, refs) -> list[str]:
    key, _, q = item
    code, text = outcome
    ref = refs["embed_exhaustive"]["graphs"].get(key)
    if ref is None:
        return [f"{key}: no reference"]
    if code != 0:
        return [f"{key}: exit code {code}"]
    embeddings, total = parse_embed_output(text)
    bad = []
    if total != len(embeddings):
        bad.append(f"{key}: total {total} but {len(embeddings)} embeddings printed")
    counts: dict[str, list[int]] = {}
    k = len(q)
    for n, surjective, rows in embeddings:
        c = counts.setdefault(str(n), [0, 0])
        c[0] += 1
        c[1] += surjective
        cols = list(zip(*rows)) if rows else []
        ok = len(rows) == n and all(len(row) == k for row in rows) and all(
            -sum(a * b for a, b in zip(cols[i], cols[j])) == q[i][j]
            for i in range(k) for j in range(k))
        if not ok:
            bad.append(f"{key}: an embedding at n={n} fails the Gram condition")
    if counts != ref:
        bad.append(f"{key}: counts per rank {counts} != {ref}")
    return bad


class Workload(NamedTuple):
    prepare: Callable
    run: Callable
    check: Callable
    units: Callable  # units of work in one outcome: a link, a graph or a record
    output_bytes: Callable


def _records(outcome) -> int:
    return outcome[1].count("\n")


def _cli_bytes(outcome) -> int:
    return len(outcome[1].encode())


WORKLOADS = {
    "verify-family": Workload(prepare_verify, run_verify, check_verify,
                              units=lambda outcome: 1, output_bytes=lambda outcome: 0),
    "enumerate-bulk": Workload(prepare_enumerate, _run_cli, check_enumerate,
                               units=_records, output_bytes=_cli_bytes),
    "embed-exhaustive": Workload(prepare_embed, run_embed, check_embed,
                                 units=lambda outcome: 1, output_bytes=_cli_bytes),
}
