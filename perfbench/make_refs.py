"""Write the references the correctness gates compare against.

Run from the root of a checkout of the commit whose answers are taken as
correct:

    python3 perfbench/make_refs.py

Inputs are taken in canonical order (no seed), so the references hold only
what does not depend on tangle or leg order: per link the status, reason,
branch and witness rank; per graph the embedding and surjective counts per
ambient rank; and the digest of the classify-only enumerate output.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (EMBED_FAMILIES, ENUMERATE_ARGS, ENUMERATE_SMOKE,  # noqa: E402
                       REFS, VERIFY_FAMILY, _family, _run_cli, graph_key,
                       oriented_graphs, parse_embed_output)
from qamont.classifier import classify, verify  # noqa: E402
from qamont.montesinos import format_link  # noqa: E402
from qamont.plumbing import format_graph  # noqa: E402


def verify_refs() -> dict:
    links = {}
    for link in _family(VERIFY_FAMILY):
        verdict, evidence = classify(link), verify(link)
        obstruction = evidence.obstruction
        links[format_link(link)] = {
            "status": verdict.status.value, "reason": verdict.reason.value,
            "branch": evidence.branch.value,
            "witness_rank": obstruction.witness_n if obstruction else None}
    return {"family": VERIFY_FAMILY, "links": links}


def enumerate_refs() -> dict:
    out = {}
    for name, argv in (("full", ENUMERATE_ARGS), ("smoke", ENUMERATE_SMOKE)):
        code, text = _run_cli(argv)
        if code != 0:
            raise SystemExit(f"enumerate {argv} exited with {code}")
        out[name] = {"args": argv, "records": text.count("\n"),
                     "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return out


def embed_refs(work: Path) -> dict:
    graphs = {}
    for graph in oriented_graphs(EMBED_FAMILIES):
        key = graph_key(graph.central_weight, graph.legs)
        if key in graphs:
            continue
        work.write_text(format_graph(graph))
        code, text = _run_cli(["embed", str(work), "--all"])
        if code != 0:
            raise SystemExit(f"embed {key} exited with {code}")
        counts: dict[str, list[int]] = {}
        for n, surjective, _ in parse_embed_output(text)[0]:
            c = counts.setdefault(str(n), [0, 0])
            c[0] += 1
            c[1] += surjective
        graphs[key] = counts
    work.unlink()
    return {"families": EMBED_FAMILIES, "graphs": graphs}


def main() -> int:
    REFS.mkdir(exist_ok=True)
    refs = {"verify_family": verify_refs(), "enumerate_bulk": enumerate_refs(),
            "embed_exhaustive": embed_refs(REFS / "tmp.graph")}
    for name, data in refs.items():
        (REFS / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
