"""Command line front end.

Subcommands: ``classify`` for explicit link expressions, ``enumerate`` for
parameter families, ``laufer`` and ``embed`` for plumbing graph files.
Machine output is jsonl (one record per line) or tsv; ``table`` is for
humans and carries no stability guarantee.  Exit codes: 0 success, 1
standard output closed before the records ended, 2 input error, 3
precondition error (e.g. an indefinite graph), 4 internal guard tripped.

Records are bit-exact across runs and worker counts; per-record timing is
therefore only emitted when ``--timing`` is requested.  jsonl and tsv
print each record as soon as it is built, in input order.

A jsonl line is ``json.dumps(record)`` with the ``json`` defaults, then a
newline, in one write: ``", "`` between fields and ``": "`` after each
key, non-ASCII characters escaped as ``\\uXXXX``, and the keys in the
order of ``_RECORD_FIELDS``, then ``ms`` under ``--timing``, then
``explain`` under ``--explain``.  Each string is quoted once, by
``json.encoder.encode_basestring_ascii``, which is what ``json.dumps``
runs on a ``str`` under those defaults.  A tsv line is one write too.

A record's ``status``, ``reason`` and ``evidence`` are plain ``str``,
each its enum member's value, so no output depends on how a Python
version formats a ``str`` enum.  Its ``epsilon`` is ``Verdict.epsilon_text``,
printed from the integers N and A, and its ``canonical`` is sorted on
integer pairs, so a record builds no ``Fraction`` unless ``--explain``
prints tangles.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import deque
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator

from .classifier import classify, enumerate_family, explain, render_explain, verify
from .errors import InternalError, NotNegativeDefiniteError, ParseError
from .lattice import (_critical_primes, embeddings_by_rank, qa_lattice_obstruction,
                      transpose_surjective)
from .laufer import laufer_run
from .montesinos import _INTEGER, MontesinosLink, canonical_form, format_link, parse_link
from .plumbing import parse_graph

_RECORD_FIELDS = ["link", "canonical", "e", "p", "det", "epsilon",
                  "status", "reason", "evidence"]

# Every line boundary that str.splitlines knows.  tsv cannot carry these or
# a tab; a table cell shows each as its Python escape, so that every record
# stays on one aligned row.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_CELL_ESCAPES = str.maketrans({c: repr(c)[1:-1] for c in "\t" + _LINE_BREAKS})

# A worker pool takes tasks in chunks of _CHUNK and has at most _AHEAD
# chunks per worker in flight, so memory does not grow with the family.
_CHUNK = 4
_AHEAD = 2


def _build_record(task: tuple[tuple[str, str, MontesinosLink], tuple[bool, bool, bool]]) -> dict:
    """One record, its keys in the order ``_jsonl_line`` writes them:
    ``_RECORD_FIELDS``, then ``ms`` under ``--timing``, then ``explain``."""
    (text, canonical, link), (with_verify, with_explain, with_timing) = task
    start = time.perf_counter_ns() if with_timing else 0
    verdict = classify(link)
    std = verdict.normalized
    evidence = verify(std) if with_verify else None
    record = {
        "link": text,
        "canonical": canonical,
        "e": std.e,
        "p": std.p,
        "det": verdict.det,
        "epsilon": verdict.epsilon_text,
        # A member's _value_ is its text as a plain str, read without the
        # enum ``value`` property.
        "status": verdict.status._value_,
        "reason": verdict.reason._value_,
        "evidence": evidence.branch._value_ if evidence else None,
    }
    if with_timing:
        record["ms"] = (time.perf_counter_ns() - start) // 1_000_000
    if with_explain:
        record["explain"] = explain(link, evidence, verdict)
    return record


def _build_records(chunk: list[tuple]) -> list[dict]:
    return [_build_record(task) for task in chunk]


def _records(links: Iterable[tuple[str, str, MontesinosLink]], args) -> Iterator[dict]:
    """Records in input order.  With ``--verify``, up to ``--jobs`` workers
    build them, but no more than there are CPUs or records, and a pool
    keeps a bounded window of tasks in flight.  Otherwise, and with one
    worker, they are built lazily in this process: a classify-only record
    costs less to build than to send to a worker and back."""
    tasks = zip(links, repeat((args.verify, args.explain, args.timing)))
    workers = min(args.jobs, os.cpu_count() or 1) if args.verify else 1
    if workers > 1:
        head = list(islice(tasks, workers))
        workers = len(head)
        tasks = chain(head, tasks)
    if workers <= 1:
        yield from map(_build_record, tasks)
        return
    # Imported here: the pool's modules (multiprocessing among them) take
    # longer to import than the rest of the CLI, and only this path runs one.
    from concurrent.futures import ProcessPoolExecutor

    chunks = iter(lambda: list(islice(tasks, _CHUNK)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for chunk in chunks:
            if len(pending) == _AHEAD * workers:
                yield from pending.popleft().result()
            pending.append(pool.submit(_build_records, chunk))
        while pending:
            yield from pending.popleft().result()


def _jsonl_line(record: dict) -> str:
    """``json.dumps(record)`` and a newline, written from the record schema.

    Only the user's link text, ``canonical``, ``evidence`` and ``explain``
    can hold a character that JSON escapes.  Each of the three strings is
    quoted by ``_quote``, ``json.encoder.encode_basestring_ascii``, which
    is what ``json.dumps`` runs on a ``str`` under its defaults; when
    ``canonical`` is the link text itself, as every ``enumerate`` record
    has it, the quoted link serves both.  ``explain`` goes through
    ``json.dumps``.  The others are ints (``e``, ``p``, ``det``, ``ms``),
    whose JSON is their ``str``, and ``epsilon``, ``status`` and ``reason``,
    whose digits, signs, slash and letters JSON writes as they are.
    ``None`` is ``null``."""
    link, canonical, evidence = record["link"], record["canonical"], record["evidence"]
    link_json = _quote(link)
    line = (f'{{"link": {link_json}, '
            f'"canonical": {link_json if canonical is link else _quote(canonical)}, '
            f'"e": {record["e"]}, "p": {record["p"]}, "det": {record["det"]}, '
            f'"epsilon": "{record["epsilon"]}", "status": "{record["status"]}", '
            f'"reason": "{record["reason"]}", '
            f'"evidence": {"null" if evidence is None else _quote(evidence)}')
    if "ms" in record:
        line += f', "ms": {record["ms"]}'
    if "explain" in record:
        line += f', "explain": {json.dumps(record["explain"])}'
    return line + "}\n"


def _emit(records: Iterator[dict], args) -> None:
    fields = _RECORD_FIELDS + (["ms"] if args.timing else [])
    write = sys.stdout.write
    if args.format == "jsonl":
        for record in records:
            write(_jsonl_line(record))
        return
    if args.format == "tsv":
        write("\t".join(fields) + "\n")
        for record in records:
            write("\t".join(str(record[f]) if record[f] is not None else ""
                             for f in fields) + "\n")
        return
    # table: aligned columns, then any explain traces
    records = list(records)
    rows = [[str(record[f]).translate(_CELL_ESCAPES) if record[f] is not None else "-"
             for f in fields]
            for record in records]
    widths = [max(len(f), *(len(row[i]) for row in rows)) if rows else len(f)
              for i, f in enumerate(fields)]
    print("  ".join(f.ljust(w) for f, w in zip(fields, widths)))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if args.explain:
        for record in records:
            print()
            print(render_explain(record["explain"]))


def _check_record_flags(args) -> None:
    if args.explain and args.format == "tsv":
        raise ValueError("--explain is not available with tsv output; "
                         "use jsonl or table")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")


def cmd_classify(args) -> int:
    _check_record_flags(args)
    # Parse every expression before the first record is printed, so a bad
    # one exits with nothing on stdout.
    texts = [t.strip() for t in args.links]
    if args.format == "tsv":
        # The link field echoes the text, and tsv has no escape for these.
        for text in texts:
            if any(c in text for c in "\t" + _LINE_BREAKS):
                raise ParseError(f"link expression {text!r} holds a tab or line "
                                 "break, which tsv cannot carry; use jsonl")
    links = [parse_link(text) for text in texts]
    _emit(_records(((text, format_link(canonical_form(link)), link)
                    for text, link in zip(texts, links)), args), args)
    return 0


def cmd_enumerate(args) -> int:
    _check_record_flags(args)
    p_min, p_max = (args.p, args.p) if args.p is not None else (1, args.p_max)
    family = enumerate_family(p_max, args.alpha_max, args.e_min, args.e_max,
                              p_min=p_min)
    _emit(_records(_canonical_triples(family), args), args)
    return 0


def _canonical_triples(family: Iterable[MontesinosLink]
                       ) -> Iterator[tuple[str, str, MontesinosLink]]:
    """(text, canonical text, link) per link, formatted once: enumerate_family
    yields canonical forms, so each text is its canonical text."""
    for link in family:
        text = format_link(link)
        yield text, text, link


def _read_graph(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read graph file {path!r}: {exc}") from None
    return parse_graph(text)


def cmd_laufer(args) -> int:
    graph = _read_graph(args.graph_file)
    result = laufer_run(graph.definite_form)
    print(f"verdict: {result.verdict.value}")
    print(f"steps: {result.steps}")
    print("cycle: " + " ".join(str(c) for c in result.cycle))
    if result.witness is None:
        print("witness: none")
    else:
        suffix = " (central)" if result.witness == 0 else ""
        print(f"witness: {result.witness}{suffix}")
    return 0


def cmd_embed(args) -> int:
    if args.n_max is not None and not args.all:
        raise ValueError("--n-max needs --all: the obstruction search runs to its "
                         "complete rank bound, since a lower one could report "
                         "Obstructed where a witness exists")
    if args.n_max is not None and args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    graph = _read_graph(args.graph_file)
    if args.all:
        # embeddings_by_rank takes the graph's cross-checked q as it is.
        q = graph.definite_form
        # By the Lemma of lattice._OrderlyTree (Cauchy-Binet), only a prime
        # whose square divides det q can divide the index of the lattice an
        # embedding's rows generate, so with no such prime every embedding
        # is onto and only the others need the test.
        critical = bool(_critical_primes(q.det))
        total = 0
        for n, embeddings in embeddings_by_rank(q, args.n_max):
            for emb in embeddings:
                total += 1
                surjective = "false" if critical and not transpose_surjective(emb) else "true"
                print("\n".join([f"embedding n={n} index={total} surjective={surjective}",
                                 *(" ".join(map(str, row)) for row in emb), ""]))
        print(f"total: {total}")
        return 0
    result = qa_lattice_obstruction(graph)
    if result.obstructed:
        print("Obstructed")
    else:
        print(f"NotObstructed n={result.witness_n}")
        for row in result.witness:
            print(" ".join(str(v) for v in row))
    return 0


def _integer(text: str) -> int:
    """The ``type`` of the integer options: the grammar's integer rule."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def _add_record_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--verify", action="store_true",
                        help="run the full obstruction pipeline per link")
    parser.add_argument("--explain", action="store_true",
                        help="attach the classification trace")
    parser.add_argument("--format", choices=["jsonl", "tsv", "table"],
                        default="jsonl", help="output format (default jsonl)")
    parser.add_argument("--jobs", type=_integer, default=1,
                        help="worker processes for --verify records (default 1)")
    parser.add_argument("--timing", action="store_true",
                        help="include per-record milliseconds (breaks byte-for-byte "
                             "reproducibility)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="qamont",
        description="Classify quasi-alternating Montesinos links and verify "
                    "the verdicts through plumbing singularities and lattice "
                    "embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify link expressions")
    p_classify.add_argument("links", nargs="+", metavar="LINK",
                            help='link expression, e.g. "M(0; 5/2, 7/3)"')
    _add_record_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_enum = sub.add_parser("enumerate", help="classify a parameter family")
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_integer, help="exact number of tangles")
    group.add_argument("--p-max", type=_integer, help="enumerate p = 1..P_MAX")
    p_enum.add_argument("--alpha-max", type=_integer, required=True)
    p_enum.add_argument("--e-min", type=_integer, required=True)
    p_enum.add_argument("--e-max", type=_integer, required=True)
    _add_record_flags(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_laufer = sub.add_parser("laufer", help="run the computation sequence on a graph file")
    p_laufer.add_argument("graph_file")
    p_laufer.set_defaults(func=cmd_laufer)

    p_embed = sub.add_parser("embed", help="search lattice embeddings of a graph file")
    p_embed.add_argument("graph_file")
    p_embed.add_argument("--n-max", type=_integer, default=None,
                         help="with --all: list ranks up to N only")
    p_embed.add_argument("--all", action="store_true",
                         help="print every embedding with its surjectivity verdict")
    p_embed.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed standard output early (``| head``).  Point fd 1
        # at devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NotNegativeDefiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
