import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from conftest import EPSILON_CASES, epsilon_cases, random_raw_links
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qamont
from qamont import classifier, cli, lattice, montesinos, plumbing
from qamont.classifier import classify, enumerate_family, verify
from qamont.cli import main
from qamont.errors import InternalError, NotNegativeDefiniteError
from qamont.lattice import (_critical_primes, gram_matches, qa_lattice_obstruction,
                            transpose_surjective)
from qamont.montesinos import canonical_form, determinant, parse_link
from qamont.plumbing import adjacency_matrix, format_graph, oriented_graph, parse_graph
from references import epsilon_text_by_fraction

E8_TEXT = "central: -2\nleg: -2\nleg: -2 -2\nleg: -2 -2 -2 -2\n"
SIGMA_237_TEXT = "central: -1\nleg: -2\nleg: -3\nleg: -7\n"
D4_TEXT = "central: -2\nleg: -2\nleg: -2\nleg: -2\n"
INDEFINITE_TEXT = "central: 0\nleg: -2\nleg: -2\nleg: -2\nleg: -2\n"

# Every line boundary of str.splitlines besides \n and \r, each as it sits
# inside a link expression and as a table cell shows it.
OTHER_LINE_BREAKS = {"\v": "\\x0b", "\f": "\\x0c", "\x1c": "\\x1c", "\x1d": "\\x1d",
                     "\x1e": "\\x1e", "\x85": "\\x85", "\u2028": "\\u2028",
                     "\u2029": "\\u2029"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_condition1_record(self, capsys):
        code, out, _ = run(capsys, "classify", "M(0; 5/2, 7/3)")
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "QA"
        assert record["reason"] == "Condition1"
        assert record["evidence"] is None

    def test_verify_adds_evidence(self, capsys):
        code, out, _ = run(capsys, "classify", "M(1; 3/2, 3)", "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "NotQA"
        assert record["reason"] == "DetZero"
        assert record["evidence"] == "DetZero"

    def test_rejected_tangle_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "M(1; 1/2)")
        assert code == 2
        assert "alpha" in err

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "classify", "M(1; 2, huh)")
        assert code == 2
        assert "huh" in err

    @pytest.mark.parametrize("argv", [["M(\u0663; 5/2)"],
                                      ["M(0; \uff15/2, 7/3)", "--format", "tsv"]])
    def test_non_ascii_digit_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_bad_expression_prints_no_record(self, capsys):
        code, out, _ = run(capsys, "classify", "M(0; 2)", "M(1; 2, huh)")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_records_stream_as_they_are_built(self, capsys, monkeypatch, fmt):
        real = cli.classify
        calls = []

        def classify_then_fail(link):
            calls.append(link)
            if len(calls) == 2:
                raise InternalError("second record")
            return real(link)

        monkeypatch.setattr(cli, "classify", classify_then_fail)
        code, out, _ = run(capsys, "classify", "M(0; 5/2, 7/3)", "M(0; 2)",
                           "--format", fmt, "--jobs", "1")
        assert code == 4
        assert "M(0; 5/2, 7/3)" in out and "M(0; 2)" not in out

    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, _ = run(capsys, "classify", "M(0; 2)", "M(1; 2, 2, 2)",
                           "--verify", "--jobs", "2")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_jobs_capped_at_record_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, _ = run(capsys, "classify", "M(0; 2)", "--verify", "--jobs", "2")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_classify_only_records_start_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        argv = ("enumerate", "--p", "2", "--alpha-max", "4", "--e-min", "0",
                "--e-max", "1")
        code, pooled, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0
        _, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert pooled == serial
        assert len(serial.splitlines()) == 2 * 15

    def test_pool_keeps_a_bounded_window(self, capsys, monkeypatch):
        # A stub pool that runs nothing until a result is asked for, and
        # fails as soon as more chunks are pending than the window allows.
        window = cli._AHEAD * 2
        state = {"read": 0, "read_at_start": None, "pending": 0, "peak": 0}
        real_family = cli.enumerate_family

        def counting_family(*args, **kwargs):
            for link in real_family(*args, **kwargs):
                state["read"] += 1
                yield link

        class StubFuture:
            def __init__(self, fn, chunk):
                self.fn, self.chunk = fn, chunk

            def result(self):
                state["pending"] -= 1
                return self.fn(self.chunk)

        class StubPool:
            def __init__(self, max_workers):
                assert max_workers == 2
                state["read_at_start"] = state["read"]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, chunk):
                assert len(chunk) <= cli._CHUNK
                state["pending"] += 1
                assert state["pending"] <= window, "too many chunks in flight"
                state["peak"] = max(state["peak"], state["pending"])
                return StubFuture(fn, chunk)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(cli, "enumerate_family", counting_family)
        argv = ("enumerate", "--p", "2", "--alpha-max", "5", "--e-min", "0",
                "--e-max", "1", "--verify")
        code, pooled, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert state["read_at_start"] == 2
        assert state["peak"] == window
        assert state["pending"] == 0
        monkeypatch.setattr(cli, "enumerate_family", real_family)
        _, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert pooled == serial
        assert len(serial.splitlines()) > window * cli._CHUNK

    def test_verify_explain_verifies_once_per_record(self, capsys, monkeypatch):
        real = classifier.verify
        calls = []

        def counting_verify(link):
            calls.append(link)
            return real(link)

        monkeypatch.setattr(cli, "verify", counting_verify)
        monkeypatch.setattr(classifier, "verify", counting_verify)
        code, out, _ = run(capsys, "classify", "M(1; 2, 2, 2)", "M(0; 3/2)",
                           "--verify", "--explain", "--jobs", "1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["explain"]["verify"]["branch"] for r in records] == \
            ["LatticeObstructed", "PositiveCheck"]
        assert len(calls) == 2

    def test_explain_classifies_once_per_record(self, capsys, monkeypatch):
        real = classifier.classify
        calls = []

        def counting_classify(link):
            calls.append(link)
            return real(link)

        monkeypatch.setattr(cli, "classify", counting_classify)
        monkeypatch.setattr(classifier, "classify", counting_classify)
        code, out, _ = run(capsys, "classify", "M(1; 2, 2, 2)", "M(0; 3/2)",
                           "M(2; 3/2, 5/3, 2)", "--verify", "--explain", "--jobs", "1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["explain"]["status"] for r in records] == [r["status"] for r in records]
        assert len(calls) == 3

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "classify", "M(0; 2)", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    def test_explain_table(self, capsys):
        code, out, _ = run(capsys, "classify", "M(1; 2, 2, 2)",
                           "--explain", "--format", "table", "--verify")
        assert code == 0
        assert "LatticeObstructed" in out
        assert "Condition2: fails" in out

    def test_explain_tsv_is_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "M(0; 2)", "--explain",
                           "--format", "tsv")
        assert code == 2
        assert "explain" in err

    @pytest.mark.parametrize("text", ["M(0;\t5/2, 7/3)", "M(0; 5/2,\n 7/3)",
                                      "M(0; 5/2,\r\n7/3)"]
                             + [f"M(0; 5/{c}2, 7/3)" for c in OTHER_LINE_BREAKS])
    def test_tsv_rejects_tab_or_line_break_in_a_link(self, capsys, text):
        code, out, err = run(capsys, "classify", "M(0; 2)", text, "--format", "tsv")
        assert code == 2
        assert out == ""
        assert "tsv" in err

    def test_jsonl_escapes_tab_or_line_break_in_a_link(self, capsys):
        text = "M(0;\t5/2,\n 7/3)"
        code, out, _ = run(capsys, "classify", text)
        assert code == 0
        assert json.loads(out)["link"] == text

    def test_table_escapes_tab_or_line_break_in_a_link(self, capsys):
        code, out, _ = run(capsys, "classify", "M(0;\t5/2,\r\n 7/3)", "M(0; 2)",
                           "--format", "table")
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == 2  # one line per record
        assert rows[0].startswith("M(0;\\t5/2,\\r\\n 7/3)  M(0; 5/2, 7/3)  ")
        # the columns stay aligned
        assert len({len(line) for line in (header, *rows)}) == 1

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS)
    def test_table_escapes_every_line_boundary_in_a_link(self, capsys, char):
        code, out, _ = run(capsys, "classify", f"M(0; 5/{char}2, 7/3)", "M(0; 2)",
                           "--format", "table")
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == 2
        assert rows[0].startswith(f"M(0; 5/{OTHER_LINE_BREAKS[char]}2, 7/3)  M(0; 5/2, 7/3)  ")
        assert len({len(line) for line in (header, *rows)}) == 1


# Whitespace that the grammar's \s takes between tokens, and str.strip
# around a link: ASCII, and the non-ASCII that JSON escapes as \uXXXX.
GRAMMAR_SPACE = st.text(st.sampled_from(" \t\n\x0b\x85\xa0\u2028\u3000"), max_size=2)


@st.composite
def link_texts(draw):
    """Link expressions that the grammar accepts: signed e, each tangle an
    integer or a signed fraction, reduced or not, padded with whitespace."""
    def spaced(token):
        return draw(GRAMMAR_SPACE) + token + draw(GRAMMAR_SPACE)

    tangles = []
    for _ in range(draw(st.integers(1, 3))):
        alpha = draw(st.integers(2, 6))
        beta = draw(st.sampled_from([b for b in range(-7, 8) if b and gcd(alpha, b) == 1]))
        k = draw(st.sampled_from([1, 1, 2, -1]))
        num, den = k * alpha * (-1 if beta < 0 else 1), k * abs(beta)
        if den == 1 and draw(st.booleans()):
            tangles.append(spaced(f"{num}"))
        else:
            tangles.append(spaced(f"{num}") + "/" + spaced(f"{den:+d}" if draw(st.booleans())
                                                         else f"{den}"))
    e = draw(st.integers(-4, 5))
    return (draw(GRAMMAR_SPACE) + "M" + spaced("(") + spaced(f"{e}") + ";"
            + ",".join(tangles) + ")" + draw(GRAMMAR_SPACE))


# --verify, --explain and --timing in every combination.
RECORD_FLAGS = [(v, x, t) for v in (False, True) for x in (False, True) for t in (False, True)]


class TestJsonlLines:
    """Each jsonl line is ``json.dumps(record)`` and a newline, byte for byte."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(texts=st.lists(link_texts(), min_size=1, max_size=3),
           flags=st.sampled_from(RECORD_FLAGS))
    @example(texts=["M(1; 3/2, 3)", "\u3000M(0;\x852,\u2028-2)\x85"],
             flags=(True, True, True))  # two DetZero records
    @example(texts=["M(1; 2, 2, 2)", "M(0; 5/2, 7/3)"], flags=(True, False, False))
    def test_every_line_is_json_dumps_of_its_record(self, capsys, texts, flags):
        with_verify, with_explain, with_timing = flags
        code, out, _ = run(capsys, "classify", *texts, *["--verify"] * with_verify,
                           *["--explain"] * with_explain, *["--timing"] * with_timing)
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert len(lines) == len(texts)
        for text, line in zip(texts, lines):
            link = parse_link(text.strip())
            triple = (text.strip(), montesinos.format_link(canonical_form(link)), link)
            record = cli._build_record((triple, flags))
            assert list(record) == (cli._RECORD_FIELDS + ["ms"] * with_timing
                                    + ["explain"] * with_explain)
            assert cli._jsonl_line(record) == json.dumps(record) + "\n"
            # The printed line holds the same record, bar the clock.
            printed = json.loads(line)
            assert line == json.dumps(printed) + "\n"
            if with_timing:
                record["ms"] = printed["ms"]
            assert printed == record

    def test_one_write_per_line(self, monkeypatch):
        # jsonl and tsv alike: one write per record, and one for the tsv header.
        class Writes:
            def __init__(self):
                self.calls = []

            def write(self, text):
                self.calls.append(text)

        for fmt in ("jsonl", "tsv"):
            out = Writes()
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["enumerate", "--p", "2", "--alpha-max", "3", "--e-min", "0",
                         "--e-max", "1", "--format", fmt]) == 0
            assert all(line.count("\n") == 1 and line.endswith("\n") for line in out.calls)
            if fmt == "jsonl":
                assert len(out.calls) == 2 * 6
                assert all(line.endswith("}\n") for line in out.calls)
            else:
                assert len(out.calls) == 1 + 2 * 6
                assert out.calls[0] == "\t".join(cli._RECORD_FIELDS) + "\n"
                assert all(line.count("\t") == len(cli._RECORD_FIELDS) - 1
                           for line in out.calls)

    def test_enum_fields_are_plain_str(self):
        # Python 3.12 changed Enum.__format__ for str-mixin enums such as
        # Status: a record holds each member's value as a plain str, so no
        # line depends on how the running Python formats the member itself.
        for link in enumerate_family(3, 4, -3, 4, p_min=3):
            text = montesinos.format_link(link)
            verdict, branch = classify(link), verify(link).branch
            for with_verify in (False, True):
                record = cli._build_record(((text, text, link), (with_verify, False, False)))
                members = {"status": verdict.status, "reason": verdict.reason,
                           "evidence": branch if with_verify else None}
                for field, member in members.items():
                    if member is None:
                        assert record[field] is None
                    else:
                        assert type(record[field]) is str and record[field] == member.value

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_epsilon_field_matches_the_fraction_reference(self, capsys, rng, fmt):
        links = random_raw_links(rng, 300)
        assert set().union(*map(epsilon_cases, links)) == EPSILON_CASES
        code, out, _ = run(capsys, "classify", *map(montesinos.format_link, links),
                           "--format", fmt)
        assert code == 0
        if fmt == "jsonl":
            fields = [json.loads(line)["epsilon"] for line in out.splitlines()]
        else:
            header, *rows = (line.split("\t") for line in out.splitlines())
            fields = [row[header.index("epsilon")] for row in rows]
        assert fields == [epsilon_text_by_fraction(link) for link in links]


ENUMERATE_ARGS = {"--p": "2", "--alpha-max": "3", "--e-min": "0", "--e-max": "0"}


def enumerate_argv(option, value):
    args = dict(ENUMERATE_ARGS, **{option: value})
    if option == "--p-max":
        del args["--p"]
    return ["enumerate", *(part for pair in args.items() for part in pair)]


class TestIntegerOptions:
    """Every integer option takes the grammar's integer rule, [+-]?[0-9]+:
    argparse exits 2 naming the option on a value that int() alone would
    take."""

    @pytest.mark.parametrize("option", ["--p", "--p-max", "--alpha-max", "--e-min",
                                        "--e-max", "--jobs"])
    @pytest.mark.parametrize("value", ["\u0662", "\uff10", "2_0", " 3", "3 ", "-\u0663"],
                             ids=["arabic-indic", "fullwidth", "underscore", "leading-space",
                                  "trailing-space", "signed-arabic-indic"])
    def test_enumerate_option_rejects_what_int_also_takes(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(enumerate_argv(option, value))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}:" in captured.err and "ASCII digits" in captured.err

    def test_classify_jobs_rejects_a_fullwidth_digit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "M(0; 5/2, 7/3)", "--verify", "--jobs", "\uff12"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --jobs:" in captured.err

    @pytest.mark.parametrize("value", ["\uff14", "4_0", "+\u0664"])
    def test_embed_n_max_rejects_what_int_also_takes(self, tmp_path, capsys, value):
        path = tmp_path / "d4.graph"
        path.write_text(D4_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(path), "--all", "--n-max", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --n-max:" in captured.err

    @pytest.mark.parametrize("option,value", [("--e-min", "-3"), ("--e-max", "+0"),
                                              ("--alpha-max", "03"), ("--jobs", "+1")])
    def test_signed_and_padded_ascii_integers_are_taken(self, capsys, option, value):
        code, out, _ = run(capsys, *enumerate_argv(option, value))
        assert (code, out) == run(capsys, *enumerate_argv(option, str(int(value))))[:2]
        assert code == 0 and out


class TestEnumerate:
    def test_p3_alpha2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--alpha-max", "2",
                           "--e-min", "0", "--e-max", "2", "--verify")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["link"] for r in records] == \
            ["M(0; 2, 2, 2)", "M(1; 2, 2, 2)", "M(2; 2, 2, 2)"]
        # e = 2 reflects to the e = 1 case, so both middle and last are NotQA
        assert [r["status"] for r in records] == ["QA", "NotQA", "NotQA"]
        assert records[1]["evidence"] == "LatticeObstructed"

    def test_classify_only_makes_no_canonical_form_call(self, capsys, monkeypatch):
        # enumerate_family yields canonical forms, so each record's text is
        # its canonical text and nothing recomputes it.
        real = montesinos.canonical_form
        calls = []

        def counting_canonical_form(link):
            calls.append(link)
            return real(link)

        for module in (cli, classifier, montesinos):
            monkeypatch.setattr(module, "canonical_form", counting_canonical_form)
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--alpha-max", "4",
                           "--e-min", "-1", "--e-max", "1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) > 100
        assert all(r["canonical"] == r["link"] for r in records)
        assert calls == []

    def test_p1_always_qa(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "1", "--alpha-max", "3",
                           "--e-min", "0", "--e-max", "0")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        assert all(r["status"] == "QA" for r in records)

    def test_p2_contains_det_zero(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "2", "--alpha-max", "3",
                           "--e-min", "1", "--e-max", "1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        by_canonical = {r["canonical"]: r for r in records}
        target = by_canonical["M(1; 3, 3/2)"]
        assert target["status"] == "NotQA" and target["reason"] == "DetZero"

    def test_invalid_bounds_exit_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--p", "2", "--alpha-max", "1",
                           "--e-min", "0", "--e-max", "0")
        assert code == 2
        assert "alpha_max" in err

    def test_invalid_bounds_print_no_tsv_header(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "2", "--alpha-max", "3",
                           "--e-min", "1", "--e-max", "0", "--format", "tsv")
        assert code == 2
        assert out == ""

    def test_formats_each_link_once(self, capsys, monkeypatch):
        # The family yields canonical forms, so the canonical field reuses
        # the link's text instead of formatting the link a second time.
        real = cli.format_link
        calls = []

        def counting_format(link):
            calls.append(link)
            return real(link)

        monkeypatch.setattr(cli, "format_link", counting_format)
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--alpha-max", "4",
                           "--e-min", "-3", "--e-max", "4")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 280
        assert all(r["canonical"] == r["link"] for r in records)
        assert len(calls) == len(records)

    def test_reads_each_scaled_epsilon_once(self, capsys, monkeypatch):
        # A classify-only record reads N and A of its link once, in classify.
        real = montesinos._scaled_epsilon
        calls = []

        def counting(link):
            calls.append(link)
            return real(link)

        for module in (classifier, montesinos, plumbing):
            monkeypatch.setattr(module, "_scaled_epsilon", counting)
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--alpha-max", "4",
                           "--e-min", "-3", "--e-max", "4")
        assert code == 0
        assert len(out.splitlines()) == len(calls) == 280

    def test_derives_each_tangle_pair_once(self, capsys, monkeypatch):
        # The family walk writes each distinct tangle's pair once, from the
        # integers of its range, with no reduction and no Fraction; every
        # link shares those pair objects, and a classify-only record reads
        # every alpha and beta from its link's pairs.
        calls = []

        def counting(real):
            def reduce(*args):
                calls.append(args)
                return real(*args)
            return reduce

        for name in ("_tangle_pair", "_reduced_pair"):
            monkeypatch.setattr(montesinos, name, counting(getattr(montesinos, name)))
        links = []

        def recording_family(*args, **kwargs):
            for link in enumerate_family(*args, **kwargs):
                links.append(link)
                yield link

        monkeypatch.setattr(cli, "enumerate_family", recording_family)
        made = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--alpha-max", "4",
                           "--e-min", "-3", "--e-max", "4")
        monkeypatch.undo()
        assert code == 0
        assert len(out.splitlines()) == len(links) == 280
        assert calls == [] and made == []
        # the tangles of alpha <= 4: 2, 3, 3/2, 4, 4/3
        assert len({id(pair) for link in links for pair in link.pairs}) == 5

    def test_bulk_family_object_budget(self, capsys, monkeypatch):
        # A classify-only record builds no Fraction and quotes one JSON
        # string, its link text, which serves as canonical too.  The walk
        # sorts its 17 distinct tangles as integer pairs and builds none.
        made = Counter()
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made[sys._getframe(1).f_globals["__name__"]] += 1
            return real_new(cls, *args, **kwargs)

        real_quote = cli._quote
        quotes = []

        def counting_quote(text):
            quotes.append(text)
            return real_quote(text)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(cli, "_quote", counting_quote)
        code, out, _ = run(capsys, *TestDeterminism.BULK_ARGS)
        assert code == 0
        records = out.count("\n")
        assert records == 38760
        assert made == {}
        assert len(quotes) == records

    def test_round_trip_of_printed_canonical(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--p-max", "2", "--alpha-max", "4",
                        "--e-min", "-1", "--e-max", "2")
        for line in out.splitlines():
            record = json.loads(line)
            reparsed = parse_link(record["canonical"])
            assert canonical_form(reparsed) == reparsed


class TestDeterminism:
    ARGS = ("enumerate", "--p", "3", "--alpha-max", "2",
            "--e-min", "-1", "--e-max", "2", "--verify", "--format", "tsv")

    def test_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_identical_across_worker_counts(self, capsys):
        _, one, _ = run(capsys, *self.ARGS, "--jobs", "1")
        _, two, _ = run(capsys, *self.ARGS, "--jobs", "2")
        assert one == two

    def test_timing_is_opt_in(self, capsys):
        _, out, _ = run(capsys, "classify", "M(0; 2)", "--timing")
        assert "ms" in json.loads(out)
        _, out, _ = run(capsys, "classify", "M(0; 2)")
        assert "ms" not in json.loads(out)

    # sha256 of the classify-only output of the acceptance family, taken at
    # commit 860c7a6, before the classify path compared tangles as integers.
    FAMILY_ARGS = ("enumerate", "--p", "3", "--alpha-max", "4", "--e-min", "-3", "--e-max", "4")
    FAMILY_DIGESTS = {
        "jsonl": "b24be61ef6bffe2a2a0702ffca779d2efcaf31c61818c434ff3d000133a8f991",
        "tsv": "ec8e73a324c69368811113f2251fe8747dfc071625771d694aacf2423e334ce2",
    }

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_family_records_are_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, *self.FAMILY_ARGS, "--format", fmt)
        assert code == 0
        assert len(out.splitlines()) == 280 + (fmt == "tsv")
        assert hashlib.sha256(out.encode()).hexdigest() == self.FAMILY_DIGESTS[fmt]

    # sha256 of the classify-only output of p = 4, alpha <= 7, e in [-2, 5],
    # 38,760 records, taken at commit c555bb5, before each link derived its
    # tangles' integer pairs once.
    BULK_ARGS = ("enumerate", "--p", "4", "--alpha-max", "7", "--e-min", "-2", "--e-max", "5")
    BULK_DIGESTS = {
        "jsonl": "0b1ff9c326cb2b594a193ae66544a49af8eb83808d3495cfe4687729b83d60bd",
        "tsv": "88a76e2f692e068e59ef64fb66526a68d66cde4d30fdf20fb1d2aebe9babe723",
    }

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_bulk_family_records_are_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, *self.BULK_ARGS, "--format", fmt)
        assert code == 0
        assert len(out.splitlines()) == 38760 + (fmt == "tsv")
        assert hashlib.sha256(out.encode()).hexdigest() == self.BULK_DIGESTS[fmt]

    # sha256 of the verified, explained jsonl of the same family, taken at
    # commit a0dc7a5, before the verify set-up (sign test, legs, critical
    # primes) ran on integers.
    VERIFIED_DIGEST = "8ef1f3f1a632329396f75dc04cd2f0630220d542e1b0220a581f8d6e75304015"

    def test_verified_family_explain_is_pinned(self, capsys):
        code, out, _ = run(capsys, *self.FAMILY_ARGS, "--verify", "--explain")
        assert code == 0
        assert len(out.splitlines()) == 280
        assert hashlib.sha256(out.encode()).hexdigest() == self.VERIFIED_DIGEST

    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        # One parser serves every call of main; each call starts from the
        # defaults, whatever subcommand and flags the call before it had.
        assert cli._build_parser() is cli._build_parser()
        path = tmp_path / "v4.graph"
        path.write_text("central: -4\n")
        code, out, _ = run(capsys, "embed", str(path), "--all", "--n-max", "2")
        assert (code, out) == (0, "embedding n=1 index=1 surjective=false\n2\n\ntotal: 1\n")
        code, out, _ = run(capsys, "embed", str(path))
        assert (code, out) == (0, "NotObstructed n=4\n1\n1\n1\n1\n")
        code, out, _ = run(capsys, "classify", "M(1; 3/2, 3)", "--verify", "--timing",
                           "--format", "tsv")
        assert code == 0 and out.startswith("link\t")
        code, out, _ = run(capsys, "classify", "M(1; 3/2, 3)")
        record = json.loads(out)
        assert record["evidence"] is None and "ms" not in record
        code, out, _ = run(capsys, "enumerate", "--p", "2", "--alpha-max", "2",
                           "--e-min", "0", "--e-max", "0")
        assert code == 0 and [json.loads(line)["p"] for line in out.splitlines()] == [2]
        code, out, _ = run(capsys, "enumerate", "--p-max", "2", "--alpha-max", "2",
                           "--e-min", "0", "--e-max", "0")
        assert code == 0 and [json.loads(line)["p"] for line in out.splitlines()] == [1, 2]


class TestGraphCommands:
    def test_laufer_e8(self, tmp_path, capsys):
        path = tmp_path / "e8.graph"
        path.write_text(E8_TEXT)
        code, out, _ = run(capsys, "laufer", str(path))
        assert code == 0
        assert "verdict: Rational" in out
        assert "witness: none" in out

    def test_laufer_237(self, tmp_path, capsys):
        path = tmp_path / "237.graph"
        path.write_text(SIGMA_237_TEXT)
        code, out, _ = run(capsys, "laufer", str(path))
        assert code == 0
        assert "verdict: NotRational" in out
        assert "steps: 0" in out
        assert "witness: 0 (central)" in out

    def test_laufer_malformed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nonsense.graph"
        path.write_text("central: q\n")
        code, _, err = run(capsys, "laufer", str(path))
        assert code == 2
        assert "non-integer" in err

    def test_laufer_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "laufer", "/no/such/file.graph")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("argv", [["laufer"], ["embed"], ["embed", "--all"]])
    def test_undecodable_file_is_named_and_exits_2(self, tmp_path, capsys, argv):
        # A UTF-16 byte order mark does not decode as UTF-8; the reason is
        # reported with the file's path, as an unreadable file's is.
        path = tmp_path / "utf16.graph"
        path.write_bytes(b"\xff\xfec\x00e\x00n\x00")
        with pytest.raises(UnicodeDecodeError) as exc:
            path.read_text()
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read graph file {str(path)!r}: {exc.value}\n"

    def test_embed_d4_obstructed(self, tmp_path, capsys):
        path = tmp_path / "d4.graph"
        path.write_text(D4_TEXT)
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        assert out.strip() == "Obstructed"

    def test_embed_first_surjective_flag_is_gone(self, tmp_path, capsys):
        path = tmp_path / "d4.graph"
        path.write_text(D4_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(path), "--first-surjective"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_embed_single_vertex_witness(self, tmp_path, capsys):
        path = tmp_path / "v4.graph"
        path.write_text("central: -4\n")
        code, out, _ = run(capsys, "embed", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "NotObstructed n=4"
        assert lines[1:] == ["1", "1", "1", "1"]

    def test_embed_witness_follows_the_leg_order(self, tmp_path, capsys):
        # One star typed in two leg orders: the same rank, and each witness
        # fits the form of its own file.
        heads = set()
        for name, text in [("a", "central: -3\nleg: -2 -2\nleg: -3\nleg: -4\n"),
                           ("b", "central: -3\nleg: -4\nleg: -2 -2\nleg: -3\n")]:
            path = tmp_path / f"{name}.graph"
            path.write_text(text)
            code, out, _ = run(capsys, "embed", str(path))
            assert code == 0
            head, *rows = out.splitlines()
            heads.add(head)
            witness = tuple(tuple(map(int, row.split())) for row in rows)
            assert gram_matches(witness, adjacency_matrix(parse_graph(text)))
            assert transpose_surjective(witness)
        assert heads == {"NotObstructed n=8"}

    def test_embed_n_max_without_all_exits_2(self, tmp_path, capsys):
        # A witness exists at n = 4, so a search stopped at 3 would report
        # Obstructed falsely.
        path = tmp_path / "v4.graph"
        path.write_text("central: -4\n")
        code, out, err = run(capsys, "embed", str(path), "--n-max", "3")
        assert code == 2
        assert out == ""
        assert "--n-max" in err and "--all" in err

    def test_embed_all_n_max_bounds_the_listing(self, tmp_path, capsys):
        path = tmp_path / "v4.graph"
        path.write_text("central: -4\n")
        code, out, _ = run(capsys, "embed", str(path), "--all", "--n-max", "3")
        assert code == 0
        assert out == "embedding n=1 index=1 surjective=false\n2\n\ntotal: 1\n"
        code, out, _ = run(capsys, "embed", str(path), "--all", "--n-max", "4")
        assert code == 0
        assert out.endswith("embedding n=4 index=2 surjective=true\n"
                            "1\n1\n1\n1\n\ntotal: 2\n")

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_embed_all_n_max_below_one_exits_2(self, tmp_path, capsys, n_max):
        path = tmp_path / "d4.graph"
        path.write_text(D4_TEXT)
        code, out, err = run(capsys, "embed", str(path), "--all", "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert "--n-max" in err

    def test_embed_all_lists_embeddings(self, tmp_path, capsys):
        path = tmp_path / "v2.graph"
        path.write_text("central: -2\n")
        code, out, _ = run(capsys, "embed", str(path), "--all")
        assert code == 0
        assert "embedding n=2 index=1 surjective=true" in out
        assert "total: 1" in out

    def test_embed_all_not_definite_exits_3(self, tmp_path, capsys):
        # n_max below k: the guard is read before the empty rank range.  An
        # indefinite and a positive graph are checked with the other graph
        # commands in test_graph_commands_share_one_definiteness_error.
        path = tmp_path / "bad.graph"
        path.write_text("central: 0\nleg: -2\n")
        code, out, err = run(capsys, "embed", str(path), "--all", "--n-max", "1")
        assert code == 3
        assert out == ""
        assert "negative definite" in err

    GRAPH_COMMANDS = [("laufer",), ("embed",), ("embed", "--all")]

    def test_graph_commands_share_one_definiteness_error(self, tmp_path, capsys):
        # Every graph command reads the graph's one guard, so an indefinite
        # graph and a positive one get the same exit code and message.
        path = tmp_path / "bad.graph"
        errors = set()
        for text in (INDEFINITE_TEXT, "central: 1\n"):
            path.write_text(text)
            for command in self.GRAPH_COMMANDS:
                code, out, err = run(capsys, command[0], str(path), *command[1:])
                assert (code, out) == (3, ""), (text, command)
                errors.add(err)
        assert errors == {"error: the plumbing is not negative definite\n"}


def test_verify_guard_failure_exits_4_naming_the_link(capsys, monkeypatch):
    # eps < 0 makes the oriented side's plumbing negative definite, so a
    # side that fails verify's guard is a bug (exit 4), not a bad graph (3).
    def not_definite(graph):
        raise NotNegativeDefiniteError("the plumbing is not negative definite")

    monkeypatch.setattr(plumbing.PlumbingGraph, "definite_form", property(not_definite))
    code, out, err = run(capsys, "classify", "--verify", "M(0; 5/2, 7/3)")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "M(0; 5/2, 7/3)" in err


class TestDeepStars:
    """A search nests one generator per vertex and one frame per coordinate,
    so a long chain needs more than Python's default recursion limit: the
    search raises the limit up to ``lattice._MAX_RECURSION`` and refuses a
    tree that needs more, with exit 4."""

    def test_a_search_past_the_cap_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(lattice, "_MAX_RECURSION", 1000)
        qa_lattice_obstruction.cache_clear()
        code, out, err = run(capsys, "classify", "M(0; 61, 2)", "--verify")
        assert (code, out) == (4, "")
        assert err.startswith("internal error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["classify", "embed"])
    def test_a_502_vertex_chain_is_searched(self, tmp_path, command):
        # M(0; 501, 2), whose plumbing is a chain of 502 vertices (k + N =
        # 1,506 frames), and a graph file of a chain of 501.
        path = tmp_path / "chain.graph"
        path.write_text("central: -2\nleg:" + " -2" * 500 + "\n")
        argv = ((command, "M(0; 501, 2)", "--verify") if command == "classify"
                else (command, str(path)))
        proc = cli_process(*argv)
        try:
            out, err = proc.communicate(timeout=600)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (0, b"")
        if command == "classify":
            assert json.loads(out)["evidence"] == "PositiveCheck"
        else:
            assert out.startswith(b"NotObstructed n=502\n")

    def test_laufer_on_a_1002_vertex_chain(self, tmp_path, capsys):
        # The plumbing of M(0; 1001, 2).  The guard is linear in the chain,
        # so the command runs in a fraction of a second; its stdout is the
        # one the dense guard printed, pinned by sha256.
        path = tmp_path / "chain.graph"
        path.write_text("central: -2\nleg:" + " -2" * 1000 + "\nleg: -2\n")
        code, out, err = run(capsys, "laufer", str(path))
        assert (code, err) == (0, "")
        assert out == ("verdict: Rational\nsteps: 0\ncycle: " + " ".join(["1"] * 1002)
                       + "\nwitness: none\n")
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "05019684dadb5c540a2fe3b38eb159f8b417d87afeb3f647b9a7a52111dc7ed1"


def order_free(out):
    """One ``embed --all`` output with its blocks' ``index=`` removed and
    the blocks sorted, then its total line: the same text for every order
    in which the search lists the same embeddings and flags."""
    *blocks, total = out.split("\n\n")
    return "\n\n".join(sorted(re.sub(r" index=\d+", "", block) for block in blocks)
                       + [total])


class TestEmbedAll:
    """``embed --all`` prints the label ``all_embeddings`` reads off the
    tree's bases mod the critical primes of det q (the Lemma of
    ``lattice._OrderlyTree``), and runs ``transpose_surjective`` on no
    embedding.  It prints the embeddings in the search's walk order."""

    # sha256 of the concatenated ``embed --all`` outputs of GRAPHS, in walk
    # order.
    DIGEST = "8ac0357e8ae66eab572cdb2616e60a69804e474e9391ec45e92b320ef1b35d7a"
    # sha256 of the concatenated ``order_free`` texts of the same outputs,
    # taken when each rank was listed in turn and every listed embedding
    # was still tested: walk order lists the same embeddings and flags.
    ORDER_FREE_DIGEST = "bc674d681c42adb40488a2953205a4d584aa853d3b482ed67c5dd5fc9367b241"

    # The distinct oriented graphs of p=2, alpha<=5 and p=3, alpha<=3,
    # e in [-2,3], with zero determinant links left out.
    GRAPHS = list(dict.fromkeys(
        oriented_graph(link)[1]
        for p, alpha_max in ((2, 5), (3, 3))
        for link in enumerate_family(p, alpha_max, -2, 3, p_min=p)
        if determinant(link)))

    def test_flags_are_the_test_and_the_output_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        digest, order_free_digest = hashlib.sha256(), hashlib.sha256()
        flags = {}
        for graph in self.GRAPHS:
            path.write_text(format_graph(graph))
            code, out, _ = run(capsys, "embed", str(path), "--all")
            assert code == 0
            digest.update(out.encode())
            order_free_digest.update(order_free(out).encode())
            critical = bool(_critical_primes(graph.definite_form.det))
            for index, block in enumerate(out.split("\n\n")[:-1], 1):
                head, *lines = block.splitlines()
                rows = tuple(tuple(map(int, line.split())) for line in lines)
                rank, number, flag = head.split()[1:]
                assert (rank, number) == (f"n={len(rows)}", f"index={index}")
                assert flag == f"surjective={str(transpose_surjective(rows)).lower()}"
                flags[critical, flag] = flags.get((critical, flag), 0) + 1
        assert len(self.GRAPHS) == 296
        assert sum(flags.values()) == 1158
        # both kinds of graph occur, and a false flag only under a critical prime
        assert flags[False, "surjective=true"] and flags[True, "surjective=true"]
        assert flags[True, "surjective=false"] == 160
        assert (False, "surjective=false") not in flags
        assert order_free_digest.hexdigest() == self.ORDER_FREE_DIGEST
        assert digest.hexdigest() == self.DIGEST

    def test_no_graph_runs_a_surjectivity_test(self, tmp_path, capsys, monkeypatch):
        def no_test(*args):
            raise AssertionError("a surjectivity test ran")

        assert not {"transpose_surjective", "_critical_primes"} & set(vars(cli))
        monkeypatch.setattr(lattice, "transpose_surjective", no_test)
        path = tmp_path / "g.graph"
        for text, flags in ((D4_TEXT, "false"),  # det 4: 2 is critical
                            ("central: -4\nleg: -2\nleg: -3\n", "true")):  # det -19
            path.write_text(text)
            code, out, _ = run(capsys, "embed", str(path), "--all")
            assert code == 0
            assert out.count(f"surjective={flags}") == 3 and out.count("surjective=") == 3
            assert out.endswith("total: 3\n")

    @pytest.mark.slow
    def test_memory_stays_flat_on_a_large_star(self, tmp_path):
        # The plumbing of M(-3; 9/4, 38/25, 19/7, 5/2): 409,610 embeddings.
        # Holding each leaf until the walk ended took a 247 MB peak here;
        # streaming them holds none.  The process reports its own peak RSS
        # as VmHWM, the high-water mark of its own address space: Linux's
        # RUSAGE_SELF ru_maxrss also counts the forking process's RSS at
        # exec, and this test's process is larger than the bound.
        path = tmp_path / "star.graph"
        path.write_text("central: -7\nleg: -2 -5\nleg: -3 -13\nleg: -2 -3 -2 -3\n"
                        "leg: -2 -3\n")
        proc = cli_process("embed", str(path), "--all", code=(
            "import sys; from qamont.cli import main; code = main(); sys.stdout.flush(); "
            "print(*[line for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')], file=sys.stderr, end=''); "
            "sys.exit(code)"))
        try:
            tail = b""
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                tail = (tail + chunk)[-64:]
            _, err = proc.communicate(timeout=600)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert tail.endswith(b"\n\ntotal: 409610\n")
        name, peak, unit = err.split()
        assert (name, unit) == (b"VmHWM:", b"kB") and int(peak) < 40 * 1024

    def test_one_elimination_per_graph(self, tmp_path, capsys, monkeypatch):
        # Each command reads the graph's guard once: one tree elimination
        # gives det q, and laufer_run and all_embeddings take its Definite q
        # as it is.
        calls = []

        def counting_tree(graph, eliminate=plumbing.tree_det):
            calls.append(graph.vertex_count)
            return eliminate(graph)

        monkeypatch.setattr(plumbing, "tree_det", counting_tree)
        path = tmp_path / "g.graph"
        for graph in self.GRAPHS[::7]:
            path.write_text(format_graph(graph))
            for command, *extra in (("laufer",), ("embed",), ("embed", "--all"),
                                    ("embed", "--all", "--n-max", "5")):
                calls.clear()
                code, _, _ = run(capsys, command, str(path), *extra)
                assert code == 0
                assert calls == [graph.vertex_count], (graph, command, extra)


def cli_process(*argv, code="import sys; from qamont.cli import main; sys.exit(main())"):
    """The CLI, or ``code``, in a fresh interpreter on this checkout's
    ``src``, with stdout and stderr piped."""
    src = str(Path(qamont.__file__).resolve().parent.parent)
    return subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))


class TestClosedOutput:
    """A reader that closes standard output early (``| head -1``) ends the
    command with exit code 1 and no traceback, with or without a pool, and
    while ``embed --all`` is still searching."""

    def first_line_then_close(self, *argv):
        proc = cli_process(*argv)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err
        return first

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--p", "4", "--alpha-max", "7", "--e-min", "-2", "--e-max", "5"),
        ("enumerate", "--p", "3", "--alpha-max", "5", "--e-min", "-3", "--e-max", "6",
         "--verify", "--jobs", "2"),
    ], ids=["classify-only", "verify-pool"])
    def test_closed_stdout_exits_1(self, argv):
        first = self.first_line_then_close(*argv)
        assert json.loads(first)["link"].startswith("M(")

    def test_closed_stdout_ends_embed_all(self, tmp_path):
        # The plumbing of M(-2; 38/25, 5/2, 7/3): 7,247 embeddings, far more
        # output than a pipe holds.
        path = tmp_path / "star.graph"
        path.write_text("central: -5\nleg: -3 -13\nleg: -2 -3\nleg: -2 -4\n")
        first = self.first_line_then_close("embed", str(path), "--all")
        assert first.startswith(b"embedding n=") and b" index=1 " in first


def test_importing_the_cli_loads_no_process_pool():
    # The pool's modules are imported only when a pool is started.
    src = str(Path(qamont.__file__).resolve().parent.parent)
    code = ("import sys, qamont.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out == "[]\n"
