import json
import os

import pytest

from qamont import classifier, cli, plumbing
from qamont.cli import main
from qamont.errors import InternalError
from qamont.intmat import is_negative_definite_matrix
from qamont.lattice import qa_lattice_obstruction
from qamont.montesinos import canonical_form, parse_link
from qamont.plumbing import adjacency_matrix

E8_TEXT = "central: -2\nleg: -2\nleg: -2 -2\nleg: -2 -2 -2 -2\n"
SIGMA_237_TEXT = "central: -1\nleg: -2\nleg: -3\nleg: -7\n"
D4_TEXT = "central: -2\nleg: -2\nleg: -2\nleg: -2\n"
INDEFINITE_TEXT = "central: 0\nleg: -2\nleg: -2\nleg: -2\nleg: -2\n"


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
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        code, out, _ = run(capsys, "classify", "M(0; 2)", "M(1; 2, 2, 2)",
                           "--verify", "--jobs", "2")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_jobs_capped_at_record_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        code, out, _ = run(capsys, "classify", "M(0; 2)", "--verify", "--jobs", "2")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_classify_only_records_start_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
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
        monkeypatch.setattr(cli, "ProcessPoolExecutor", StubPool)
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

    def test_laufer_indefinite_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text(INDEFINITE_TEXT)
        code, _, err = run(capsys, "laufer", str(path))
        assert code == 3
        assert "negative definite" in err

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

    def test_embed_all_lists_embeddings(self, tmp_path, capsys):
        path = tmp_path / "v2.graph"
        path.write_text("central: -2\n")
        code, out, _ = run(capsys, "embed", str(path), "--all")
        assert code == 0
        assert "embedding n=2 index=1 surjective=true" in out
        assert "total: 1" in out

    def test_embed_indefinite_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text(INDEFINITE_TEXT)
        code, _, err = run(capsys, "embed", str(path))
        assert code == 3

    @pytest.mark.parametrize("text,extra", [
        ("central: 1\n", ()),  # the rank range is empty: norm sum below k
        ("central: 0\nleg: -2\n", ("--n-max", "1")),  # n_max below k
        (INDEFINITE_TEXT, ()),
    ], ids=["positive", "below-k", "indefinite"])
    def test_embed_all_not_definite_exits_3(self, tmp_path, capsys, text, extra):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        code, out, err = run(capsys, "embed", str(path), "--all", *extra)
        assert code == 3
        assert out == ""
        assert "negative definite" in err

    @pytest.mark.parametrize("extra", [(), ("--all",)], ids=["embed", "embed-all"])
    def test_definiteness_disagreement_exits_4(self, tmp_path, capsys, monkeypatch,
                                               extra):
        path = tmp_path / "d4.graph"
        path.write_text(D4_TEXT)
        monkeypatch.setattr(
            plumbing, "negative_definite_by_sign",
            lambda graph: not is_negative_definite_matrix(adjacency_matrix(graph)))
        qa_lattice_obstruction.cache_clear()  # force the definiteness check
        code, out, err = run(capsys, "embed", str(path), *extra)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:") and "disagree" in err
