"""Tests of the benchmark itself: its contract file, its gates and a smoke run.

Run with ``python3 -m pytest perfbench/tests -q`` from the root of the
repository.  The smoke runs use tiny sub-families whose references are part
of the full ones, so they take a few seconds.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench_run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in LAYER_METRICS.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_names_are_plain():
    for name in list(run.E2E_UNITS) + list(LAYER_METRICS) + list(run.WORKLOAD_NAMES):
        assert NAME.fullmatch(name), name


def test_host_speed_scales_by_the_mean_probe():
    with hostspeed.HostSpeed() as speed:
        time.sleep(3 * hostspeed.INTERVAL_S)
    assert len(speed.samples) >= 3 and speed.mean > 0
    assert hostspeed.adjust(2.0, 2 * hostspeed.REFERENCE_PROBE_S) == 1.0


def test_references_hold_the_published_counts():
    refs = workloads.load_refs()
    links = refs["verify_family"]["links"]
    branches = [entry["branch"] for entry in links.values()]
    assert len(links) == 280
    assert [branches.count(b) for b in ("PositiveCheck", "LatticeObstructed",
                                        "LauferNotLSpace", "DetZero")] == [252, 18, 6, 4]
    assert refs["enumerate_bulk"]["full"]["records"] == 38760
    assert refs["enumerate_bulk"]["full"]["sha256"].startswith("0b1ff9c326cb2b59")
    graphs = refs["embed_exhaustive"]["graphs"]
    p2 = [workloads.graph_key(g.central_weight, g.legs)
          for g in workloads.oriented_graphs(workloads.EMBED_FAMILIES[:1])]
    assert len(p2) == 243
    assert [sum(graphs[key][n][i] for key in p2 for n in graphs[key]) for i in (0, 1)] == [901, 826]


def test_paired_passes_reverse_or_rotate_the_tangle_order(tmp_path):
    first = workloads.prepare_verify(7, 0, tmp_path, smoke=True)
    assert first == workloads.prepare_verify(7, 0, tmp_path, smoke=True)
    second = dict(workloads.prepare_verify(7, 1, tmp_path, smoke=True))
    assert len(second) == len(first)

    def tangles(text):
        return workloads.to_standard_form(workloads.montesinos.parse_link(text)).tangles

    for key, text in first:
        order = tangles(text)
        partner = order[::-1] if order[::-1] != order else order[1:] + order[:1]
        assert tangles(second[key]) == partner


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gates_pass_on_real_output_and_trip_on_a_corrupted_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    refs = workloads.load_refs()
    items = workload.prepare(3, 0, tmp_path, smoke=True)
    outcomes = [workload.run(item) for item in items]
    assert all(workload.check(i, o, refs) == [] for i, o in zip(items, outcomes))

    bad = copy.deepcopy(refs)
    if name == "verify-family":
        entry = bad["verify_family"]["links"][items[0][0]]
        entry["branch"] = "LatticeObstructed" if entry["branch"] != "LatticeObstructed" \
            else "PositiveCheck"
    elif name == "enumerate-bulk":
        bad["enumerate_bulk"]["smoke"]["sha256"] = "0" * 64
    else:
        counts = bad["embed_exhaustive"]["graphs"][items[0][0]]
        counts[min(counts)][0] += 1
    assert workload.check(items[0], outcomes[0], bad) != []


@pytest.mark.parametrize("name,trace", [("verify-family", 0), ("verify-family", 1),
                                        ("enumerate-bulk", 0), ("enumerate-bulk", 1),
                                        ("embed-exhaustive", 0)])
def test_smoke_run_prints_every_metric(name, trace):
    done = bench_run(ROOT, "--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER_METRICS if trace else run.E2E_UNITS
    assert set(result["metrics"]) == set(expected)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and UNIT.fullmatch(entry["unit"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    elif name == "verify-family":
        assert result["metrics"]["lattice.share"]["value"] > 0.5
    else:
        lattice = [v["value"] for k, v in result["metrics"].items() if k.startswith("lattice.")]
        assert lattice and not any(lattice)


def _copy_checkout(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", "_out")
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def test_corrupted_reference_makes_the_run_fail(tmp_path):
    _copy_checkout(tmp_path, with_sources=True)
    path = tmp_path / "perfbench" / "refs" / "enumerate_bulk.json"
    refs = json.loads(path.read_text())
    refs["smoke"]["sha256"] = "f" * 64
    path.write_text(json.dumps(refs))
    done = bench_run(tmp_path, "--workload", "enumerate-bulk", "--seconds", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    done = bench_run(tmp_path, "--workload", "verify-family", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
