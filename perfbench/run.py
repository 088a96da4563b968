"""The qamont benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.  Every pass of a workload runs in a fresh
interpreter (``worker.py``), so each starts with an empty lattice cache and
its own peak RSS, as a CLI call does.

With ``--trace 0`` the run measures passes, in pairs, until at least
``--seconds`` of measured time have passed, and prints the end-to-end
metrics.  With ``--trace 1`` it runs the first pass twice, untraced and
then traced, and prints the per-layer metrics of the traced pass with the
tracing overhead.  Either way the correctness gates run on every request,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run context and
the per-pass details are written to ``perfbench/_out/``.

Exit code 0 means a result was printed; any other code means the run could
not be made (for example, no ``src/qamont`` next to this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import adjust, scale_intervals
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("verify-family", "enumerate-bulk", "embed-exhaustive")

E2E_UNITS = {
    "throughput_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_ONLY_SPAWNS = 5
RUN_LIMIT_S = 170.0


class RunError(Exception):
    """The run could not be made; no result is printed."""


def percentile(values: list[float], share: float) -> float:
    """Linear interpolation between closest ranks (inclusive)."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def spawn(args: argparse.Namespace, pass_index: int, deadline: float,
          setup_only: bool = False,
          trace: bool = False) -> tuple[tuple[float, float], dict | None]:
    """Run one worker; return its set-up (seconds, mean probe seconds) and
    its result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--pass", str(pass_index)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace + ["--smoke"] * args.smoke
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            if not line.startswith("ready "):
                raise RunError(f"worker gave no ready line: {line!r}")
            setup = (time.perf_counter() - start, float(line.split()[1]))
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError("worker ran past the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup, None
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["qamont"]).resolve().is_relative_to(ROOT / "src"):
        raise RunError(f"qamont was imported from {result['qamont']}, not this checkout")
    return setup, result


def scaled_items(result: dict) -> list[float]:
    """A pass's request times, each scaled to the reference host speed."""
    return scale_intervals(result["item_start"], result["item_s"], result["probes"])


def end_to_end(passes: list[dict], item_s: list[list[float]],
               setup_s: list[float]) -> dict[str, float]:
    """The end-to-end metrics from per-pass request times and set-up times."""
    items_ms = [t * 1000 for times in item_s for t in times]
    return {
        "throughput_per_s": sum(p["units"] for p in passes) / sum(map(sum, item_s)),
        "item_ms_p50": percentile(items_ms, 0.50),
        "item_ms_p95": percentile(items_ms, 0.95),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qamont").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "qamont" / "__init__.py").is_file():
        raise RunError(f"no qamont sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "commit": commit(),
               "source_sha256": source_digest(), "nproc": os.cpu_count(),
               "python": platform.python_version(), "loadavg_before": os.getloadavg()}
    setups = [spawn(args, 0, deadline, setup_only=True)[0] for _ in range(SETUP_ONLY_SPAWNS)]
    passes = []
    if args.trace:
        passes.append(spawn(args, 0, deadline)[1])
        passes.append(spawn(args, 0, deadline, trace=True)[1])
        untraced, traced = passes
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        traced_s = scaled_items(traced)
        factor = sum(traced_s) / sum(traced["item_s"])
        metrics = {name: value * factor if units[name] == "s" else value
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = sum(traced_s) / sum(scaled_items(untraced))
    else:
        measured = 0.0
        while len(passes) < 2 or len(passes) % 2 or measured < args.seconds:
            setup, result = spawn(args, len(passes), deadline)
            setups.append(setup)
            passes.append(result)
            measured += sum(result["item_s"])
        metrics = end_to_end(passes, [scaled_items(p) for p in passes],
                             [adjust(s, probe) for s, probe in setups])
        units = E2E_UNITS
        context["unscaled"] = end_to_end(passes, [p["item_s"] for p in passes],
                                         [s for s, _ in setups])
    context["loadavg_after"] = os.getloadavg()
    context["passes"] = len(passes)
    context["probe_mean_s"] = [statistics.fmean(s for _, s in p["probes"]) for p in passes]
    attempted = sum(p["units"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"context": context, "summary": summary,
                                  "setup_s": setups, "passes": passes}, indent=1))
    for p in passes:
        for failure in p["failures"]:
            print(f"gate failed: {failure}")
    print(f"context: {json.dumps(context)}")
    print(f"failed_ratio: {failed}/{attempted}")
    for name, entry in summary["metrics"].items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
