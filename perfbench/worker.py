"""One pass of one workload, in a fresh interpreter.

Usage (started by run.py, not by hand):

    python3 perfbench/worker.py --workload NAME --seed N --pass I
        [--setup-only] [--trace] [--smoke]

Protocol on standard output: the line ``ready <mean probe seconds>`` once
set-up is done (the parent times set-up up to that line), then one JSON
line with the pass result.  Set-up is the interpreter start,
``import qamont`` and making the inputs.  The measured phase runs the
requests one after another (a closed loop with one client); the
correctness gates run after it, untimed.  The process stays on one vCPU,
and a ``HostSpeed`` probe runs through set-up and through the measured
phase (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed, pin_to_one_cpu

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "_out"


def measure(workload, items, tracer) -> tuple[list, list[float], list[float]]:
    """Run the requests in turn; return outcomes, start times and durations."""
    outcomes = []
    starts = []
    times = []
    for index, item in enumerate(items):
        span = tracer.begin_item(index) if tracer else None
        t0 = time.perf_counter()
        try:
            outcome = workload.run(item)
        except Exception as exc:  # a failed request is counted, not fatal
            outcome = exc
        starts.append(t0)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_item(span)
        outcomes.append(outcome)
    return outcomes, starts, times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    pin_to_one_cpu()
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        with HostSpeed() as setup_speed:
            # The program is imported here so that its import is timed.
            sys.path.insert(0, str(ROOT / "src"))
            import qamont
            from qamont.lattice import qa_lattice_obstruction
            from tracing import Tracer
            from workloads import WORKLOADS, load_refs

            workload = WORKLOADS[args.workload]
            items = workload.prepare(args.seed, args.pass_index, work_dir, args.smoke)
            refs = load_refs()
        print(f"ready {setup_speed.mean!r}", flush=True)
        if args.setup_only:
            return 0

        # Every pass starts cold, as one CLI call does.
        if qa_lattice_obstruction.cache_info().currsize != 0:
            raise RuntimeError("the lattice obstruction cache is not empty before timing")
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        with HostSpeed() as speed:
            outcomes, starts, times = measure(workload, items, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        units = failed = 0
        failures = []
        for item, outcome in zip(items, outcomes):
            if isinstance(outcome, Exception):
                count, bad = 1, [f"raised {outcome!r}"]
            else:
                count = max(1, workload.units(outcome))
                bad = workload.check(item, outcome, refs)
                if tracer:
                    tracer.add_output_bytes(workload.output_bytes(outcome))
            units += count
            if bad:
                failed += count
                failures.extend(bad)
        result = {"requests": len(items), "units": units, "failed": failed,
                  "failures": failures[:20], "item_start": starts, "item_s": times,
                  "probes": speed.samples, "peak_rss_mb": peak_rss_mb,
                  "qamont": qamont.__file__}
        if tracer:
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
            result["layers"] = tracer.metrics()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
