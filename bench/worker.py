"""One benchmark process: set up, then measure or trace one workload.

    python3 bench/worker.py --role setup|measure|trace --workload NAME --seed N --seconds S

Run from the repository root. Prints one JSON object on stdout. ``run.py``
starts this script, so every measured process runs a single workload and
nothing else.
"""
from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402  (imports no part of the package under test)

WORK_DIR = os.path.join(ROOT, ".bench_work")
SPAN_DIR = os.path.join(ROOT, ".bench_out")
#: A timed run goes on past ``--seconds`` until this many items were attempted,
#: so that at least ten samples lie above the 90th percentile.
MIN_ITEMS = 100


def calib_ms() -> float:
    """Host-speed probe: a fixed pure-Python loop of 200k math.comb calls, median of 5."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for i in range(200_000):
            math.comb(40, i % 40)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def set_up(workload: workloads.Workload, seed: int, workdir: str):
    """Import the package, generate the seed's first inputs, warm up.

    Returns the workload's (run, check) pair, its item stream and the seconds taken.
    """
    start = time.perf_counter()
    workloads.load()
    items = workload.items(seed)
    first = list(itertools.islice(items, 1))
    run_check = workload.bind(workdir)
    for item in workload.warmup():
        run_item(run_check, item, workloads.Outcome())  # failures show in the timed items
    return run_check, itertools.chain(first, items), time.perf_counter() - start


def run_item(run_check, item, outcome: workloads.Outcome, call=None) -> tuple[float | None, bool]:
    """Time one item, through ``call`` if given, then check it outside the timed region.

    Returns the item's seconds (None when it raised) and whether it passed its checks.
    """
    run, check = run_check
    start = time.perf_counter()
    try:
        out = call(run, item) if call else run(item)
    except Exception as exc:  # a failing item is counted, not fatal
        outcome.fail(f"exception:{type(exc).__name__}")
        return None, False
    elapsed = time.perf_counter() - start
    before = sum(outcome.failed_checks.values())
    check(item, out, outcome)
    return elapsed, sum(outcome.failed_checks.values()) == before


def measure(workload, seed: int, seconds: float, workdir: str) -> dict:
    run_check, items, setup_s = set_up(workload, seed, workdir)
    calib_before = calib_ms()
    outcome = workloads.Outcome()
    latencies: list[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < MIN_ITEMS:
        elapsed, ok = run_item(run_check, next(items), outcome)
        attempted += 1
        failed += not ok
        if elapsed is not None:
            latencies.append(elapsed)
    return dict(
        setup_s=setup_s,
        attempted=attempted,
        failed=failed,
        latencies_s=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calib_ms=statistics.median([calib_before, calib_ms()]),
        failed_checks=outcome.failed_checks,
        counters=outcome.counters,
    )


def trace(workload, seed: int, workdir: str) -> dict:
    """Run a fixed item list untraced, then traced; per-layer metrics from the traced pass."""
    from tracing import LAYERS, Tracer  # imports numpy; the other roles time that import

    run_check, items, setup_s = set_up(workload, seed, workdir)
    fixed = list(itertools.islice(items, workload.trace_items))
    plain = [run_item(run_check, item, workloads.Outcome()) for item in fixed]

    tracer = Tracer()
    tracer.install({layer: importlib.import_module(f"spinszilard.{layer}") for layer in LAYERS})
    outcome = workloads.Outcome()
    traced = [run_item(run_check, item, outcome, tracer.item) for item in fixed]
    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write(os.path.join(SPAN_DIR, f"spans-{workload.name}.tsv"))

    both = [(p, t) for (p, _), (t, _) in zip(plain, traced) if p is not None and t is not None]
    metrics = tracer.metrics()
    metrics.update(outcome.counters)
    metrics["trace.overhead_ratio"] = sum(t for _, t in both) / sum(p for p, _ in both) if both else 0.0
    metrics["host.calib_ms"] = calib_ms()
    return dict(
        setup_s=setup_s,
        attempted=len(fixed),
        failed=sum(not ok for _, ok in traced),
        failed_checks=outcome.failed_checks,
        metrics=metrics,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        if args.role == "setup":
            result = dict(setup_s=set_up(workload, args.seed, workdir)[2])
        elif args.role == "measure":
            result = measure(workload, args.seed, args.seconds, workdir)
        else:
            result = trace(workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
