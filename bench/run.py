"""Benchmark entry point: one seeded run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` the run measures the
end-to-end metrics of BENCHMARK.json: a process runs the timed closed loop
for ``--seconds``, and set-up time is the median over it and SETUP_REPEATS
more processes that only set up. With ``--trace 1`` a process runs
a fixed, seed-determined item list once plainly and once with every layer
function wrapped, and reports the per-layer metrics of BENCHMARK.json.

Every output is checked outside the timed region. The last stdout line is the
result object; the line before it carries the details (samples, error rate,
failed checks, counters, host speed probe) that ``compare.py`` also reads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 2
#: Every process this run starts must end within this many seconds of its start.
BUDGET_S = 170


class BenchError(Exception):
    pass


def worker(role: str, args: argparse.Namespace) -> dict:
    timeout = args.deadline - time.monotonic()
    command = [
        sys.executable, WORKER, "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process did not end within the run's {BUDGET_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{role} process exited with code {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def end_to_end(args: argparse.Namespace, spec: dict) -> tuple[dict, dict, int, int]:
    setups = [worker("setup", args)["setup_s"] for _ in range(SETUP_REPEATS)]
    run = worker("measure", args)
    setups.append(run["setup_s"])
    latencies = run["latencies_s"]
    if len(latencies) < 2:
        raise BenchError(f"{len(latencies)} of {run['attempted']} items returned")
    values = {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {
        "items_per_s": len(latencies), "item_p50_ms": len(latencies),
        "item_p90_ms": len(latencies), "setup_s": len(setups), "peak_rss_mb": 1,
    }
    detail = {
        "samples": samples,
        "error_rate": run["failed"] / run["attempted"],
        "failed_checks": run["failed_checks"],
        "counters": run["counters"],
        "host.calib_ms": run["calib_ms"],
        "setup_s_runs": setups,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return metrics, detail, run["attempted"], run["failed"]


def per_layer(args: argparse.Namespace, spec: dict) -> tuple[dict, dict, int, int]:
    run = worker("trace", args)
    measured = run["metrics"]
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]
    }
    detail = {
        "error_rate": run["failed"] / run["attempted"],
        "failed_checks": run["failed_checks"],
        "host.calib_ms": measured["host.calib_ms"],
        "layers": measured,
    }
    return metrics, detail, run["attempted"], run["failed"]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join("src", "spinszilard", "__init__.py")):
        print("error: run from the repository root; src/spinszilard is missing", file=sys.stderr)
        return 2
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, detail, attempted, failed = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        count = detail.get("samples", {}).get(name)
        suffix = f"  (n={count})" if count else ""
        print(f"{args.workload:>16}  {name:<48} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    print(f"{args.workload:>16}  {'error_rate':<48} {detail['error_rate']:>14.6g}")
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps(detail))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
