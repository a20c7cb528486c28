"""Summarize benchmark runs, or compare a parent's runs with a change's.

    python3 bench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds one file per run: the standard output of
``bench/run.py``. Runs are grouped by workload and by trace mode. For each
metric the table gives each side's median and quartiles and the spread, the
interquartile distance as a share of the median. With two directories it adds
the share of pairs (same workload and seed on both sides) that the change won
and a verdict:

- ``unresolved``: a side's spread exceeds the metric's bound, and not every
  change run beats every parent run;
- ``regressed``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the change won at least nine tenths of the pairs and the medians
  differ by more than the parent's interquartile distance;
- ``unchanged``: none of these.

Per-layer metrics have no bound, so they are never ``regressed`` or
``unresolved``. The host speed probe ``host.calib_ms`` of each untraced run is
listed as well, so that a drifting host shows next to the figures it affects.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CALIB = {"name": "host.calib_ms", "unit": "ms", "better": "lower"}


def load_runs(directory: str) -> dict[tuple[str, int], dict[int, dict[str, float]]]:
    """(workload, trace) -> seed -> metric values, from every run file in ``directory``."""
    runs: dict[tuple[str, int], dict[int, dict[str, float]]] = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        if len(lines) < 2:
            raise SystemExit(f"{name}: not a run output (needs a detail and a result line)")
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        values = {metric: entry["value"] for metric, entry in result["metrics"].items()}
        values[CALIB["name"]] = detail["host.calib_ms"]
        runs.setdefault((detail["workload"], detail["trace"]), {})[detail["seed"]] = values
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR over the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else (0.0 if q1 == q3 else float("inf"))
    return median, q1, q3, spread


def verdict(metric: dict, parent: list[float], change: list[float], pairs: list[tuple[float, float]]):
    lower = metric["better"] == "lower"
    p_med, p_q1, p_q3, p_spread = summary(parent)
    c_med, _, _, c_spread = summary(change)
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    bound = metric.get("bound")
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if bound is not None and max(p_spread, c_spread) > bound and not all_better:
        return share, "unresolved"
    worse = (c_med - p_med) if lower else (p_med - c_med)
    if bound is not None and p_med and worse / abs(p_med) > bound:
        return share, "regressed"
    if share >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1):
        return share, "better" if worse < 0 else "worse"
    return share, "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="directory of the parent's run outputs")
    parser.add_argument("change", nargs="?", help="directory of the change's run outputs")
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics_of = {0: spec["end_to_end"] + [CALIB], 1: spec["per_layer"]}
    parent = load_runs(args.parent)
    change = load_runs(args.change) if args.change else None

    header = f"{'workload':<17}{'metric':<46}{'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    if change is not None:
        header += f" {'median*':>12} {'spread*':>7} {'won':>5}  verdict"
    print(header)
    for (workload, trace), p_runs in sorted(parent.items()):
        c_runs = change.get((workload, trace), {}) if change is not None else {}
        for metric in metrics_of[trace]:
            name = metric["name"]
            p_values = [run[name] for run in p_runs.values() if name in run]
            if not p_values:
                continue
            median, q1, q3, spread = summary(p_values)
            bound = metric.get("bound")
            row = (
                f"{workload:<17}{name:<46}{len(p_values):>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                f" {spread:>7.3f} {bound if bound is not None else '-':>6}"
            )
            if change is not None:
                c_values = [run[name] for run in c_runs.values() if name in run]
                if c_values:
                    pairs = [(p_runs[s][name], c_runs[s][name]) for s in p_runs if s in c_runs]
                    share, word = verdict(metric, p_values, c_values, pairs)
                    c_median, _, _, c_spread = summary(c_values)
                    row += f" {c_median:>12.6g} {c_spread:>7.3f} {share:>5.2f}  {word}"
                else:
                    row += "  (no change runs)"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
