"""The benchmark's workloads still run against the package.

``bench/workloads.py`` is imported as it is, and each workload's warm-up items
go through its own run/check pair, so that a change dropping a name the
benchmark calls fails here rather than only in a benchmark run. The first
seed-1 ``oracle_cycle`` items go through that pair too: its checks hold the
exact cycle to the second law and, at low k_BT, to the closed-form work. So do
the first seed-1 ``phase_cli`` items: their checks count the rows of both
files and compare a repeated run byte for byte.
"""
import importlib.util
import itertools
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
WORKLOADS_PY = ROOT / "bench" / "workloads.py"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    module.load()
    return module


@pytest.mark.parametrize("name", NAMES)
def test_workload_warmup_items_pass_their_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    run, check = workload.bind(str(tmp_path))
    outcome = workloads.Outcome()
    for item in workload.warmup():
        check(item, run(item), outcome)
    assert outcome.failed_checks == {}


@pytest.mark.parametrize(
    "name,count", [("oracle_cycle", 48), ("phase_cli", 12), ("closed_form_scan", 120)]
)
def test_first_seed_one_items_pass_their_checks(workloads, name, count, tmp_path):
    workload = workloads.WORKLOADS[name]
    run, check = workload.bind(str(tmp_path))
    outcome = workloads.Outcome()
    for item in itertools.islice(workload.items(1), count):
        check(item, run(item), outcome)
    assert outcome.failed_checks == {}
