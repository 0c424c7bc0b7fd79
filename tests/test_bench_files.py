"""The committed before/after benchmark records, BENCH_<workload>.json.

Each file holds the `perfbench/run.py --save` records of one workload: the
runs of its parent commit (`baseline_commit`) and of the change measured
against it. `perfbench/compare.py` pairs untraced runs by seed, so every
untraced run of the change needs an untraced parent run on the same seed.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_bench_files_exist():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_pairs_its_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    workload = bench["workload"]
    assert workload in WORKLOADS
    assert path.name == f"BENCH_{workload}.json"
    runs = bench["runs"]
    assert all(run["workload"] == workload for run in runs)
    assert all(run["facts"]["seed"] == run["seed"] for run in runs)
    parent = {run["seed"] for run in runs if run["trace"] == 0
              and run["facts"]["commit"] == bench["baseline_commit"]}
    change = [run["seed"] for run in runs if run["trace"] == 0
              and run["facts"]["commit"] != bench["baseline_commit"]]
    assert change and len(set(change)) == len(change)
    assert set(change) <= parent
