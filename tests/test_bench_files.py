"""The committed before/after benchmark records, BENCH_<workload>.json.

Each file holds the `perfbench/run.py --save` records of one workload as a
list of series, one per perf change: the runs of the change's parent commit
(`baseline_commit`) and of the change measured against it, with a `note`.
`perfbench/compare.py` pairs untraced runs by seed, so within a series every
untraced run of the change needs an untraced parent run on the same seed,
and no seed is shared between series.
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
    assert bench["series"]
    seen = set()
    for series in bench["series"]:
        assert series["note"]
        runs = series["runs"]
        assert all(run["workload"] == workload for run in runs)
        assert all(run["facts"]["seed"] == run["seed"] for run in runs)
        parent = {run["seed"] for run in runs if run["trace"] == 0
                  and run["facts"]["commit"] == series["baseline_commit"]}
        change = [run["seed"] for run in runs if run["trace"] == 0
                  and run["facts"]["commit"] != series["baseline_commit"]]
        assert change and len(set(change)) == len(change)
        assert set(change) <= parent
        seeds = {run["seed"] for run in runs}
        assert not seeds & seen
        seen |= seeds
