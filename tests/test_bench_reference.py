"""The benchmark's correctness gate, run on the benchmark's own workloads.

Each workload configuration under perfbench/workloads is swept once and its
report.json must pass perfbench/gate.py against the recorded reference:
exit status 0, per-cell norms, quotients, piece ratios and the fitted slopes
within 1e-9 relative, orthogonality defect <= 1e-10, fractions in [0, 1].
The benchmark's tracer, perfbench/child.py, must find the names it wraps.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from curveavg.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate",
                                                  BENCH / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["n2", "n3"])
def test_workload_passes_the_gate(workload, tmp_path, capsys):
    status = cli_main(["sweep", "--config",
                       str(BENCH / "workloads" / f"{workload}.cfg"),
                       "--out", str(tmp_path)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    report = (json.loads(report_path.read_text(encoding="utf-8"))
              if report_path.exists() else None)
    reference = json.loads(
        (BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    assert _gate().check(status, report, reference) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_writes_every_layer_span(tmp_path, jobs):
    # child.py wraps the package's layer entry points by name and reads its
    # counts off their arguments and results (the field's balls, the
    # window's dims); a traced sweep of the n3 workload at small lambdas
    # writes a span for each, the same under --jobs 2, whose forked cells
    # write their own spans when each cell ends
    text = (BENCH / "workloads" / "n3.cfg").read_text(encoding="utf-8")
    assert "lambdas = 4 32 64" in text
    cfg = tmp_path / "n3.cfg"
    cfg.write_text(text.replace("lambdas = 4 32 64", "lambdas = 4 8 16"),
                   encoding="utf-8")
    events = tmp_path / "events"
    events.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(events), "--",
         "sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--jobs", str(jobs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = [json.loads(line) for path in events.glob("*.jsonl")
             for line in path.read_text(encoding="utf-8").splitlines()]
    counts = Counter(s["name"] for s in spans)
    # run.py's layer_metrics reads these nine names: one span per cell
    # for the cell and its quadrature, two for its field (window, build_f),
    # six norm evaluations per cell at time_nodes = 5, one gate estimate per
    # lambda, and exactly one sweep span
    assert {name: counts[name] for name in (
        "sweep", "sweep.cell", "config.gate", "config.estimate", "multiplier",
        "fields", "averaging", "reporting")} == {
        "sweep": 1, "sweep.cell": 3, "config.gate": 1, "config.estimate": 3,
        "multiplier": 3, "fields": 6, "averaging": 18, "reporting": 3}
    assert counts["cone"] > 0
    # each cell's two fields spans: the lattice's window (its dims) and
    # the built field's support (its balls' flat indices)
    fields = [s for s in spans if s["name"] == "fields"]
    for key in ("window_points", "support_modes"):
        found = [s[key] for s in fields if key in s]
        assert len(found) == 3 and min(found) > 0, key
    assert sorted(s["lam"] for s in spans if s["name"] == "sweep.cell") == [
        4.0, 8.0, 16.0]
    assert all(s["window_points"] > 0 for s in spans
               if s["name"] == "averaging")
