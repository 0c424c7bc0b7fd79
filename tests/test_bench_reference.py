"""The benchmark's correctness gate, run on the benchmark's own workloads.

Each workload configuration under perfbench/workloads is swept once and its
report.json must pass perfbench/gate.py against the recorded reference:
exit status 0, per-cell norms, quotients, piece ratios and the fitted slopes
within 1e-9 relative, orthogonality defect <= 1e-10, fractions in [0, 1].
"""

import importlib.util
import json
from pathlib import Path

import pytest

from curveavg.cli import main as cli_main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
