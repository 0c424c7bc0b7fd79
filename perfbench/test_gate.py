"""Tests of the benchmark's correctness gate and verdict rule.

    python3 -m pytest perfbench/test_gate.py
"""

import copy
import json
from pathlib import Path

import pytest

import gate
from compare import load, verdict

REFERENCES = sorted((Path(__file__).parent / "reference").glob("*.json"))


def report_from(reference):
    """A report.json payload whose compared values are the reference's."""
    cells = [dict(copy.deepcopy(cell), lam=lam, defect=1e-16,
                  fractions=[0.2, 0.3], out_full={}, runtime_s=1.0)
             for lam, cell in zip(reference["lambdas"], reference["cells"])]
    slopes = {p: {series: dict(fit, max_residual=0.01)
                  for series, fit in fits.items()}
              for p, fits in reference["slopes"].items()}
    return {"cells": cells, "slopes": slopes}


@pytest.fixture(params=REFERENCES, ids=lambda p: p.stem)
def reference(request):
    return json.loads(request.param.read_text())


def test_every_workload_config_has_a_reference():
    assert [p.stem for p in REFERENCES] == ["n2", "n3"]


def test_reference_values_pass(reference):
    assert gate.check(0, report_from(reference), reference) == []


@pytest.mark.parametrize("perturb", [
    lambda r: r["cells"][0]["norms_in"].__setitem__(
        "4.0", r["cells"][0]["norms_in"]["4.0"] * (1 + 1e-8)),
    lambda r: r["cells"][-1]["out_short"].__setitem__(
        "8.0", r["cells"][-1]["out_short"]["8.0"] * (1 - 1e-8)),
    lambda r: r["cells"][1]["quotient"].__setitem__(
        "2.0", r["cells"][1]["quotient"]["2.0"] * (1 + 1e-8)),
    lambda r: r["cells"][1].__setitem__(
        "piece_min", r["cells"][1]["piece_min"] * (1 + 1e-8)),
    lambda r: r["cells"][2]["piece_min_by_nu"].__setitem__(
        0, r["cells"][2]["piece_min_by_nu"][0] * (1 + 1e-8)),
    lambda r: r["cells"][2]["piece_min_by_nu"].pop(),
    lambda r: r["slopes"]["6"]["quotient"].__setitem__(
        "slope", r["slopes"]["6"]["quotient"]["slope"] + 1e-8),
    lambda r: r["slopes"]["4"]["input"].__setitem__(
        "intercept", r["slopes"]["4"]["input"]["intercept"] * (1 + 1e-8)),
    lambda r: r["cells"][0]["norms_in"].__setitem__("4.0", float("nan")),
])
def test_one_perturbed_value_fails(reference, perturb):
    report = report_from(reference)
    perturb(report)
    assert len(gate.check(0, report, reference)) == 1


def test_last_digit_noise_passes(reference):
    report = report_from(reference)
    report["cells"][0]["norms_in"]["4.0"] *= 1 + 1e-12
    assert gate.check(0, report, reference) == []


def test_fractions_are_only_range_checked(reference):
    report = report_from(reference)
    report["cells"][0]["fractions"] = [0.9, 1.0]
    assert gate.check(0, report, reference) == []
    report["cells"][0]["fractions"] = [0.9, 1.01]
    assert len(gate.check(0, report, reference)) == 1


def test_defect_and_exit_status(reference):
    report = report_from(reference)
    report["cells"][1]["defect"] = 2e-10
    assert len(gate.check(0, report, reference)) == 1
    assert gate.check(1, report_from(reference), reference) == [
        "curveavg exited 1"]
    assert gate.check(0, None, reference) == ["no report.json"]


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.2, 9.8, 10.0, 10.1]
    faster = [v * 0.8 for v in parent]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, "lower", 0.1) == "improved"
    slower = [v * 1.2 for v in parent]
    assert verdict(parent, slower, list(zip(parent, slower)), "lower",
                   0.1) == "worse"
    same = parent[1:] + parent[:1]
    assert verdict(parent, same, list(zip(parent, same)), "lower",
                   0.1) == "no worse"
    assert verdict(parent, faster, pairs, "lower", 0.1,
                   extra_failures=1) == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), "lower",
                   0.1) == "unresolved"
    assert verdict(parent, faster, pairs, "higher", 0.1) == "worse"


def test_load_refuses_a_repeated_seed(tmp_path):
    def record(seed, trace=0):
        return json.dumps({"workload": "sweep-n2", "seed": seed,
                           "trace": trace}) + "\n"

    path = tmp_path / "runs.jsonl"
    path.write_text(record(1) + record(2) + record(1, trace=1))
    assert sorted(load(path)["sweep-n2"]) == [1, 2]
    path.write_text(record(1) + record(2) + record(1))
    with pytest.raises(ValueError, match="seed 1"):
        load(path)
