"""The correctness gate: a sweep's report.json against a recorded reference.

A run passes when curveavg exited 0 and, cell by cell, `norms_in`,
`out_short`, `quotient`, `piece_min` and `piece_min_by_nu`, and every
fitted slope and intercept, match the reference to 1e-9 relative, the
orthogonality defect is at most 1e-10 and every concentration fraction lies
in [0, 1]. Fractions, `out_full` and `runtime_s` are not compared with the
reference: the first may move legitimately when the concentration
measurement becomes exact, the others may be dropped or are timings.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
DEFECT_MAX = 1e-10
CELL_KEYS = ("norms_in", "out_short", "quotient", "piece_min",
             "piece_min_by_nu")


def reference_of(report):
    """The compared values of a report.json payload, as a plain dict."""
    return {
        "lambdas": [c["lam"] for c in report["cells"]],
        "cells": [{k: c[k] for k in CELL_KEYS} for c in report["cells"]],
        "slopes": {p: {series: {"slope": fit["slope"],
                                "intercept": fit["intercept"]}
                       for series, fit in fits.items()}
                   for p, fits in report["slopes"].items()},
    }


def _compare(path, got, want, problems):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys differ from the reference's "
                            f"{sorted(want)}")
            return
        for key in want:
            _compare(f"{path}.{key}", got[key], want[key], problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: {got!r} does not match length {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{i}]", g, w, problems)
    elif not (isinstance(got, (int, float)) and math.isfinite(got)
              and abs(got - want) <= REL_TOL * abs(want)):
        problems.append(f"{path}: {got!r} != reference {want!r}")


def check(exit_code, report, reference):
    """Every reason the run fails the gate; an empty list means it passes."""
    if exit_code != 0:
        return [f"curveavg exited {exit_code}"]
    if report is None:
        return ["no report.json"]
    problems = []
    _compare("report", reference_of(report), reference, problems)
    for cell in report["cells"]:
        if not cell["defect"] <= DEFECT_MAX:
            problems.append(f"lambda={cell['lam']:g}: orthogonality defect "
                            f"{cell['defect']!r} > {DEFECT_MAX}")
        if not all(0.0 <= f <= 1.0 for f in cell["fractions"]):
            problems.append(f"lambda={cell['lam']:g}: a concentration "
                            "fraction lies outside [0, 1]")
    return problems
