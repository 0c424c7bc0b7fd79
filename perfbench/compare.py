"""Compare the benchmark results of two commits, workload by workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that `run.py --save` appends, from the
``--trace 0`` runs of one commit; ``--trace 1`` records are skipped. Runs
pair up by workload and seed, so a file may hold one untraced run per
workload and seed; a repeated one is an error, not silently dropped. For
every workload and end-to-end metric of BENCHMARK.json one row gives each
side's median and quartiles over its runs, the pairs the change won (ties
count for neither) and a verdict:

- improved: the change won at least 9/10 of the pairs and its median is
  better than the parent's by more than the distance between the parent's
  quartiles;
- worse: the change's median is worse than the parent's by more than the
  metric's bound, or the change failed more sweeps than the parent;
- unresolved: the parent's quartile distance exceeds the bound, and not
  every run of the change is better than every run of the parent;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    """workload -> seed -> record, for the untraced runs in the file."""
    runs = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["trace"] != 0:
            continue
        workload, seed = record["workload"], record["seed"]
        if seed in runs[workload]:
            raise ValueError(f"{path}: two untraced runs of {workload} with "
                             f"seed {seed}; give every run its own seed")
        runs[workload][seed] = record
    return runs


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def pairs_won(pairs, better):
    """Pairs (parent, change) of one seed in which the change is better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in pairs if sign * c < sign * p)


def verdict(parent, change, pairs, better, bound, extra_failures=0):
    """The row's verdict; `pairs` holds (parent, change) values of one seed."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)           # > 0: the change is better
    spread = p_q3 - p_q1
    wins = pairs_won(pairs, better)
    if extra_failures > 0:
        return "worse"
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved"
    if -gain > bound * abs(p_med):
        return "worse"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "no worse"


def _fmt(values):
    med, q1, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}..{q3:.4g}] n={len(values)}"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        parent, change = load(argv[0]), load(argv[1])
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("workload | metric | parent | change | pairs won | verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        failures = [sum(r["failed"] for r in runs.values())
                    for runs in (p_runs, c_runs)]
        for entry in spec["end_to_end"]:
            name = entry["name"]

            def value(record):
                return record["metrics"][name]["value"]

            p_vals = [value(r) for r in p_runs.values()]
            c_vals = [value(r) for r in c_runs.values()]
            pairs = [(value(p_runs[s]), value(c_runs[s]))
                     for s in sorted(set(p_runs) & set(c_runs))]
            wins = pairs_won(pairs, entry["better"])
            v = verdict(p_vals, c_vals, pairs, entry["better"], entry["bound"],
                        failures[1] - failures[0])
            print(f"{workload} | {name} ({entry['unit']}) | {_fmt(p_vals)} | "
                  f"{_fmt(c_vals)} | {wins}/{len(pairs)} | {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
