"""The curveavg benchmark: `curveavg sweep` as fresh processes, gated for
correctness, with end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--save RESULTS.jsonl]
    python3 perfbench/run.py --record-reference

Run from the root of a source checkout; the package is imported from its
``src/``. One run measures one workload for S seconds in a closed loop: one
sweep at a time, each a new process, each checked by `gate.check` against
``reference/<config>.json``. A set-up probe (the same process, stopped where
the sweep layer starts) is paired with every sweep, and more are added until
there are at least SETUP_PROBES. The seed fixes nothing in the inputs, which
are deterministic; it orders the steps of the run: the two sides of each
pair. ``--save`` appends the run's record, with every sample and the machine
facts, for ``compare.py``.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:

- wall_s: one sweep, from process start to exit (median over the run);
- setup_s: process start to the sweep layer's entry, covering the
  interpreter, the imports, `parse_config` and the memory gate
  `enforce_memory_cap` (median over probes and sweeps);
- peak_rss_mib: the largest peak RSS of any process of the sweep, pool
  workers included (median over the run).

Failures are counted in ``attempted``/``failed`` of the result line. With
``--trace 1`` every sweep is traced, and the run reports the per-layer
metrics (see `layer_metrics`).

``--record-reference`` runs each workload configuration once and writes the
reference the gate compares with. Record it only on a commit whose numbers
are known to be right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gate
from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
_MIB = float(1 << 20)


@dataclass(frozen=True)
class Workload:
    config: str   # workloads/<config>.cfg, reference/<config>.json
    jobs: int


# Why each workload is here is in BENCHMARK.json.
WORKLOADS = {
    "sweep-n3": Workload("n3", 1),
    "sweep-n2": Workload("n2", 1),
    "sweep-n3-jobs2": Workload("n3", 2),
}


@dataclass
class Sample:
    mode: str
    exit_code: int
    wall_s: float
    setup_s: float          # nan when the sweep layer was never entered
    peak_rss_mib: float
    report: dict | None
    spans: list
    problems: list = field(default_factory=list)


def _child_env():
    env = dict(os.environ)
    env.pop("CSL_MEMORY_CAP", None)   # the configured cap applies
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(THREAD_VARS)
    return env


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(mode, workload, workdir, tag):
    """One `curveavg sweep` process under child.py; returns a Sample.

    Peak RSS comes from wait4, whose usage covers the process and every
    child it reaped, so pool workers count. The process runs in its own
    session so that a timeout kills the workers with it.
    """
    out, events = workdir / f"out-{tag}", workdir / f"events-{tag}"
    events.mkdir(parents=True)
    log_path = workdir / f"log-{tag}.txt"
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(events), "--",
           "sweep", "--config", str(HERE / "workloads" / f"{workload.config}.cfg"),
           "--out", str(out), "--jobs", str(workload.jobs)]
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        print(f"{mode} {tag} exited {proc.returncode}:\n{tail}", file=sys.stderr)

    spans = [json.loads(line) for path in sorted(events.glob("*.jsonl"))
             for line in path.read_text().splitlines()]
    entry = [s["start"] for s in spans if s["name"] == "sweep"]
    report_path = out / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    for path in (out, events):
        shutil.rmtree(path, ignore_errors=True)
    log_path.unlink()
    return Sample(mode=mode, exit_code=proc.returncode, wall_s=end - start,
                  setup_s=min(entry) - start if entry else math.nan,
                  peak_rss_mib=usage.ru_maxrss * 1024 / _MIB,
                  report=report, spans=spans)


def _covered(spans, within):
    """Length of the union of the spans' intervals inside `within`."""
    lo, hi = within["start"], within["end"]
    intervals = sorted((max(lo, s["start"]), min(hi, s["end"])) for s in spans)
    total, reach = 0.0, lo
    for a, b in intervals:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(sample):
    """Per-layer numbers of one traced sweep.

    What each should move (workload in brackets):
    averaging -> wall_s, peak_rss_mib [sweep-n3, sweep-n3-jobs2], none on
      sweep-n2; multiplier -> wall_s [sweep-n2]; fields and cone -> none
      measurable; config -> setup_s [all]; sweep and reporting -> wall_s
      [all]. cli.other_s is the traced wall time not inside any layer, and
      trace.overhead_s the time the span wrappers spent outside the calls
      they wrap, summed over every process (the writing of the events files
      is not counted). A traced-minus-untraced wall time would be noise:
      sweeps drift by seconds over minutes, the wrappers cost milliseconds.
    """
    by = defaultdict(list)
    children = defaultdict(list)
    for s in sample.spans:
        by[s["name"]].append(s)
        children[s["parent"]].append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by[name])

    def count(name, key):
        return sum(s.get(key, 0) for s in by[name])

    m = {}
    for layer in ("averaging", "multiplier", "fields", "cone", "reporting"):
        m[f"{layer}.s"] = busy(layer)
    m["averaging.calls"] = len(by["averaging"])
    m["averaging.window_points"] = count("averaging", "window_points")
    m["averaging.s_per_call"] = m["averaging.s"] / m["averaging.calls"]
    m["multiplier.calls"] = len(by["multiplier"])
    m["multiplier.samples"] = count("multiplier", "samples")
    m["multiplier.samples_per_s"] = m["multiplier.samples"] / m["multiplier.s"]
    m["fields.support_modes"] = count("fields", "support_modes")
    m["fields.window_points"] = count("fields", "window_points")
    m["cone.calls"] = len(by["cone"])
    m["cone.points"] = count("cone", "points")

    m["config.gate_s"] = busy("config.gate")
    estimate = max(s["bytes"] for s in by["config.estimate"]) / _MIB
    m["config.gate_estimate_mib"] = estimate
    m["config.gate_margin"] = estimate / sample.peak_rss_mib

    (sweep,) = by["sweep"]
    cells = sorted(by["sweep.cell"], key=lambda s: s["lam"])
    for rank, cell in enumerate(cells, start=1):
        m[f"sweep.cell_s.lam{rank}"] = cell["end"] - cell["start"]
    m["sweep.self_s"] = sum(c["end"] - c["start"] - _covered(children[c["id"]], c)
                            for c in cells)
    m["sweep.fit_s"] = sweep["end"] - sweep["start"] - _covered(cells, sweep)
    m["reporting.bytes"] = count("reporting", "bytes")
    m["trace.overhead_s"] = sum(s.get("overhead", 0.0) for s in sample.spans)
    m["cli.other_s"] = (sample.wall_s - m["config.gate_s"]
                        - (sweep["end"] - sweep["start"]) - m["reporting.s"])
    return m, [c["lam"] for c in cells]


def machine_facts(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "threads": dict(THREAD_VARS),
            "platform": platform.platform(), "seed": seed, "commit": commit}


def measure(workload, seed, seconds, trace, workdir):
    """The run's samples: (sweeps, set-up probes), in the seed's order."""
    rng = random.Random(seed)
    reference = json.loads((HERE / "reference" / f"{workload.config}.json")
                           .read_text())
    tags = iter(range(1 << 30))

    def step(mode):
        sample = run_child(mode, workload, workdir, next(tags))
        if mode == "setup":
            if sample.exit_code != 0 or math.isnan(sample.setup_s):
                raise RuntimeError("a set-up probe failed")
            return sample
        sample.problems = gate.check(sample.exit_code, sample.report, reference)
        if not sample.problems and math.isnan(sample.setup_s):
            sample.problems = ["the sweep layer was never entered"]
        if sample.problems:
            print(f"{mode} sweep failed the gate: {sample.problems[:5]}",
                  file=sys.stderr)
        sample.report = None
        return sample

    step("setup")   # warm-up, discarded: byte-compiles and fills the caches
    pair = ["trace"] if trace else ["plain", "setup"]
    sweeps, probes = [], []
    begin, longest = time.monotonic(), 0.0
    while True:
        t0 = time.monotonic()
        rng.shuffle(pair)
        for mode in pair:
            (probes if mode == "setup" else sweeps).append(step(mode))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - begin + longest > seconds:
            break
    while not trace and len(probes) < SETUP_PROBES:
        probes.append(step("setup"))
    return sweeps, probes


def _metric_values(sweeps, probes, trace):
    """name -> list of samples; per-layer lists hold one value per traced
    sweep."""
    good = [s for s in sweeps if not s.problems]
    if not trace:
        return {"wall_s": [s.wall_s for s in good],
                "setup_s": [s.setup_s for s in good + probes],
                "peak_rss_mib": [s.peak_rss_mib for s in good]}, {}
    values, lambdas = defaultdict(list), {}
    for s in good:
        layers, lams = layer_metrics(s)
        lambdas = {f"sweep.cell_s.lam{i}": lam
                   for i, lam in enumerate(lams, start=1)}
        for name, v in layers.items():
            values[name].append(v)
    return dict(values), lambdas


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sweeps, probes = measure(workload, args.seed, args.seconds,
                                 args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for s in sweeps if s.problems)
    values, lambdas = _metric_values(sweeps, probes, args.trace)

    print(f"workload {args.workload}: {len(sweeps)} sweeps, {failed} failed,"
          f" {len(probes)} set-up probes")
    print("machine " + json.dumps(facts, sort_keys=True))
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if not values.get(name):
            continue
        med, q1, q3 = quartiles(values[name])
        metrics[name] = {"value": med, "unit": unit}
        where = f" (lambda={lambdas[name]:g})" if name in lambdas else ""
        print(f"  {name}{where}: median {med:.6g} {unit}, quartiles "
              f"{q1:.6g}..{q3:.6g}, n={len(values[name])}")
    margin = metrics.get("config.gate_margin", {}).get("value")
    if margin is not None and margin < 1:
        print(f"finding: config.gate_margin {margin:.3f} < 1: the memory gate's"
              " largest estimate is below the measured peak RSS")
    if args.save:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "attempted": len(sweeps), "failed": failed, "facts": facts,
                  "samples": values, "metrics": metrics}
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    missing = [e["name"] for e in wanted if e["name"] not in metrics]
    if missing and not failed:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(sweeps),
                      "failed": failed, "metrics": metrics}))
    return 0


def record_reference():
    workdir = ROOT / ".perfbench_runs" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in sorted({w.config for w in WORKLOADS.values()}):
            sample = run_child("plain", Workload(name, 1), workdir, name)
            if sample.exit_code != 0 or sample.report is None:
                print(f"error: the {name} sweep failed", file=sys.stderr)
                return 1
            path = HERE / "reference" / f"{name}.json"
            path.write_text(json.dumps(gate.reference_of(sample.report),
                                       indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="RESULTS.jsonl",
                        help="append this run's record to the file")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curveavg" / "__init__.py").is_file():
        print(f"error: no curveavg sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
