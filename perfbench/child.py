"""Run `curveavg` in this process with the benchmark's probes installed.

    python3 child.py MODE EVENTS_DIR -- <curveavg arguments>

MODE is one of

- ``plain``: one span around the sweep layer's entry point
  (`sharpness_sweep`); its start marks the end of set-up.
- ``setup``: record that same instant, then exit 0 without sweeping.
- ``trace``: a span around the public entry points of every layer, with
  the work counts each entry point sees.

The probes are installed from here, around the names the callers look up,
so the package itself is unchanged. Every process writes its spans to
``EVENTS_DIR/<pid>.jsonl`` as one JSON object per line. Pool workers write
theirs when each lambda cell ends, because they leave without running the
interpreter's exit hooks.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time


class Tracer:
    """Spans kept in memory: name, process, parent span, start and end on
    the system-wide monotonic clock, the counts of the call, and the time
    the wrapper itself spent around the call (``overhead``)."""

    def __init__(self, events_dir):
        self.events_dir = events_dir
        self.spans = []
        self.stack = []
        self.cone_depth = 0

    def wrap(self, owner, attr, name, counts=None, outermost=False):
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if outermost and tracer.cone_depth:
                return fn(*args, **kwargs)
            enter = time.monotonic()
            pid = os.getpid()
            span = {"name": name, "pid": pid, "id": f"{pid}:{len(tracer.spans)}",
                    "parent": tracer.stack[-1] if tracer.stack else None}
            tracer.spans.append(span)
            tracer.stack.append(span["id"])
            tracer.cone_depth += outermost
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                tracer.cone_depth -= outermost
                tracer.stack.pop()
            if counts is not None:
                span.update(counts(args, result))
            # the wrapper's own time, outside the wrapped call
            span["overhead"] = (span["start"] - enter
                                + time.monotonic() - span["end"])
            return result

        setattr(owner, attr, traced)

    def flush(self):
        """Append this process's finished spans to its own events file."""
        pid = os.getpid()
        mine = [s for s in self.spans
                if s["pid"] == pid and "end" in s and not s.get("written")]
        if not mine:
            return
        lines = "".join(json.dumps(s) + "\n" for s in mine)
        fd = os.open(os.path.join(self.events_dir, f"{pid}.jsonl"),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, lines.encode())
        finally:
            os.close(fd)
        for s in mine:
            s["written"] = True


def _size(paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


_CONE_POINTS = {
    "solve_theta_batch": lambda a, r: {"points": len(r)},
    "phi_un_batch": lambda a, r: {"points": len(r[0])},
    "solve_theta": lambda a, r: {"points": 1},
    "solve_gamma": lambda a, r: {"points": 1},
}


def install_trace(tracer):
    from curveavg import cli, config, sweep
    from curveavg.cone import ConeChart

    tracer.wrap(sweep, "space_stats", "averaging",
                lambda a, r: {"window_points": math.prod(a[0].window.dims)})
    tracer.wrap(sweep, "mu_hat_batch", "multiplier",
                lambda a, r: {"samples": int(r.shape[0] * r.shape[1])})
    tracer.wrap(sweep, "windowed_lattice", "fields",
                lambda a, r: {"window_points": math.prod(r.dims)})
    tracer.wrap(sweep, "build_f", "fields",
                lambda a, r: {"support_modes":
                              sum(len(b.flat) for b in r.support)})
    for method, counts in _CONE_POINTS.items():
        tracer.wrap(ConeChart, method, "cone", counts, outermost=True)
    tracer.wrap(cli, "enforce_memory_cap", "config.gate")
    tracer.wrap(config, "estimate_field_bytes", "config.estimate",
                lambda a, r: {"bytes": int(r)})
    tracer.wrap(sweep, "run_cell", "sweep.cell",
                lambda a, r: {"lam": float(r["lam"])})
    tracer.wrap(cli, "sweep_artifacts", "reporting", lambda a, r: _size(r))
    tracer.wrap(cli, "write_manifest", "reporting", lambda a, r: _size([r]))
    tracer.wrap(cli, "render_report", "reporting")

    # workers flush at the end of every cell; the root process at exit
    cell = sweep.run_cell
    root = os.getpid()

    def run_cell(*args, **kwargs):
        try:
            return cell(*args, **kwargs)
        finally:
            if os.getpid() != root:
                tracer.flush()

    sweep.run_cell = run_cell


def main(argv):
    mode, events_dir, sep, *cli_args = argv
    if mode not in ("plain", "setup", "trace") or sep != "--":
        raise SystemExit("usage: child.py plain|setup|trace EVENTS_DIR -- ARGS")
    from curveavg import cli

    tracer = Tracer(events_dir)
    if mode == "setup":
        def stop(*args, **kwargs):
            raise SystemExit(0)
        cli.sharpness_sweep = stop
    elif mode == "trace":
        install_trace(tracer)
    tracer.wrap(cli, "sharpness_sweep", "sweep")
    try:
        return cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
