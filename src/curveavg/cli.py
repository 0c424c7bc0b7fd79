"""Command line front end.

Subcommands: cone-verify (Newton residual/homogeneity tables), multiplier-verify
(oscillatory decay and stationary-phase deficit table), synthesize (build the
counterexample fields, snapshot them, tabulate norms), sweep (the full scaling
experiment), report (rebuild a sweep's tables and summary from report.json).
The first three run `curveavg.verify`, which is imported inside them only:
a sweep never loads it.

Every run except report writes a manifest with the resolved config, the
tool, Python and numpy versions, the platform, the CPU count and the
command's wall time; report rewrites only sweep.csv, slopes.csv and
loglog.svg (as its config echo asks), byte for byte as the sweep did. Module
errors become a machine-readable ``error.json`` in the output directory plus
a nonzero exit. sweep prints the summary `render_report` makes of its
report.json, and report prints the same summary of the file. sweep exits 1
when a check fails, report only under ``--strict``; ``--strict`` also turns
warnings (currently: a non-decreasing quotient trend) into failures, for both.
Each command accepts only the options it reads (`_COMMANDS`); any other is
a usage error (exit 2) under that command's own usage line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ._version import __version__
from .config import enforce_memory_cap, parse_config, with_overrides
from .errors import ConfigError, CurveAvgError
from .reporting import (render_report, sweep_artifacts, sweep_tables, verdict,
                        write_json, write_manifest)
from .sweep import DEFAULT_SLOPE_TOLS, sharpness_sweep

__all__ = ["main"]


_OPTIONS = {
    "--config": dict(metavar="PATH", help="sectioned key-value config file"),
    "--out": dict(metavar="DIR", help="output directory (default from config)"),
    "--lambda-max": dict(type=float, metavar="L",
                         help="drop lambda values above L"),
    "--jobs": dict(type=int, metavar="K", help="parallel lambda cells"),
    "--strict": dict(action="store_true", help="treat warnings as failures"),
}
_COMMANDS = [
    ("cone-verify", "check the cone parametrization: Newton residuals, "
                    "homogeneity, closed forms", ("--config", "--out")),
    ("multiplier-verify", "tabulate |mu_hat| decay and the stationary-phase "
                          "deficit", ("--config", "--out", "--lambda-max")),
    ("synthesize", "build the counterexample fields; write snapshots and a "
                   "norm table", ("--config", "--out", "--lambda-max")),
    ("sweep", "run the lambda sweep and fit scaling slopes", tuple(_OPTIONS)),
    ("report", "rebuild a sweep's tables and summary from report.json",
     ("--config", "--out", "--strict")),
]


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: an option it does not take is a usage error
    reported with the command's own usage line, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, rest = super().parse_known_args(args, namespace)
        if rest:
            self.error(f"unrecognized arguments: {' '.join(rest)}")
        return namespace, rest


def _parser():
    parser = argparse.ArgumentParser(
        prog="curveavg",
        description="Sharpness experiments for local smoothing of averages "
                    "over curves.")
    parser.add_argument("--version", action="version",
                        version=f"curveavg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, doc, options in _COMMANDS:
        command = sub.add_parser(name, help=doc, description=doc)
        for option in options:
            command.add_argument(option, **_OPTIONS[option])
    return parser


def _load_config(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    return with_overrides(parse_config(text), jobs=getattr(args, "jobs", None),
                          outdir=args.out,
                          lambda_max=getattr(args, "lambda_max", None))


def _cmd_sweep(cfg, outdir, dropped, strict):
    enforce_memory_cap(cfg)
    # fits over a shortened lambda range carry more preasymptotic bias:
    # widen every band to at least 0.08, never narrow one
    tols = ({k: max(v, 0.08) for k, v in DEFAULT_SLOPE_TOLS.items()}
            if dropped else None)
    report = sharpness_sweep(cfg, slope_tols=tols)
    paths = sweep_artifacts(report, outdir, svg=cfg.svg)
    print(render_report(report), end="")
    return (0 if verdict(report, strict) else 1), paths


def _cmd_report(outdir, strict):
    path = outdir / "report.json"
    if not path.exists():
        raise CurveAvgError(f"no report.json under {outdir}; run sweep first")
    try:   # the summary reads every key the tables do but writes nothing
        report = json.loads(path.read_text(encoding="utf-8"))
        svg = report["config"]["svg"]
        keys = ("n", "ps", "lambdas", "cells", "slopes", "checks", "quotient_monotone")
        if missing := [key for key in keys if key not in report]:
            raise KeyError(*missing)
        summary = render_report(report)
        sweep_tables(report, outdir, svg=svg)
    except (OSError, ValueError, LookupError, TypeError,
            AttributeError) as exc:
        raise CurveAvgError(f"{path} is not a sweep report: {exc!r}") from None
    print(summary, end="")
    return 0 if not strict or verdict(report, strict=True) else 1


def main(argv=None):
    start = time.perf_counter()
    args = _parser().parse_args(argv)
    outdir = Path(args.out) if args.out else None
    try:
        cfg, dropped = _load_config(args)
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep":
            status, paths = _cmd_sweep(cfg, outdir, dropped, args.strict)
        elif args.command == "report":
            return _cmd_report(outdir, args.strict)
        else:
            from . import verify   # a sweep never loads it
            command = getattr(verify, args.command.replace("-", "_"))
            status, paths = command(cfg, outdir)
        write_manifest(outdir, cfg.echo(), paths, args.command,
                       wall_s=time.perf_counter() - start)
        return status
    except CurveAvgError as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}
        target = outdir if outdir is not None else Path("out")
        target.mkdir(parents=True, exist_ok=True)
        write_json(target / "error.json", record)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
