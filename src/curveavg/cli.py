"""Command line front end.

Subcommands: cone-verify (Newton residual/homogeneity tables), multiplier-verify
(oscillatory decay and stationary-phase deficit table), synthesize (build the
counterexample fields, snapshot them, tabulate norms), sweep (the full scaling
experiment), report (rebuild a sweep's tables and summary from report.json).

Every run except report writes a manifest with the resolved config, the
tool, Python and numpy versions, the platform, the CPU count and the
command's wall time; report rewrites only sweep.csv, slopes.csv and
loglog.svg (as its config echo asks), byte for byte as the sweep did. Module
errors become a machine-readable ``error.json`` in the output directory plus
a nonzero exit. sweep prints the summary `render_report` makes of its
report.json, and report prints the same summary of the file. sweep exits 1
when a check fails, report only under ``--strict``; ``--strict`` also turns
warnings (currently: a non-decreasing quotient trend) into failures, for both.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from ._version import __version__
from .averaging import space_stats
from .cone import moment_gamma_seed
from .config import (chart_from, curve_from, cutoff_from, enforce_memory_cap,
                     parse_config, with_overrides)
from .errors import CurveAvgError
from .multiplier import multiplier_sample
from .reporting import (render_report, save_snapshot, sweep_artifacts,
                        sweep_tables, verdict, write_csv, write_json,
                        write_manifest)
from .sweep import DEFAULT_SLOPE_TOLS, _cell_setup, sharpness_sweep

__all__ = ["main"]


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="sectioned key-value config file")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default from config)")
    common.add_argument("--jobs", type=int, metavar="K",
                        help="parallel lambda cells")
    common.add_argument("--lambda-max", type=float, dest="lambda_max",
                        metavar="L", help="drop lambda values above L")
    common.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    parser = argparse.ArgumentParser(
        prog="curveavg",
        description="Sharpness experiments for local smoothing of averages "
                    "over curves.")
    parser.add_argument("--version", action="version",
                        version=f"curveavg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("cone-verify", "check the cone parametrization: Newton residuals, "
                        "homogeneity, closed forms"),
        ("multiplier-verify", "tabulate |mu_hat| decay and the "
                              "stationary-phase deficit"),
        ("synthesize", "build the counterexample fields; write snapshots "
                       "and a norm table"),
        ("sweep", "run the lambda sweep and fit scaling slopes"),
        ("report", "rebuild a sweep's tables and summary from report.json"),
    ]:
        sub.add_parser(name, parents=[common], help=doc, description=doc)
    return parser


def _load_config(args):
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    cfg = parse_config(text)
    cfg, dropped = with_overrides(cfg, jobs=args.jobs, outdir=args.out,
                                  lambda_max=args.lambda_max)
    return cfg, dropped


def _tau_max(aperture, n):
    # largest tau with |Gamma(tau)'| components inside the cone, with margin
    t = aperture
    for _ in range(20):
        g = sum(moment_gamma_seed(n, t)[0][:-1] ** 2)
        t = aperture / np.sqrt(g / t ** 2)
    return 0.9 * t


def _cmd_cone_verify(cfg, outdir):
    curve, chart = curve_from(cfg), chart_from(cfg)
    n = cfg.n
    tmax = _tau_max(cfg.aperture, n)
    rows, worst = [], 0.0
    for tau in np.linspace(-tmax, tmax, 17):
        xi = moment_gamma_seed(n, tau)[0]
        theta = chart.solve_theta(xi)
        res = abs(float(curve.derivative(n - 1, theta) @ xi)) / np.linalg.norm(xi)
        closed = "" if cfg.perturbation else abs(theta - (-tau))
        phi1 = chart.phase_phi(xi)
        for scale in (2.0, 4.0):
            hom_theta = abs(chart.solve_theta(scale * xi) - theta)
            hom_phi = abs(chart.phase_phi(scale * xi) - scale * phi1) / (
                abs(scale * phi1) + 1e-30)
            rows.append((float(tau), scale, float(theta), res, hom_theta,
                         hom_phi, closed))
            worst = max(worst, res, hom_theta, hom_phi,
                        closed if closed != "" else 0.0)
    path = write_csv(outdir / "cone.csv",
                     ("tau", "scale", "theta", "theta_residual",
                      "theta_homogeneity", "phi_homogeneity",
                      "closed_form_error"), rows)
    print(f"cone-verify: 17 rays, worst residual {worst:.3e} -> {path}")
    return (0 if worst <= 1e-12 else 1), [path]


def _cmd_multiplier_verify(cfg, outdir):
    curve, cutoff, chart = curve_from(cfg), cutoff_from(cfg), chart_from(cfg)
    n = cfg.n
    tmax = _tau_max(cfg.aperture, n)
    taus = (-0.5 * tmax, 0.0, 0.5 * tmax)
    rows = []
    for lam in cfg.lambdas:
        for t in (1.0, 1.5, 2.0):
            for tau in taus:
                direction = moment_gamma_seed(n, tau)[0]
                direction /= np.linalg.norm(direction)
                s = multiplier_sample(curve, cutoff, chart, t,
                                      float(lam) * direction)
                rows.append((float(lam), t,
                             ";".join(f"{v:.9g}" for v in direction),
                             abs(s.mu_hat), s.deficit,
                             abs(s.mu_hat) * (1.0 + lam) ** (1.0 / n)))
    path = write_csv(outdir / "multiplier.csv",
                     ("lambda", "t", "direction", "|mu_hat|", "deficit",
                      "ratio_to_rate"), rows)
    print(f"multiplier-verify: {len(rows)} samples -> {path}")
    return 0, [path]


def _cmd_synthesize(cfg, outdir):
    enforce_memory_cap(cfg)
    paths, rows = [], []
    ps = sorted(set([2.0] + [float(p) for p in cfg.ps]))
    for lam in cfg.lambdas:
        f = _cell_setup(cfg, float(lam))[-1]
        norms, _ = space_stats(f, ps)
        rows += [(float(lam), p, norms[p]) for p in ps]
        snap = save_snapshot(outdir / f"field_lambda{int(lam)}.bin", f,
                             float(lam))
        paths.append(snap)
        print(f"synthesize: lambda={lam:g} pieces={len(f.support)} "
              f"dims={f.window.dims} -> {snap.name}")
    paths.append(write_csv(outdir / "norms.csv",
                           ("lambda", "p", "input_norm"), rows))
    return 0, paths


def _cmd_sweep(cfg, outdir, dropped, strict):
    enforce_memory_cap(cfg)
    # fits over a shortened dyadic range carry more preasymptotic bias:
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
    report = json.loads(path.read_text(encoding="utf-8"))
    sweep_tables(report, outdir, svg=report["config"]["svg"])
    print(render_report(report), end="")
    return 0 if not strict or verdict(report, strict=True) else 1


def main(argv=None):
    start = time.perf_counter()
    args = _parser().parse_args(argv)
    outdir = Path(args.out) if args.out else None
    try:
        cfg, dropped = _load_config(args)
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "cone-verify":
            status, paths = _cmd_cone_verify(cfg, outdir)
        elif args.command == "multiplier-verify":
            status, paths = _cmd_multiplier_verify(cfg, outdir)
        elif args.command == "synthesize":
            status, paths = _cmd_synthesize(cfg, outdir)
        elif args.command == "sweep":
            status, paths = _cmd_sweep(cfg, outdir, dropped, args.strict)
        else:
            return _cmd_report(outdir, args.strict)
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
