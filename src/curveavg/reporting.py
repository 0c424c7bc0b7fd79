"""Artifact emission: CSV/JSON writers, field snapshots, and the log-log SVG.

Numbers in CSVs are printed with 12 significant digits (``%.11e``) so that
re-running a deterministic sweep reproduces the files byte for byte. JSON is
written with sorted keys and UTF-8. The SVG plot is deliberately minimal —
a scatter of (log2 lambda, log2 quotient) per p with the fitted line — to
avoid dragging in a plotting stack for one diagnostic figure.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from ._version import __version__

__all__ = ["fmt", "write_csv", "write_json", "write_manifest",
           "sweep_artifacts", "sweep_tables", "quotient_svg",
           "report_warnings", "verdict", "render_report"]


def fmt(value):
    """12 significant digits; plain text for non-floats."""
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


def write_csv(path, header, rows):
    path = Path(path)
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path, obj):
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def write_manifest(outdir, config_echo, artifacts, command, wall_s):
    """manifest.json: the tool, the command and its wall time in seconds, the
    resolved config, the artifacts, and the machine the run took place on."""
    return write_json(Path(outdir) / "manifest.json", {
        "tool": "curveavg",
        "version": __version__,
        "command": command,
        "created_unix": time.time(),
        "wall_s": wall_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # no platform.platform(): it reads the interpreter binary for its
        # libc version and spawns `uname -p`
        "platform": f"{platform.system()}-{platform.release()}-"
                    f"{platform.machine()}",
        "cpu_count": os.cpu_count(),
        "config": config_echo,
        "artifacts": sorted(str(a) for a in artifacts),
    })


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _slopes_by_p(report):
    """The slopes' items in `ps` order, which JSON's sorted keys lose."""
    return sorted(report["slopes"].items(),
                  key=lambda item: report["ps"].index(float(item[0])))


def quotient_svg(report):
    """Scatter of log2 quotient vs log2 lambda per p, with fitted lines, from
    the payload `sharpness_sweep` returns."""
    width, height, pad = 640, 440, 56
    xs = [np.log2(c["lam"]) for c in report["cells"]]
    series = []
    for i, (key, fits) in enumerate(_slopes_by_p(report)):
        p = float(key)
        ys = [np.log2(c["quotient"][str(p)]) for c in report["cells"]]
        series.append((p, ys, fits["quotient"], _PALETTE[i % len(_PALETTE)]))
    ally = [y for _, ys, _, _ in series for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ally), max(ally)
    y0, y1 = y0 - 0.05 * (y1 - y0 + 1e-9) - 0.05, y1 + 0.05 * (y1 - y0 + 1e-9) + 0.05

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
           f'y2="{height - pad}" stroke="black"/>',
           f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
           f'stroke="black"/>',
           f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
           f'font-size="13">log2 lambda</text>',
           f'<text x="16" y="{height / 2:.0f}" font-size="13" '
           f'transform="rotate(-90 16 {height / 2:.0f})" '
           f'text-anchor="middle">log2 quotient</text>']
    for x in xs:
        out.append(f'<text x="{sx(x):.1f}" y="{height - pad + 16}" '
                   f'text-anchor="middle" font-size="11">{x:g}</text>')
    for p, ys, fit, color in series:
        ya = fit["slope"] * x0 + fit["intercept"]
        yb = fit["slope"] * x1 + fit["intercept"]
        out.append(f'<line x1="{sx(x0):.1f}" y1="{sy(ya):.1f}" '
                   f'x2="{sx(x1):.1f}" y2="{sy(yb):.1f}" stroke="{color}" '
                   f'stroke-dasharray="5,4"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3.5" '
                       f'fill="{color}"/>')
        out.append(f'<text x="{width - pad + 4}" y="{sy(yb):.1f}" '
                   f'font-size="11" fill="{color}">p={p:g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def sweep_artifacts(report, outdir, svg=True):
    """Write report.json (the payload `sharpness_sweep` returns) and its
    `sweep_tables`. Returns the list of written paths."""
    Path(outdir).mkdir(parents=True, exist_ok=True)
    return ([write_json(Path(outdir) / "report.json", report)]
            + sweep_tables(report, outdir, svg))


def sweep_tables(report, outdir, svg=True):
    """Write sweep.csv and slopes.csv (the per-cell norms and the fits of a
    report.json payload) and the optional loglog.svg; returns their paths."""
    outdir = Path(outdir)
    rows = [(c["lam"], p) + tuple(c[key][str(p)] for key in
                                  ("norms_in", "out_short", "quotient"))
            for c in report["cells"] for p in report["ps"]]
    paths = [write_csv(outdir / "sweep.csv",
                       ("lambda", "p", "input_norm", "output_norm",
                        "quotient"), rows)]

    columns = ("slope", "intercept", "max_residual", "expected", "gap")
    slope_rows = [(float(key), which) + tuple(fit[k] for k in columns)
                  for key, fits in _slopes_by_p(report)
                  for which, fit in fits.items()]
    paths.append(write_csv(outdir / "slopes.csv", ("p", "series") + columns,
                           slope_rows))

    if svg:
        svg_path = outdir / "loglog.svg"
        svg_path.write_text(quotient_svg(report), encoding="utf-8")
        paths.append(svg_path)
    return paths


def report_warnings(report):
    """The report's warnings: findings that fail no check but fail --strict."""
    return ([] if report["quotient_monotone"]
            else ["quotient trend not decreasing in lambda"])


def verdict(report, strict=False):
    """True when every check passed and, under `strict`, nothing warns."""
    return (all(c["passed"] for c in report["checks"])
            and not (strict and report_warnings(report)))


def render_report(report):
    """The pass/fail summary of a report.json payload, as `sweep` prints it:
    the fitted slopes, one line per check, the overall verdict, then one
    `warning:` line per warning."""
    lines = [f"curveavg sweep report (n={report['n']}, "
             f"lambdas={report['lambdas']}, ps={report['ps']})"]
    for key, fits in _slopes_by_p(report):
        for which in ("input", "output", "quotient"):
            f = fits[which]
            lines.append(f"  p={key} {which:9s} slope {f['slope']:+.4f} "
                         f"(intercept {f['intercept']:+.3f}, "
                         f"max residual {f['max_residual']:.3f})")
    for check in report["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        lines.append(f"  [{tag}] {check['name']}: {check['detail']}")
    lines.append("overall: " + ("PASS" if verdict(report) else "FAIL"))
    lines += [f"warning: {w}" for w in report_warnings(report)]
    return "\n".join(lines) + "\n"
