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
from .errors import GridError
from .fields import LatticeWindow, SpectralField

__all__ = ["fmt", "write_csv", "write_json", "write_manifest",
           "save_snapshot", "load_snapshot", "sweep_artifacts",
           "quotient_svg", "render_report"]

_SNAP_SENTINEL = 0.0  # N slot for windowed (non-cubic) fields


def fmt(value):
    """12 significant digits; plain text for non-floats."""
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


def write_csv(path, header, rows):
    path = Path(path)
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
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


def save_snapshot(path, field, lam):
    """Flat little-endian binary: float64 header then complex128 coefficients
    over the whole window, zero off the support.

    Cubic grids use the 4-value header (n, N, L, lambda) with data in C order
    and the window implied as [-N/2, N/2). Non-cubic windows write N = 0 and
    append int64 dims[n] and k0[n] before the data.
    """
    win = field.window
    n = len(win.dims)
    cubic = len(set(win.dims)) == 1 and all(k == -d // 2 for k, d in
                                            zip(win.k0, win.dims))
    head = [n, win.dims[0] if cubic else _SNAP_SENTINEL, win.L, lam]
    parts = [np.array(head, dtype="<f8").tobytes()]
    if not cubic:
        parts.append(np.array(win.dims + win.k0, dtype="<i8").tobytes())
    parts.append(field.dense().astype("<c16").tobytes())
    Path(path).write_bytes(b"".join(parts))
    return Path(path)


def load_snapshot(path):
    """Inverse of save_snapshot; returns (SpectralField, lambda). The field
    keeps the nonzero coefficients and declares no balls."""
    raw = Path(path).read_bytes()
    if len(raw) < 32:
        raise GridError(f"snapshot {path} too short for a header")
    n_f, N_f, L, lam = np.frombuffer(raw[:32], dtype="<f8")
    n, off = int(n_f), 32
    if N_f > 0:
        dims = (int(N_f),) * n
        k0 = tuple(-d // 2 for d in dims)
    else:
        ints = np.frombuffer(raw[off:off + 16 * n], dtype="<i8")
        dims, k0 = tuple(int(v) for v in ints[:n]), tuple(int(v) for v in ints[n:])
        off += 16 * n
    count = int(np.prod(dims))
    data = np.frombuffer(raw[off:], dtype="<c16")
    if data.size != count:
        raise GridError(f"snapshot {path}: expected {count} coefficients, "
                        f"found {data.size}")
    window = LatticeWindow(L=float(L), dims=dims, k0=k0)
    return SpectralField.from_dense(window, data.reshape(dims)), float(lam)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def quotient_svg(report):
    """Scatter of log2 quotient vs log2 lambda per p, with fitted lines."""
    width, height, pad = 640, 440, 56
    xs = [np.log2(c["lam"]) for c in report.cells]
    series = []
    for i, p in enumerate(report.ps):
        ys = [np.log2(c["quotient"][float(p)]) for c in report.cells]
        series.append((float(p), ys, report.slopes[float(p)]["quotient"],
                       _PALETTE[i % len(_PALETTE)]))
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
                   f'text-anchor="middle" font-size="11">{x:.0f}</text>')
    for p, ys, fit, color in series:
        ya, yb = fit.slope * x0 + fit.intercept, fit.slope * x1 + fit.intercept
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
    """Write report.json, sweep.csv, slopes.csv and the optional loglog.svg.
    Returns the list of written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [write_json(outdir / "report.json", report.to_dict())]

    rows = [(c["lam"], p, c["norms_in"][float(p)], c["out_short"][float(p)],
             c["quotient"][float(p)])
            for c in report.cells for p in report.ps]
    paths.append(write_csv(outdir / "sweep.csv",
                           ("lambda", "p", "input_norm", "output_norm",
                            "quotient"), rows))

    from .sweep import expected_slopes
    slope_rows = []
    for p in report.ps:
        want = expected_slopes(float(p), report.n)
        for which in ("input", "output", "quotient"):
            fit = report.slopes[float(p)][which]
            slope_rows.append((float(p), which, fit.slope, fit.intercept,
                               fit.max_residual, want[which],
                               abs(fit.slope - want[which])))
    paths.append(write_csv(outdir / "slopes.csv",
                           ("p", "series", "slope", "intercept",
                            "max_residual", "expected", "gap"), slope_rows))

    if svg:
        svg_path = outdir / "loglog.svg"
        svg_path.write_text(quotient_svg(report), encoding="utf-8")
        paths.append(svg_path)
    return paths


def render_report(report_dict):
    """Human-readable pass/fail summary from a report.json payload."""
    lines = [f"curveavg sweep report (n={report_dict['n']}, "
             f"lambdas={report_dict['lambdas']}, ps={report_dict['ps']})"]
    for key, fits in sorted(report_dict["slopes"].items()):
        for which in ("input", "output", "quotient"):
            f = fits[which]
            lines.append(f"  p={key} {which:9s} slope {f['slope']:+.4f} "
                         f"(intercept {f['intercept']:+.3f}, "
                         f"max residual {f['max_residual']:.3f})")
    for check in report_dict["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        lines.append(f"  [{tag}] {check['name']}: {check['detail']}")
    overall = all(c["passed"] for c in report_dict["checks"])
    lines.append("overall: " + ("PASS" if overall else "FAIL"))
    return "\n".join(lines) + "\n"
