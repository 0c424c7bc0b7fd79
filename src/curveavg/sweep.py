"""Scaling experiments: exponent table, lambda sweeps, and the quantitative checks.

A sweep builds the counterexample family at each dyadic lambda, applies the
average over the short time window [1, 1 + lambda^{-1/n}], and fits log2-log2
slopes of the input norm, output norm, and their quotient. The quotient slope
is the sharpness payload: it should track -(1/2 + 2/p)/n, the exponent that
forces the critical smoothing index sigma(p, n) = min{1/n, (1/n)(1/2 + 2/p),
2/p}.

Per-lambda diagnostics ride along: the L^2 orthogonality defect across
pieces (the pieces' powers against ||A_t f||_2^2, exact when their lattice
supports are disjoint), the per-piece lower bound ||A_t f_nu||_2/||g_nu||_2
against its stationary-phase reference, and the concentration fraction of
||A_t f||_2^2 near the origin.

`sharpness_sweep` returns the report.json payload as a plain dict; the
artifacts, the printed summary and `curveavg report` all read that dict.

lambda cells are independent pure jobs; with cfg.jobs > 1 they run in
separate processes and merge in lambda order, so results are independent of
the parallelism degree.
"""

from __future__ import annotations

import resource
import sys
import time
from fractions import Fraction
from math import factorial

import numpy as np

from .averaging import (TimeWindow, _norm_grid, ball_kernel,
                        lp_norm_spacetime, space_stats)
from .config import ball_radius_from, chart_from, curve_from, cutoff_from
from .errors import DomainError
from .fields import CounterexampleSpec, build_f, windowed_lattice
from .multiplier import alpha_n, mu_hat_batch

__all__ = ["critical_exponent", "expected_slopes", "fit_slope", "run_cell",
           "sharpness_sweep", "DEFAULT_SLOPE_TOLS"]

DEFAULT_SLOPE_TOLS = {"input": 0.1, "output": 0.1, "quotient": 0.05}


def critical_exponent(p, n):
    """The critical smoothing index min{1/n, (1/n)(1/2 + 2/p), 2/p}.

    Piecewise: 1/n on 2 <= p <= 4, (1/n)(1/2 + 2/p) on 4 <= p <= 4(n-1),
    2/p beyond; the pieces agree at both breakpoints. Exact Fractions come
    back for int/Fraction input, floats for float input.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n}")
    if p != np.inf and p < 2:
        raise DomainError(f"p must be >= 2, got {p}")
    if isinstance(p, (int, Fraction)) and not isinstance(p, bool):
        p = Fraction(p)
        return min(Fraction(1, n), (Fraction(1, 2) + 2 / p) / n, 2 / p)
    if p == np.inf:
        return 0.0
    return min(1.0 / n, (0.5 + 2.0 / p) / n, 2.0 / p)


def expected_slopes(p, n):
    """Asymptotic log2-log2 slopes for the family: input norm, short-window
    output norm, and their quotient -(1/2 + 2/p)/n."""
    return {
        "input": (n + 1) / n - (n - 1) / (n * p),
        "output": 1 - 1 / p + 1 / (2 * n) - 1 / (n * p),
        "quotient": -(0.5 + 2 / p) / n,
    }


def fit_slope(pairs):
    """Least squares on (log2 lambda, log2 value): the fit as report.json
    stores it, {"slope", "intercept", "max_residual"}."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise DomainError(f"need >= 3 points for a slope fit, got {len(pairs)}")
    lams = np.array([float(a) for a, _ in pairs])
    vals = np.array([float(b) for _, b in pairs])
    if np.any(vals <= 0) or np.any(lams <= 0):
        raise DomainError("slope fits need positive lambdas and values")
    x, y = np.log2(lams), np.log2(vals)
    design = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.abs(design @ np.array([slope, intercept]) - y).max())
    return {"slope": float(slope), "intercept": float(intercept),
            "max_residual": resid}


def _cell_setup(cfg, lam):
    """Curve, cutoff, construction spec and the field f of one lambda cell."""
    curve, cutoff, chart = curve_from(cfg), cutoff_from(cfg), chart_from(cfg)
    spec = CounterexampleSpec(lam=lam, chart=chart, cutoff=cutoff,
                              rho=cfg.rho, c0=cfg.c0)
    window = windowed_lattice(spec, points_per_radius=cfg.points_per_radius)
    return curve, cutoff, spec, build_f(spec, window)


def run_cell(cfg, lam):
    """Every per-lambda measurement of the sweep, as one plain dict.

    Builds f once; multiplier samples on its support are batched over
    the short-window time nodes, which also carry the diagnostics (per-piece
    ratios, concentration fractions, and the orthogonality defect: the
    largest |sum of the pieces' powers - ||A_t f||_2^2| / ||A_t f||_2^2, the
    whole taken from `space_stats`'s p = 2 on the field scattered into its
    support box, where pieces that share a lattice point hold one
    coefficient). `grid` records the support box (the field's window), its
    norm grid and the support's mode count; `quadrature` the multiplier's
    ladder (`mu_hat_batch`); `timings` the field (curve, windows and
    `build_f`), the diagnostics' reference powers with the concentration
    ball's kernel, the quadrature and the `space_stats` calls, in seconds;
    `peak_rss_mib` the peak resident set of the process that ran the cell,
    as it stands when the cell ends.
    """
    clock = time.perf_counter
    t0 = clock()
    curve, cutoff, spec, f = _cell_setup(cfg, lam)
    window = f.window
    ps = tuple(sorted(set([2.0] + [float(p) for p in cfg.ps])))
    n = cfg.n
    short = TimeWindow.short(lam, n, m=cfg.time_nodes)
    t_kernel = clock()

    Ln = window.L ** n
    g_power = [float((np.abs(f.coeffs[b.rows] / lam ** (1.0 / n)) ** 2).sum()) / Ln
               for b in f.support]
    kernel = ball_kernel(f, ball_radius_from(cfg, lam))

    quadrature = {}
    t_quad = clock()
    mu_short = mu_hat_batch(curve, cutoff, short.nodes, f.xi(), stats=quadrature)
    t_in = clock()
    norms_in, _ = space_stats(f, ps)
    norms_s = clock() - t_in

    piece_min = np.inf
    piece_table = []
    defect = 0.0
    fractions = []
    node_norms = {p: [] for p in ps}
    for row in mu_short:
        coeff = f.coeffs * row
        powers = [float((np.abs(coeff[b.rows]) ** 2).sum()) / Ln for b in f.support]
        ratios = [np.sqrt(pw / gp) for pw, gp in zip(powers, g_power)]
        piece_min = min(piece_min, min(ratios))
        piece_table.append(ratios)
        t = clock()
        norms, frac = space_stats(f.with_coeffs(coeff), ps, ball=kernel)
        norms_s += clock() - t
        # the pieces' powers against ||A_t f||_2^2 of the scattered field
        total = norms[2.0] ** 2
        defect = max(defect, abs(sum(powers) - total) / total)
        fractions.append(frac)
        for p in ps:
            node_norms[p].append(norms[p])
    out_short = {p: lp_norm_spacetime(node_norms[p], p, short) for p in ps}

    # stationary-phase reference |alpha_n| c_{t,nu} at t = 1 per piece
    centers = np.array([ball.center for ball in f.support])
    theta = spec.chart.solve_theta_batch(centers)
    _, un = spec.chart.phi_un_batch(centers)
    ref = (abs(alpha_n(n)) * factorial(n) ** (1.0 / n) * cutoff(theta)
           * lam ** (1.0 / n) / un ** (1.0 / n))
    box = list(window.dims)

    return {
        "lam": float(lam),
        "nnu": len(f.support),
        "grid": {"box": box, "norm_grid": list(_norm_grid(box, ps)),
                 "support": len(f.coeffs)},
        "norms_in": {str(p): norms_in[p] for p in ps},
        "out_short": {str(p): out_short[p] for p in ps},
        "quotient": {str(p): out_short[p] / norms_in[p] for p in ps},
        "piece_min": float(piece_min),
        "piece_min_by_nu": [float(min(col)) for col in zip(*piece_table)],
        "piece_reference": [float(v) for v in ref],
        "defect": float(defect),
        "fractions": [float(v) for v in fractions],
        "t_nodes_short": list(short.nodes),
        "quadrature": quadrature,
        "timings": {"field_s": t_kernel - t0, "kernel_s": t_quad - t_kernel,
                    "quadrature_s": t_in - t_quad, "norms_s": norms_s},
        "runtime_s": clock() - t0,
        "peak_rss_mib": _peak_rss_mib(),
    }


def _peak_rss_mib():
    """This process's peak resident set so far, in MiB (`ru_maxrss` counts
    KiB on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << (20 if sys.platform == "darwin" else 10))


def _cell_job(args):
    cfg, lam = args
    return run_cell(cfg, lam)


def _trend_mostly_decreasing(values, allowed_inversions=1):
    ups = sum(1 for a, b in zip(values, values[1:]) if b > a)
    return ups <= allowed_inversions


def sharpness_sweep(cfg, slope_tols=None):
    """Run the full lambda sweep and fit the three slopes per p; returns the
    report.json payload, a plain dict.

    Its keys: `n`, `ps`, `lambdas`; `cells`, the `run_cell` dicts in lambda
    order, whose per-p maps are keyed by str(p) ("4.0");
    `slopes`, keyed by the p label ("4") and then by series ("input",
    "output", "quotient"), each a `fit_slope` dict with `expected`, the
    `expected_slopes` exponent, and `gap`, |slope - expected|; `checks`, one
    {"name", "passed", "detail"} per check; `quotient_monotone`, whether
    every p's quotient falls in lambda with at most one inversion (a
    warning, not a check); and `config`, the run's config echo.

    Checks (selected by cfg.checks) are evaluated here: 'orthogonality'
    (defect <= 1e-10 everywhere), 'slopes' (each fitted slope inside its
    tolerance band around the asymptotic exponent), 'floor' (per-piece ratio
    min >= cfg.piece_floor), 'concentration' (over the lambda >= 64 cells:
    window variation of the fractions <= 0.15 in each cell, and every fraction
    above every fraction of the previous lambda).

    The concentration check asks for growth, not for a mass share of 0.5: that
    share is the lambda -> infinity statement. On the pinned acceptance config
    (n = 3, rho = 1, eps = 0.3) the fraction of ||A_1 f||_2^2 inside
    B(0, lambda^{-(1-eps)/n}) is 0.091 / 0.131 / 0.149 at lambda = 64 / 128 /
    256. No choice of coefficients on the same frequency support could reach
    0.5: the largest share any such field puts in the ball (the top
    eigenvalue of the ball's quadratic form on that support) is 0.196 at
    lambda = 64 and 0.229 at lambda = 128. The half-mass radius of A_1 f stays
    at ~2.97 lambda^{-1/3} across lambda while the ball is lambda^{eps/3} such
    units wide, so the 0.5 share arrives near lambda ~ 2.97^{3/eps} ~ 5e4.
    """
    if len(cfg.lambdas) < 3:
        raise DomainError(
            f"need >= 3 lambda values for slope fits, got {len(cfg.lambdas)}")
    lams = sorted(float(v) for v in cfg.lambdas)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(lams))) as pool:
            cells = list(pool.map(_cell_job, [(cfg, lam) for lam in lams]))
    else:
        cells = [run_cell(cfg, lam) for lam in lams]
    cells.sort(key=lambda c: c["lam"])

    tols = dict(DEFAULT_SLOPE_TOLS)
    if slope_tols:
        tols.update(slope_tols)

    ps = [float(p) for p in cfg.ps]
    keys = [str(int(p)) if p.is_integer() else str(p) for p in ps]
    slopes = {}
    for p, key in zip(ps, keys):
        want = expected_slopes(p, cfg.n)
        slopes[key] = {}
        for which, series in (("input", "norms_in"), ("output", "out_short"),
                              ("quotient", "quotient")):
            fit = fit_slope([(c["lam"], c[series][str(p)]) for c in cells])
            fit["expected"] = want[which]
            fit["gap"] = abs(fit["slope"] - want[which])
            slopes[key][which] = fit

    checks = []
    if "orthogonality" in cfg.checks:
        worst = max(c["defect"] for c in cells)
        checks.append({"name": "orthogonality", "passed": bool(worst <= 1e-10),
                       "detail": f"max defect {worst:.3e} (limit 1e-10)"})
    if "slopes" in cfg.checks:
        for p, key in zip(ps, keys):
            for which, fit in slopes[key].items():
                checks.append({
                    "name": f"slope/{which}/p={p:g}",
                    "passed": bool(fit["gap"] <= tols[which]),
                    "detail": (f"fitted {fit['slope']:+.4f} vs expected "
                               f"{fit['expected']:+.4f} (gap {fit['gap']:.4f}, "
                               f"tol {tols[which]})")})
    if "floor" in cfg.checks:
        worst = min(c["piece_min"] for c in cells)
        checks.append({"name": "piece-floor",
                       "passed": bool(worst >= cfg.piece_floor),
                       "detail": f"min piece ratio {worst:.4f} "
                                 f"(floor {cfg.piece_floor})"})
    if "concentration" in cfg.checks:
        tail = [c for c in cells if c["lam"] >= 64]
        for c in tail:
            lo, hi = min(c["fractions"]), max(c["fractions"])
            checks.append({
                "name": f"concentration/lambda={c['lam']:g}",
                "passed": bool(hi - lo <= 0.15),
                "detail": f"fractions {lo:.4f}..{hi:.4f} (variation <= 0.15)"})
        for prev, c in zip(tail, tail[1:]):
            below, lo = max(prev["fractions"]), min(c["fractions"])
            checks.append({
                "name": f"concentration/growth/lambda={c['lam']:g}",
                "passed": bool(lo > below),
                "detail": f"min fraction {lo:.4f} vs max {below:.4f} "
                          f"at lambda={prev['lam']:g} (need growth)"})

    monotone = all(_trend_mostly_decreasing([c["quotient"][str(p)]
                                             for c in cells]) for p in ps)
    return {"n": cfg.n, "ps": ps, "lambdas": lams, "cells": cells,
            "slopes": slopes, "checks": checks, "quotient_monotone": monotone,
            "config": cfg.echo()}

