"""Scaling experiments: lambda sweeps and their quantitative checks.

A sweep builds the counterexample family at each lambda, applies the
average over the short time window [1, 1 + lambda^{-1/n}], and fits log2-log2
slopes of the input norm, output norm, and their quotient. The quotient slope
is the sharpness payload: it should track -(1/2 + 2/p)/n, the exponent that
forces the critical smoothing index sigma(p, n) = min{1/n, (1/n)(1/2 + 2/p),
2/p}.

Per-lambda diagnostics ride along: the L^2 orthogonality defect across
pieces (the pieces' powers against ||A_t f||_2^2, exact when their lattice
supports are disjoint), the per-piece lower bound ||A_t f_nu||_2/||g_nu||_2
against its stationary-phase reference, and the concentration fraction, the
share of ||A_t f||_2^2 in a ball at the origin, summed over piece pairs
(`averaging.PairTable`).

A cell is built once and measured by one function. `cell_support` builds
what depends on the support alone: the field, the stationary-phase
reference, the multiplier's rows at the short window's nodes and the
concentration ball's pair table. `measure` returns every value of one
coefficient vector on that support, and `run_cell` is `measure` of f on its
own cell. Every per-cell choice (curve, construction, p set, time window,
ball radius) is the `config.cell_plan` the memory gate reads too.

`sharpness_sweep` returns the report.json payload as a plain dict; the
artifacts, the printed summary and `curveavg report` all read that dict.

lambda cells are independent pure jobs. With cfg.jobs > 1 each runs in a
child process forked for it (`parallel.forked_cells`), at most cfg.jobs at
once and largest lambda first, which pipes its dict back and exits; the
cells merge in lambda order, so results are independent of the parallelism
degree.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from .averaging import (PairTable, lp_norm_spacetime, norm_grid, pair_table,
                        space_stats)
from .config import CellPlan, cell_plan
from .errors import DomainError
from .fields import SpectralField, build_f, windowed_lattice
from .multiplier import cone_decay, leading_constant, mu_hat_batch

__all__ = ["expected_slopes", "fit_slope", "Cell",
           "cell_field", "cell_support", "measure", "run_cell",
           "sharpness_sweep", "DEFAULT_SLOPE_TOLS"]

DEFAULT_SLOPE_TOLS = {"input": 0.1, "output": 0.1, "quotient": 0.05}


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
    stores it, {"slope", "intercept", "max_residual"}.

    Closed form on the centred logs dx, dy in plain ufuncs, so that no
    LAPACK routine runs or pages into the process: slope = sum(dx dy) /
    sum(dx^2), and max_residual the largest |dy - slope dx|. Fewer than two
    distinct lambdas, or a lambda or value not positive and finite, is a
    DomainError.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise DomainError(f"need >= 3 points for a slope fit, got {len(pairs)}")
    lams = np.array([float(a) for a, _ in pairs])
    vals = np.array([float(b) for _, b in pairs])
    if not np.all(np.isfinite(lams) & np.isfinite(vals)
                  & (lams > 0) & (vals > 0)):
        raise DomainError("slope fits need positive finite lambdas and values")
    if np.all(lams == lams[0]):
        raise DomainError(
            f"a slope fit needs >= 2 distinct lambdas, got only {lams[0]:g}")
    x, y = np.log2(lams), np.log2(vals)
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    slope = (dx * dy).sum() / (dx * dx).sum()
    intercept = ym - slope * xm
    resid = float(np.abs(dy - slope * dx).max())
    return {"slope": float(slope), "intercept": float(intercept),
            "max_residual": resid}


@dataclass(frozen=True)
class Cell:
    """What one lambda cell holds that depends on its support alone.

    `plan` is the cell's `CellPlan`; `field` the family f, whose support
    every measured vector shares; `mu` the multiplier on that support, one
    row per short-window time node, so that `coeffs * mu` is A_t f at every
    node; `quadrature` the stats of its ladder (`mu_hat_batch`); `pairs`
    the concentration ball's `pair_table` on the support's pieces;
    `reference` the stationary-phase reference per piece, the modulus of
    the multiplier's leading term at t = 1 (`leading_constant` x
    `cone_decay`) at its centre, times lambda^{1/n} since the piece ratios
    divide by g_nu = lambda^{-1/n} f_nu; `timings` the seconds spent on
    the field (plan, window and `build_f`) and the reference, `field_s`;
    on the quadrature, `quadrature_s`; and on the pair table, built after
    the quadrature so that it is not held beside its buffers, `kernel_s`.
    `measure` times its own two loops, `norms_s` and `share_s`.
    """

    plan: CellPlan
    field: SpectralField
    mu: np.ndarray
    quadrature: dict
    pairs: PairTable
    reference: np.ndarray
    timings: dict


def cell_field(cfg, plan):
    """The family f of the plan's cell, on cfg's lattice."""
    return build_f(plan.spec, windowed_lattice(
        plan.spec, points_per_radius=cfg.points_per_radius))


def cell_support(cfg, lam):
    """The `Cell` of cfg at lambda: f and its reference, the multiplier's
    rows on its support, then its pair table."""
    clock = time.perf_counter
    t0 = clock()
    plan = cell_plan(cfg, lam)
    spec = plan.spec
    f = cell_field(cfg, plan)
    # lambda^{1/n} |the multiplier's leading term at t = 1| at each centre
    _, decay = cone_decay(spec.chart, spec.cutoff, 1.0,
                          [ball.center for ball in f.support])
    reference = lam ** (1.0 / spec.n) * np.abs(leading_constant(spec.n) * decay)
    quadrature = {}
    t_quad = clock()
    mu = mu_hat_batch(spec.chart.curve, spec.cutoff, plan.short.nodes, f.xi(),
                      stats=quadrature)
    t_pairs = clock()
    pairs = pair_table(f, plan.ball_radius)
    timings = {"field_s": t_quad - t0, "kernel_s": clock() - t_pairs,
               "quadrature_s": t_pairs - t_quad}
    return Cell(plan=plan, field=f, mu=mu, quadrature=quadrature,
                pairs=pairs, reference=reference, timings=timings)


def measure(cell, coeffs):
    """Every value of the coefficient vector `coeffs` on the cell's support.

    Per p, as str(p): `norms_in`, ||f||_p, and `out_short`, the L^p norm
    of A_t f over the short window, with `quotient` their ratio. Per time
    node, the pieces' ratios ||A_t f_nu||_2 / ||g_nu||_2, with g_nu =
    lambda^{-1/n} f_nu: `piece_min`, their least, and `piece_min_by_nu`,
    each piece's least; `defect`, the orthogonality defect, the largest
    |sum of the pieces' powers - ||A_t f||_2^2| / ||A_t f||_2^2, the whole
    taken from `space_stats`'s p = 2 on the field scattered into its support
    box, where pieces that share a lattice point hold one coefficient; and
    `fractions`, the share of ||A_t f||_2^2 in the concentration ball
    (`PairTable.share`). `norms_s` and `share_s` time the loops of
    `space_stats` over f and the nodes and of the shares over the nodes.

    The quotient divides by the vector's norms and the piece ratios by its
    power on each piece: a vector that is zero, or zero on a piece, is a
    DomainError that says so or names the pieces.
    """
    f = cell.field.with_coeffs(coeffs)
    ps, lam, n = cell.plan.ps, cell.plan.spec.lam, cell.plan.spec.n
    Ln = f.window.L ** n

    def piece_powers(c):
        return np.array([(np.abs(c[b.rows]) ** 2).sum() for b in f.support]) / Ln

    g_power = piece_powers(coeffs / lam ** (1.0 / n))
    empty = [i for i, power in enumerate(g_power) if power == 0.0]
    if empty:
        raise DomainError("the coefficient vector is zero" + (
            f" on pieces {empty}" if np.any(coeffs) else ""))
    # A_t f one node at a time: all nodes at once would raise the cell's peak
    powers = np.array([piece_powers(coeffs * row) for row in cell.mu])
    ratios = np.sqrt(powers / g_power)
    t_norms = time.perf_counter()
    norms_in = space_stats(f, ps)
    norms = [space_stats(f.with_coeffs(coeffs * row), ps) for row in cell.mu]
    t_share = time.perf_counter()
    fractions = [cell.pairs.share(coeffs * row) for row in cell.mu]
    share_s = time.perf_counter() - t_share
    # the pieces' powers against ||A_t f||_2^2 of the scattered field
    defect = max(abs(sum(row) - nm[2.0] ** 2) / nm[2.0] ** 2
                 for row, nm in zip(powers, norms))
    out_short = {p: lp_norm_spacetime([nm[p] for nm in norms], p,
                                      cell.plan.short) for p in ps}
    return {
        "norms_in": {str(p): norms_in[p] for p in ps},
        "out_short": {str(p): out_short[p] for p in ps},
        "quotient": {str(p): out_short[p] / norms_in[p] for p in ps},
        "piece_min": float(ratios.min()),
        "piece_min_by_nu": ratios.min(axis=0).tolist(),
        "defect": float(defect),
        "fractions": [float(v) for v in fractions],
        "norms_s": t_share - t_norms,
        "share_s": share_s,
    }


def run_cell(cfg, lam):
    """Every per-lambda measurement of the sweep, as one plain dict: the
    `measure` values of f on its own cell (`cell_support`), with the cell's
    records.

    `grid` records the support box (the field's window), its norm grid and
    the support's mode count; `piece_reference` the `Cell`'s reference per
    piece; `quadrature` the multiplier's ladder; `timings` the cell's
    `field_s`, `quadrature_s` and `kernel_s` and the measurement's `norms_s`
    and `share_s`, in seconds; `peak_rss_mib` the peak resident set of the
    process that ran the cell, as it stands when the cell ends.
    """
    t0 = time.perf_counter()
    cell = cell_support(cfg, lam)
    f, ps = cell.field, cell.plan.ps
    values = measure(cell, f.coeffs)
    timings = dict(cell.timings, norms_s=values.pop("norms_s"),
                   share_s=values.pop("share_s"))
    box = list(f.window.dims)
    return {
        "lam": float(lam),
        "nnu": len(f.support),
        "grid": {"box": box, "norm_grid": list(norm_grid(box, ps)),
                 "support": len(f.coeffs)},
        **values,
        "piece_reference": [float(v) for v in cell.reference],
        "t_nodes_short": list(cell.plan.short.nodes),
        "quadrature": cell.quadrature,
        "timings": timings,
        "runtime_s": time.perf_counter() - t0,
        "peak_rss_mib": _peak_rss_mib(),
    }


def _peak_rss_mib():
    """This process's peak resident set so far, in MiB (`ru_maxrss` counts
    KiB on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << (20 if sys.platform == "darwin" else 10))


def _trend_mostly_decreasing(values):
    ups = sum(1 for a, b in zip(values, values[1:]) if b > a)
    return ups <= 1


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
        from .parallel import forked_cells   # a --jobs 1 process never loads it
        cells = forked_cells(run_cell, cfg, lams)
    else:
        cells = [run_cell(cfg, lam) for lam in lams]

    tols = {**DEFAULT_SLOPE_TOLS, **(slope_tols or {})}

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

